"""Reference chains of single autodiff ops, for the tests alone.

Each training loss in ``noisylab.losses`` is one fused node that replays a
chain of single ops, and the tests pin every node to its chain byte for
byte. The chains live here, with the single ops they are built from, so the
package ships only the ops that training runs. Each op is a function of
Tensors built on ``Tensor._result`` and ``Tensor._coerce``; call it
explicitly, ``sum(mul(w, w))`` for what ``(w * w).sum()`` once was. Nothing
here is patched onto ``Tensor``, so the tests run the ``Tensor`` the package
ships.

``grad_check`` compares an op's analytic gradient with central differences.
"""

from __future__ import annotations

import math

import numpy as np

from noisylab.autodiff import PROB_EPS, ShapeError, Tensor, _unbroadcast, _unreduce
from noisylab.losses import LossInputError, _check_rows_normalized

# ---------------------------------------------------------------------------
# Single ops. Subtraction and mean are compositions, not nodes of their own:
# ``sub(a, b)`` is ``a + neg(b)`` and a mean is the sum times ``1 / n``.
# ---------------------------------------------------------------------------


def detach(self):
    """Same values, cut off from the graph (no gradient flows through)."""
    return Tensor(self.data)


def neg(self):
    def backward(g, a=self):
        return ((a, -g),)

    return Tensor._result(-self.data, (self,), backward, "neg")


def sub(self, other):
    return self + neg(self._coerce(other))


def mul(self, other):
    other = self._coerce(other)
    try:
        data = self.data * other.data
    except ValueError as exc:
        raise ShapeError(f"multiply: incompatible shapes {self.shape} and {other.shape}") from exc

    def backward(g, a=self, b=other):
        grads = []
        if a.requires_grad:
            grads.append((a, _unbroadcast(g * b.data, a.shape)))
        if b.requires_grad:
            grads.append((b, _unbroadcast(g * a.data, b.shape)))
        return grads

    return Tensor._result(data, (self, other), backward, "multiply")


def clamped_log(self):
    """log of the values clipped to [PROB_EPS, 1]; the gradient passes
    only where a value lies inside that range."""
    mask = (self.data >= PROB_EPS) & (self.data <= 1.0)
    clipped = np.clip(self.data, PROB_EPS, 1.0)

    def backward(g, a=self, clipped=clipped, m=mask):
        return ((a, (g / clipped) * m),)

    return Tensor._result(np.log(clipped), (self,), backward, "clamped_log")


def square(self):
    def backward(g, a=self):
        return ((a, g * 2.0 * a.data),)

    return Tensor._result(self.data * self.data, (self,), backward, "square")


def sum(self, axis=None, keepdims=False):
    data = self.data.sum(axis=axis, keepdims=keepdims)

    def backward(g, a=self, axis=axis, keepdims=keepdims):
        return ((a, _unreduce(g, a, axis, keepdims)),)

    return Tensor._result(data, (self,), backward, "sum")


def mean(self, axis=None, keepdims=False):
    n = self.data.size if axis is None else self.data.shape[axis]
    return mul(sum(self, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, point: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor. The point should be float64;
    the returned error is max over coordinates of
    |analytic - numeric| / max(1, |numeric|). NaN on either side counts as
    infinite error.
    """
    p = Tensor(point.data.astype(np.float64), requires_grad=True)
    out = f(p)
    out.backward()
    analytic = np.zeros_like(p.data) if p.grad is None else np.asarray(p.grad, dtype=np.float64)

    flat = p.data.reshape(-1)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(Tensor(p.data.copy())).item()
        flat[i] = orig - step
        lo = f(Tensor(p.data.copy())).item()
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * step)
    numeric = numeric.reshape(p.data.shape)

    if np.any(np.isnan(analytic)) or np.any(np.isnan(numeric)):
        return float("inf")
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(err.max()) if err.size else 0.0


# ---------------------------------------------------------------------------
# Single-term losses: the task loss and the three parts of the cluster loss
# ---------------------------------------------------------------------------

def task_loss(pred_probs: Tensor, labels_onehot) -> Tensor:
    """Mean cross-entropy of predicted probabilities against one-hot labels."""
    _check_rows_normalized(pred_probs.data, "task_loss predictions")
    onehot = labels_onehot.data if isinstance(labels_onehot, Tensor) else np.asarray(labels_onehot)
    if onehot.shape != pred_probs.shape:
        raise LossInputError(
            f"task_loss: labels shape {onehot.shape} vs predictions {pred_probs.shape}"
        )
    per_sample = neg(sum(mul(Tensor(onehot), clamped_log(pred_probs)), axis=-1))
    return mean(per_sample)


def conditional_entropy(cluster_probs: Tensor) -> Tensor:
    """Batch mean of per-row entropy; in [0, ln K]."""
    _check_rows_normalized(cluster_probs.data, "conditional_entropy")
    per_row = neg(sum(mul(cluster_probs, clamped_log(cluster_probs)), axis=-1))
    return mean(per_row)


def marginal_entropy_term(cluster_probs_batch: Tensor) -> Tensor:
    """KL divergence of the batch-mean cluster distribution from uniform.

    Nonnegative; zero exactly when the batch marginal is uniform. Minimizing
    it keeps clusters balanced (maximal marginal entropy).
    """
    _check_rows_normalized(cluster_probs_batch.data, "marginal_entropy_term")
    k = cluster_probs_batch.shape[-1]
    marginal = mean(cluster_probs_batch, axis=0)
    return sum(mul(marginal, clamped_log(marginal) + math.log(k)))


def consistency_penalty(clean_cluster_probs: Tensor, aug_cluster_probs: Tensor, block_target_grad: bool = True) -> Tensor:
    """Cross-entropy pushing the augmented view toward the clean view.

    The clean view acts as a fixed target by default (no gradient through
    it). By Gibbs' inequality the value is at least the clean row entropy.
    """
    if clean_cluster_probs.shape != aug_cluster_probs.shape:
        raise LossInputError(
            f"consistency_penalty: shapes differ, {clean_cluster_probs.shape} vs {aug_cluster_probs.shape}"
        )
    _check_rows_normalized(clean_cluster_probs.data, "consistency_penalty target")
    _check_rows_normalized(aug_cluster_probs.data, "consistency_penalty prediction")
    target = detach(clean_cluster_probs) if block_target_grad else clean_cluster_probs
    per_row = neg(sum(mul(target, clamped_log(aug_cluster_probs)), axis=-1))
    return mean(per_row)


# ---------------------------------------------------------------------------
# The chains the three training-loss nodes replay, with the nodes' signatures
# ---------------------------------------------------------------------------

def chain_bootstrap_loss(log_pred, noisy_onehot, alpha):
    onehot = noisy_onehot.data if isinstance(noisy_onehot, Tensor) else np.asarray(noisy_onehot)
    noisy_ce = neg(mean(sum(mul(Tensor(onehot), log_pred), axis=-1)))
    if alpha == 1.0:
        return noisy_ce
    pseudo = np.zeros_like(onehot)
    pseudo[np.arange(len(pseudo)), log_pred.data.argmax(axis=-1)] = 1.0
    self_ce = neg(mean(sum(mul(Tensor(pseudo), log_pred), axis=-1)))
    if alpha == 0.0:
        return self_ce
    return mul(noisy_ce, alpha) + mul(self_ce, 1.0 - alpha)


def chain_reconstruction_loss(x_hat, x):
    target = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=x_hat.dtype))
    return mean(square(sub(x_hat, target)))


def chain_cluster_loss(clean_probs, aug_probs, lam, block_target_grad=True):
    consistency = consistency_penalty(clean_probs, aug_probs, block_target_grad)
    kl_uniform = marginal_entropy_term(clean_probs)
    cond_ent = conditional_entropy(clean_probs)
    total = consistency + mul(kl_uniform, lam) + mul(cond_ent, lam)
    return total, {"consistency": consistency, "kl_uniform": kl_uniform, "cond_entropy": cond_ent}
