"""Training objectives: bootstrapped classification (A), reconstruction (B)
and cluster regularization (C), and their sum. The bootstrap loss takes its
mixing weight alpha as a number; its schedule over epochs is
``training.alpha_at``, which reads the config.

Cluster regularization combines three pieces, which ``cluster_loss`` also
returns one by one: a cross-view consistency cross-entropy, a KL-to-uniform
penalty on the batch-marginal cluster distribution (small when clusters
stay balanced), and the per-sample assignment entropy (small when
assignments are confident). All probabilities are clamped to [1e-12, 1]
before any log. The training loop computes only the enabled terms and
``total_loss`` adds them in A, B, C order; which terms are enabled is the
config's ``losses.A/B/C``, read by the loop alone.

Each training loss (``bootstrap_loss``, ``reconstruction_loss`` and
``cluster_loss``) is one autodiff node. Its forward runs the numpy
operations of the chain of single ops it stands for, in the chain's order
and dtypes, 0-d constants such as ``np.asarray(1 / n, dtype)`` included;
its backward replays the chain's gradient arithmetic. So values and
gradients are bit for bit the chain's; ``tests/test_losses.py`` keeps the
chains as the reference. In ``cluster_loss`` the clean view's gradient is
summed as ((consistency target term, when the target is not detached) +
KL-marginal term) + entropy product term + entropy log term, the order the
chain's backward adds them in; any other order rounds differently. An
operand that needs no gradient gets none computed. ``task_loss`` and the
three cluster part functions remain chains of single ops.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import PROB_EPS, Tensor, _unreduce

PROB_ROW_TOL = 1e-4


class LossInputError(ValueError):
    """Malformed loss inputs (unnormalized rows, bad shapes, bad weights)."""


def _check_rows_normalized(rows: np.ndarray, name: str):
    sums = rows.sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= PROB_ROW_TOL):  # NaN sums fail too
        worst = float(np.abs(sums - 1.0).max())
        raise LossInputError(f"{name}: rows must sum to 1 (max deviation {worst:.3g})")


def _unclamped(p):
    """Where the clamped log passes a gradient: inside [PROB_EPS, 1]."""
    return (p >= PROB_EPS) & (p <= 1.0)


def task_loss(pred_probs: Tensor, labels_onehot) -> Tensor:
    """Mean cross-entropy of predicted probabilities against one-hot labels."""
    _check_rows_normalized(pred_probs.data, "task_loss predictions")
    onehot = labels_onehot.data if isinstance(labels_onehot, Tensor) else np.asarray(labels_onehot)
    if onehot.shape != pred_probs.shape:
        raise LossInputError(
            f"task_loss: labels shape {onehot.shape} vs predictions {pred_probs.shape}"
        )
    per_sample = -(Tensor(onehot) * pred_probs.clamped_log()).sum(axis=-1)
    return per_sample.mean()


def reconstruction_loss(x_hat: Tensor, x) -> Tensor:
    """Mean over all elements of the squared reconstruction error, as one
    node: ``(x_hat - x).square().mean()``."""
    target = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=x_hat.dtype))
    if target.shape != x_hat.shape:
        raise LossInputError(
            f"reconstruction_loss: shapes differ, {x_hat.shape} vs {target.shape}"
        )
    diff = x_hat.data - target.data
    sq = diff * diff
    scale = np.asarray(1.0 / sq.size, dtype=sq.dtype)

    def backward(g):
        g_diff = _unreduce(g * scale, sq, None, False) * 2.0 * diff
        grads = []
        if x_hat.requires_grad:
            grads.append((x_hat, g_diff))
        if target.requires_grad:
            grads.append((target, -g_diff))
        return grads

    return Tensor._result(sq.sum() * scale, (x_hat, target), backward, "reconstruction_loss")


def conditional_entropy(cluster_probs: Tensor) -> Tensor:
    """Batch mean of per-row entropy; in [0, ln K]."""
    _check_rows_normalized(cluster_probs.data, "conditional_entropy")
    per_row = -(cluster_probs * cluster_probs.clamped_log()).sum(axis=-1)
    return per_row.mean()


def marginal_entropy_term(cluster_probs_batch: Tensor) -> Tensor:
    """KL divergence of the batch-mean cluster distribution from uniform.

    Nonnegative; zero exactly when the batch marginal is uniform. Minimizing
    it keeps clusters balanced (maximal marginal entropy).
    """
    _check_rows_normalized(cluster_probs_batch.data, "marginal_entropy_term")
    k = cluster_probs_batch.shape[-1]
    marginal = cluster_probs_batch.mean(axis=0)
    return (marginal * (marginal.clamped_log() + math.log(k))).sum()


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
    target = clean_cluster_probs.detach() if block_target_grad else clean_cluster_probs
    per_row = -(target * aug_cluster_probs.clamped_log()).sum(axis=-1)
    return per_row.mean()


def cluster_loss(clean_probs: Tensor, aug_probs: Tensor, lam: float, block_target_grad: bool = True):
    """Consistency + lam * (KL-to-uniform of the marginal + assignment entropy),
    as one node: ``consistency_penalty + lam * marginal_entropy_term + lam *
    conditional_entropy``.

    Returns ``(total, parts)`` where parts holds the three components as
    Tensors under keys consistency / kl_uniform / cond_entropy; they hold
    values only and are not in the graph.
    """
    if lam < 0:
        raise LossInputError(f"cluster weight must be >= 0, got {lam}")
    if clean_probs.shape != aug_probs.shape:
        raise LossInputError(
            f"cluster_loss: shapes differ, {clean_probs.shape} vs {aug_probs.shape}"
        )
    _check_rows_normalized(clean_probs.data, "cluster_loss clean view")
    _check_rows_normalized(aug_probs.data, "cluster_loss augmented view")
    c, a = clean_probs.data, aug_probs.data
    # consistency: -(c * log a).sum(-1), averaged over rows
    clip_a = np.clip(a, PROB_EPS, 1.0)
    log_a = np.log(clip_a)
    prods_r = c * log_a
    per_row_r = -prods_r.sum(axis=-1)
    scale_r = np.asarray(1.0 / per_row_r.size, dtype=per_row_r.dtype)
    consistency = per_row_r.sum() * scale_r
    # KL to uniform: (m * (log m + log k)).sum() of the batch marginal m
    scale_m = np.asarray(1.0 / c.shape[0], dtype=c.dtype)
    marginal = c.sum(axis=0) * scale_m
    clip_m = np.clip(marginal, PROB_EPS, 1.0)
    log_m = np.log(clip_m)
    shifted = log_m + np.asarray(math.log(c.shape[-1]), dtype=log_m.dtype)
    kl_terms = marginal * shifted
    kl_uniform = kl_terms.sum()
    # assignment entropy: -(c * log c).sum(-1), averaged over rows
    clip_c = np.clip(c, PROB_EPS, 1.0)
    log_c = np.log(clip_c)
    per_row_h = -(c * log_c).sum(axis=-1)
    scale_h = np.asarray(1.0 / per_row_h.size, dtype=per_row_h.dtype)
    cond_ent = per_row_h.sum() * scale_h
    lam_kl = np.asarray(lam, dtype=kl_uniform.dtype)
    lam_h = np.asarray(lam, dtype=cond_ent.dtype)
    total = (consistency + kl_uniform * lam_kl) + cond_ent * lam_h

    def backward(g):
        grads = []
        # the gradient at c * log a, through the mean and the negation
        g_r = _unreduce(-(g * scale_r), prods_r, None, False)
        if aug_probs.requires_grad:
            grads.append((aug_probs, ((g_r * c) / clip_a) * _unclamped(a)))
        if clean_probs.requires_grad:
            g_kl = _unreduce(g * lam_kl, kl_terms, None, False)
            g_m = g_kl * shifted + ((g_kl * marginal) / clip_m) * _unclamped(marginal)
            g_h = _unreduce(-(g * lam_h * scale_h), c, None, False)
            # the chain's order of the clean view's terms: (target +
            # marginal) + entropy product + entropy log
            g_c = _unreduce(g_m * scale_m, c, None, False)
            if not block_target_grad:
                g_c = g_r * log_a + g_c
            g_c = g_c + g_h * log_c
            g_c = g_c + ((g_h * c) / clip_c) * _unclamped(c)
            grads.append((clean_probs, g_c))
        return grads

    parts = {"consistency": consistency, "kl_uniform": kl_uniform, "cond_entropy": cond_ent}
    return (Tensor._result(total, (clean_probs, aug_probs), backward, "cluster_loss"),
            {name: Tensor(value) for name, value in parts.items()})


def _cross_entropy(labels, log_probs):
    """``-(labels * log_probs).sum(-1).mean()`` and its gradient at
    ``log_probs`` as a function of the output's gradient."""
    prods = labels * log_probs
    per_row = prods.sum(axis=-1)
    scale = np.asarray(1.0 / per_row.size, dtype=per_row.dtype)

    def grad(g):
        return _unreduce(-g * scale, prods, None, False) * labels

    return -(per_row.sum() * scale), grad


def bootstrap_loss(log_pred: Tensor, noisy_onehot, alpha: float) -> Tensor:
    """Blend of cross-entropy against noisy labels and against the model's
    own hard argmax predictions, as one node: ``alpha * noisy_ce + (1 -
    alpha) * self_ce``, each ``-(labels * log_pred).sum(-1).mean()``.

    ``log_pred`` are log-probabilities; at alpha=1 this is exactly the plain
    cross-entropy against the noisy labels, and at alpha=0 the
    self-cross-entropy alone. The pseudo-label branch uses the hard argmax
    (first index on ties) with no gradient through the label choice.
    """
    if not 0.0 <= alpha <= 1.0:
        raise LossInputError(f"alpha must be in [0, 1], got {alpha}")
    onehot = noisy_onehot.data if isinstance(noisy_onehot, Tensor) else np.asarray(noisy_onehot)
    if onehot.shape != log_pred.shape:
        raise LossInputError(
            f"bootstrap_loss: labels shape {onehot.shape} vs predictions {log_pred.shape}"
        )
    lp = log_pred.data
    _check_rows_normalized(np.exp(lp), "bootstrap_loss exp(log_pred)")
    if alpha != 0.0:
        noisy_ce, noisy_grad = _cross_entropy(Tensor(onehot).data, lp)
    if alpha != 1.0:
        pseudo = np.zeros_like(onehot)
        pseudo[np.arange(len(pseudo)), lp.argmax(axis=-1)] = 1.0
        self_ce, self_grad = _cross_entropy(Tensor(pseudo).data, lp)
    if alpha == 1.0:
        value, backward = noisy_ce, lambda g: ((log_pred, noisy_grad(g)),)
    elif alpha == 0.0:
        value, backward = self_ce, lambda g: ((log_pred, self_grad(g)),)
    else:
        w_noisy = np.asarray(alpha, dtype=noisy_ce.dtype)
        w_self = np.asarray(1.0 - alpha, dtype=self_ce.dtype)
        value = noisy_ce * w_noisy + self_ce * w_self

        def backward(g):
            return ((log_pred, noisy_grad(g * w_noisy) + self_grad(g * w_self)),)

    return Tensor._result(value, (log_pred,), backward, "bootstrap_loss")


def total_loss(terms: dict) -> Tensor:
    """The sum of the scalar loss terms, as a left fold in the dict's order
    that starts from the first term: ``(a + b) + c``."""
    total, *rest = terms.values()
    for term in rest:
        total = total + term
    return total

