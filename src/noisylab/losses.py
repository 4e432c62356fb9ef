"""Training objectives: bootstrapped classification (A), reconstruction (B)
and cluster regularization (C), their sum, and the mixing-weight schedule.

Cluster regularization combines three pieces, which ``cluster_loss`` also
returns one by one: a cross-view consistency cross-entropy, a KL-to-uniform
penalty on the batch-marginal cluster distribution (small when clusters
stay balanced), and the per-sample assignment entropy (small when
assignments are confident). All probabilities are clamped to [1e-12, 1]
before any log. The training loop computes only the enabled terms and
``total_loss`` adds them in A, B, C order; which terms are enabled is the
config's ``losses.A/B/C``, read by the loop alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

PROB_ROW_TOL = 1e-4


class LossInputError(ValueError):
    """Malformed loss inputs (unnormalized rows, bad shapes, bad weights)."""


def _check_rows_normalized(probs: Tensor, name: str):
    sums = probs.data.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > PROB_ROW_TOL):
        worst = float(np.abs(sums - 1.0).max())
        raise LossInputError(f"{name}: rows must sum to 1 (max deviation {worst:.3g})")


def task_loss(pred_probs: Tensor, labels_onehot) -> Tensor:
    """Mean cross-entropy of predicted probabilities against one-hot labels."""
    _check_rows_normalized(pred_probs, "task_loss predictions")
    onehot = labels_onehot.data if isinstance(labels_onehot, Tensor) else np.asarray(labels_onehot)
    if onehot.shape != pred_probs.shape:
        raise LossInputError(
            f"task_loss: labels shape {onehot.shape} vs predictions {pred_probs.shape}"
        )
    per_sample = -(Tensor(onehot) * pred_probs.clamped_log()).sum(axis=-1)
    return per_sample.mean()


def reconstruction_loss(x_hat: Tensor, x) -> Tensor:
    """Mean over all elements of the squared reconstruction error."""
    target = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=x_hat.dtype))
    if target.shape != x_hat.shape:
        raise LossInputError(
            f"reconstruction_loss: shapes differ, {x_hat.shape} vs {target.shape}"
        )
    return (x_hat - target).square().mean()


def conditional_entropy(cluster_probs: Tensor) -> Tensor:
    """Batch mean of per-row entropy; in [0, ln K]."""
    _check_rows_normalized(cluster_probs, "conditional_entropy")
    per_row = -(cluster_probs * cluster_probs.clamped_log()).sum(axis=-1)
    return per_row.mean()


def marginal_entropy_term(cluster_probs_batch: Tensor) -> Tensor:
    """KL divergence of the batch-mean cluster distribution from uniform.

    Nonnegative; zero exactly when the batch marginal is uniform. Minimizing
    it keeps clusters balanced (maximal marginal entropy).
    """
    _check_rows_normalized(cluster_probs_batch, "marginal_entropy_term")
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
    _check_rows_normalized(clean_cluster_probs, "consistency_penalty target")
    _check_rows_normalized(aug_cluster_probs, "consistency_penalty prediction")
    target = clean_cluster_probs.detach() if block_target_grad else clean_cluster_probs
    per_row = -(target * aug_cluster_probs.clamped_log()).sum(axis=-1)
    return per_row.mean()


def cluster_loss(clean_probs: Tensor, aug_probs: Tensor, lam: float, block_target_grad: bool = True):
    """Consistency + lam * (KL-to-uniform of the marginal + assignment entropy).

    Returns ``(total, parts)`` where parts holds the three components as
    Tensors under keys consistency / kl_uniform / cond_entropy.
    """
    if lam < 0:
        raise LossInputError(f"cluster weight must be >= 0, got {lam}")
    consistency = consistency_penalty(clean_probs, aug_probs, block_target_grad)
    kl_uniform = marginal_entropy_term(clean_probs)
    cond_ent = conditional_entropy(clean_probs)
    total = consistency + lam * kl_uniform + lam * cond_ent
    return total, {
        "consistency": consistency,
        "kl_uniform": kl_uniform,
        "cond_entropy": cond_ent,
    }


def bootstrap_loss(log_pred: Tensor, noisy_onehot, alpha: float) -> Tensor:
    """Blend of cross-entropy against noisy labels and against the model's
    own hard argmax predictions.

    ``log_pred`` are log-probabilities; at alpha=1 this is exactly the plain
    cross-entropy against the noisy labels. The pseudo-label branch uses the
    hard argmax (first index on ties) with no gradient through the label
    choice.
    """
    if not 0.0 <= alpha <= 1.0:
        raise LossInputError(f"alpha must be in [0, 1], got {alpha}")
    onehot = noisy_onehot.data if isinstance(noisy_onehot, Tensor) else np.asarray(noisy_onehot)
    if onehot.shape != log_pred.shape:
        raise LossInputError(
            f"bootstrap_loss: labels shape {onehot.shape} vs predictions {log_pred.shape}"
        )
    rows = np.exp(log_pred.data)
    if np.any(np.abs(rows.sum(axis=-1) - 1.0) > PROB_ROW_TOL):
        raise LossInputError("bootstrap_loss: exp(log_pred) rows must sum to 1")
    noisy_ce = -(Tensor(onehot) * log_pred).sum(axis=-1).mean()
    if alpha == 1.0:
        return noisy_ce
    pseudo = np.zeros_like(onehot)
    pseudo[np.arange(len(pseudo)), log_pred.data.argmax(axis=-1)] = 1.0
    self_ce = -(Tensor(pseudo) * log_pred).sum(axis=-1).mean()
    if alpha == 0.0:
        return self_ce
    return alpha * noisy_ce + (1.0 - alpha) * self_ce


def total_loss(terms: dict) -> Tensor:
    """The sum of the scalar loss terms, as a left fold in the dict's order
    that starts from the first term: ``(a + b) + c``."""
    total, *rest = terms.values()
    for term in rest:
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Mixing-weight schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaSchedule:
    """Supervision mixing weight over epochs: 1 up to ``start_epoch``,
    0 from ``end_epoch`` on, monotone non-increasing in between.

    Kinds: linear | cosine | step | constant. ``constant`` ignores the
    epoch bounds and always returns ``value`` (value=1 reproduces the
    plain cross-entropy baseline).
    """

    kind: str = "linear"
    start_epoch: int = 0
    end_epoch: int = 1
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "cosine", "step", "constant"):
            raise ValueError(f"unknown alpha schedule kind: {self.kind!r}")
        if self.kind != "constant" and self.start_epoch >= self.end_epoch:
            raise ValueError(
                f"start_epoch must precede end_epoch, got {self.start_epoch} >= {self.end_epoch}"
            )
        if self.kind == "constant" and not 0.0 <= self.value <= 1.0:
            raise ValueError("constant alpha must be in [0, 1]")


def alpha_at(schedule: AlphaSchedule, epoch: int, total_epochs: int) -> float:
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    if schedule.kind == "constant":
        return schedule.value
    if epoch <= schedule.start_epoch:
        return 1.0
    if epoch >= schedule.end_epoch:
        return 0.0
    frac = (epoch - schedule.start_epoch) / (schedule.end_epoch - schedule.start_epoch)
    if schedule.kind == "linear":
        return 1.0 - frac
    if schedule.kind == "cosine":
        return 0.5 * (1.0 + math.cos(math.pi * frac))
    # step: full supervision for the first half of the decay window
    return 1.0 if frac < 0.5 else 0.0

