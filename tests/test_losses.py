import math

import numpy as np
import pytest

from noisylab.autodiff import Tensor
from noisylab.losses import (
    LossInputError,
    bootstrap_loss,
    cluster_loss,
    conditional_entropy,
    consistency_penalty,
    marginal_entropy_term,
    reconstruction_loss,
    task_loss,
    total_loss,
)
from noisylab.training import LOSS_COLUMNS


def _probs(rows, k, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=(rows, k))
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float64)


def _onehot(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestTaskLoss:
    def test_matches_manual_cross_entropy(self):
        probs = _probs(8, 3)
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        got = task_loss(Tensor(probs), _onehot(labels, 3)).item()
        want = -np.mean(np.log(probs[np.arange(8), labels]))
        assert got == pytest.approx(want, rel=1e-9)

    def test_perfect_prediction_near_zero(self):
        onehot = _onehot(np.array([0, 1]), 2)
        assert task_loss(Tensor(onehot), onehot).item() == pytest.approx(0.0, abs=1e-9)

    def test_unnormalized_rejected(self):
        with pytest.raises(LossInputError):
            task_loss(Tensor(np.full((2, 3), 0.5)), _onehot(np.array([0, 1]), 3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LossInputError):
            task_loss(Tensor(_probs(4, 3)), _onehot(np.array([0, 1]), 3))


class TestReconstructionLoss:
    def test_matches_mse(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        got = reconstruction_loss(Tensor(a), b).item()
        assert got == pytest.approx(np.mean((a - b) ** 2), rel=1e-9)

    def test_zero_at_identity(self):
        x = np.ones((3, 2, 2))
        assert reconstruction_loss(Tensor(x), x).item() == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LossInputError):
            reconstruction_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


class TestEntropyTerms:
    def test_conditional_entropy_bounds(self):
        k = 5
        onehot = _onehot(np.array([0, 1, 2]), k)
        assert conditional_entropy(Tensor(onehot)).item() == pytest.approx(0.0, abs=1e-9)
        uniform = np.full((3, k), 1.0 / k)
        assert conditional_entropy(Tensor(uniform)).item() == pytest.approx(math.log(k), abs=1e-9)
        for seed in range(10):
            val = conditional_entropy(Tensor(_probs(6, k, seed))).item()
            assert 0.0 <= val <= math.log(k) + 1e-9

    def test_marginal_term_zero_iff_uniform_marginal(self):
        # one-hot rows covering every class: marginal is exactly uniform
        onehot = _onehot(np.array([0, 1, 2, 3]), 4)
        assert marginal_entropy_term(Tensor(onehot)).item() == pytest.approx(0.0, abs=1e-9)
        skewed = _onehot(np.array([0, 0, 0, 1]), 4)
        assert marginal_entropy_term(Tensor(skewed)).item() > 1e-3

    def test_marginal_term_nonnegative(self):
        for seed in range(20):
            val = marginal_entropy_term(Tensor(_probs(8, 4, seed))).item()
            assert val >= -1e-12

    def test_marginal_term_matches_kl_oracle(self):
        probs = _probs(16, 5, seed=3)
        marginal = probs.mean(axis=0)
        want = np.sum(marginal * np.log(marginal * 5))
        got = marginal_entropy_term(Tensor(probs)).item()
        assert got == pytest.approx(want, rel=1e-9)


class TestConsistencyPenalty:
    def test_gibbs_inequality(self):
        # cross-entropy >= target entropy, equality iff distributions match
        for seed in range(50):
            target = _probs(4, 3, seed)
            pred = _probs(4, 3, seed + 1000)
            penalty = consistency_penalty(Tensor(target), Tensor(pred)).item()
            entropy = -np.mean(np.sum(target * np.log(target), axis=1))
            assert penalty >= entropy - 1e-9

    def test_equality_at_identical_views(self):
        probs = _probs(4, 3, 7)
        penalty = consistency_penalty(Tensor(probs), Tensor(probs)).item()
        entropy = -np.mean(np.sum(probs * np.log(probs), axis=1))
        assert penalty == pytest.approx(entropy, rel=1e-9)

    def test_target_gradient_blocked_by_default(self):
        target = Tensor(_probs(4, 3), requires_grad=True)
        pred = Tensor(_probs(4, 3, 1), requires_grad=True)
        consistency_penalty(target, pred).backward()
        assert target.grad is None
        assert pred.grad is not None

    def test_target_gradient_flows_when_unblocked(self):
        target = Tensor(_probs(4, 3), requires_grad=True)
        pred = Tensor(_probs(4, 3, 1), requires_grad=True)
        consistency_penalty(target, pred, block_target_grad=False).backward()
        assert target.grad is not None


class TestClusterLoss:
    def test_parts_reported(self):
        total, parts = cluster_loss(Tensor(_probs(6, 4)), Tensor(_probs(6, 4, 1)), lam=0.5)
        want = (parts["consistency"].item() + 0.5 * parts["kl_uniform"].item()
                + 0.5 * parts["cond_entropy"].item())
        assert total.item() == pytest.approx(want, rel=1e-9)

    def test_ideal_assignment_is_zero(self):
        # balanced one-hot, identical across views: every part vanishes
        onehot = _onehot(np.array([0, 1, 2, 3]), 4)
        total, _ = cluster_loss(Tensor(onehot), Tensor(onehot), lam=1.0)
        assert total.item() == pytest.approx(0.0, abs=1e-6)

    def test_all_uniform_value(self):
        k = 4
        uniform = np.full((8, k), 1.0 / k)
        total, _ = cluster_loss(Tensor(uniform), Tensor(uniform), lam=0.7)
        assert total.item() == pytest.approx((1 + 0.7) * math.log(k), abs=1e-6)

    def test_negative_weight_rejected(self):
        probs = Tensor(_probs(4, 3))
        with pytest.raises(LossInputError):
            cluster_loss(probs, probs, lam=-0.1)


class TestBootstrapLoss:
    def test_alpha_one_equals_noisy_cross_entropy(self):
        probs = _probs(8, 4)
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        onehot = _onehot(labels, 4)
        got = bootstrap_loss(Tensor(np.log(probs)), onehot, alpha=1.0).item()
        want = task_loss(Tensor(probs), onehot).item()
        assert got == pytest.approx(want, abs=1e-9)

    def test_alpha_zero_uses_argmax_pseudo_labels(self):
        probs = _probs(8, 4, seed=2)
        onehot = _onehot(np.zeros(8, dtype=int), 4)
        got = bootstrap_loss(Tensor(np.log(probs)), onehot, alpha=0.0).item()
        want = -np.mean(np.log(probs.max(axis=1)))
        assert got == pytest.approx(want, rel=1e-9)

    def test_alpha_blend(self):
        probs = _probs(8, 4, seed=3)
        onehot = _onehot(np.arange(8) % 4, 4)
        lo = bootstrap_loss(Tensor(np.log(probs)), onehot, alpha=0.0).item()
        hi = bootstrap_loss(Tensor(np.log(probs)), onehot, alpha=1.0).item()
        mid = bootstrap_loss(Tensor(np.log(probs)), onehot, alpha=0.4).item()
        assert mid == pytest.approx(0.4 * hi + 0.6 * lo, rel=1e-9)

    def test_no_gradient_through_pseudo_label_choice(self):
        # gradient exists, but the pseudo-label branch treats labels as data
        logits = Tensor(np.array([[2.0, 1.0, 0.0]]), requires_grad=True)
        log_pred = logits.log_softmax(axis=-1)
        bootstrap_loss(log_pred, _onehot(np.array([1]), 3), alpha=0.5).backward()
        assert logits.grad is not None
        assert np.all(np.isfinite(logits.grad))

    def test_alpha_out_of_range(self):
        probs = _probs(2, 3)
        with pytest.raises(LossInputError):
            bootstrap_loss(Tensor(np.log(probs)), _onehot(np.array([0, 1]), 3), alpha=1.5)

    def test_non_log_probs_rejected(self):
        with pytest.raises(LossInputError):
            bootstrap_loss(Tensor(_probs(2, 3)), _onehot(np.array([0, 1]), 3), alpha=0.5)


class TestTotalLoss:
    def test_sums_enabled_parts(self):
        terms = {
            "loss_bootstrap": Tensor(np.array(1.5)),
            "loss_rec": Tensor(np.array(0.25)),
            "loss_cluster": Tensor(np.array(0.5)),
        }
        assert total_loss(terms).item() == 2.25

    def test_disabled_parts_excluded(self):
        # a disabled term is never computed, so it is not in the dict
        term = Tensor(np.array(1.5))
        assert total_loss({"loss_bootstrap": term}) is term

    def test_left_fold_in_dict_order(self):
        # (a + b) + c and a + (b + c) round differently in float32
        a, b, c = (Tensor(np.array(v, dtype=np.float32)) for v in (1e8, -1e8, 1.0))
        assert total_loss({"x": a, "y": b, "z": c}).item() == 1.0
        assert total_loss({"y": b, "z": c, "x": a}).item() == 0.0

    def test_cluster_tuple_breakdown(self):
        # training writes the parts, in this order, to the last three loss
        # columns of metrics.csv
        _, sub = cluster_loss(Tensor(_probs(4, 3)), Tensor(_probs(4, 3, 1)), lam=0.3)
        assert list(sub) == ["consistency", "kl_uniform", "cond_entropy"]
        assert LOSS_COLUMNS[3:] == ["loss_cluster_R", "loss_cluster_KL", "loss_cluster_Hcx"]

    def test_cluster_term_gradient_flows(self):
        clean = Tensor(_probs(4, 3), requires_grad=True)
        total, _ = cluster_loss(clean, Tensor(_probs(4, 3, 1)), lam=0.3, block_target_grad=False)
        total_loss({"loss_rec": Tensor(np.array(0.25)), "loss_cluster": total}).backward()
        assert clean.grad is not None and np.all(np.isfinite(clean.grad))

