import dataclasses
import math

import numpy as np
import pytest

from noisylab import config as config_mod
from noisylab import training
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
from noisylab.training import LOSS_COLUMNS, ablation_row_config, build_experiment, train_epoch


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


@pytest.mark.parametrize("loss", ["task_loss", "cluster_loss", "bootstrap_loss"])
def test_nan_rows_rejected(loss):
    # abs(nan - 1) > tol is False, so a row check must ask for <= tol instead
    nan = Tensor(np.full((2, 3), np.nan))
    onehot = _onehot(np.array([0, 1]), 3)
    with pytest.raises(LossInputError):
        {"task_loss": lambda: task_loss(nan, onehot),
         "cluster_loss": lambda: cluster_loss(nan, nan, lam=1.0),
         "bootstrap_loss": lambda: bootstrap_loss(nan, onehot, alpha=0.5)}[loss]()


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


# ---------------------------------------------------------------------------
# Each training loss is one autodiff node that replays a chain of single
# ops. The chains are kept here as the reference: every value, part and
# gradient of a node must equal theirs byte for byte. The pins hold on
# every numpy the CI runs, whose scalar type promotion differs.
# ---------------------------------------------------------------------------

def chain_bootstrap_loss(log_pred, noisy_onehot, alpha):
    onehot = noisy_onehot.data if isinstance(noisy_onehot, Tensor) else np.asarray(noisy_onehot)
    noisy_ce = -(Tensor(onehot) * log_pred).sum(axis=-1).mean()
    if alpha == 1.0:
        return noisy_ce
    pseudo = np.zeros_like(onehot)
    pseudo[np.arange(len(pseudo)), log_pred.data.argmax(axis=-1)] = 1.0
    self_ce = -(Tensor(pseudo) * log_pred).sum(axis=-1).mean()
    if alpha == 0.0:
        return self_ce
    return alpha * noisy_ce + (1.0 - alpha) * self_ce


def chain_reconstruction_loss(x_hat, x):
    target = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=x_hat.dtype))
    return (x_hat - target).square().mean()


def chain_cluster_loss(clean_probs, aug_probs, lam, block_target_grad=True):
    consistency = consistency_penalty(clean_probs, aug_probs, block_target_grad)
    kl_uniform = marginal_entropy_term(clean_probs)
    cond_ent = conditional_entropy(clean_probs)
    total = consistency + lam * kl_uniform + lam * cond_ent
    return total, {"consistency": consistency, "kl_uniform": kl_uniform, "cond_entropy": cond_ent}


def _assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _loss_inputs(dtype, seed, n=12, k=4):
    """Cluster probabilities of both views with exact 0 and 1 entries, so the
    clamp masks act; log-probabilities; float32 one-hot labels, as training
    builds them; reconstructions and their targets."""
    rng = np.random.default_rng(seed)
    views = []
    for exact in ([1, 0, 0, 0], [0, 0, 0, 1]):
        raw = rng.uniform(0, 1, (n, k)) ** 3
        raw[0], raw[1] = exact, [0, 0.5, 0.5, 0]
        views.append((raw / raw.sum(axis=1, keepdims=True)).astype(dtype))
    logits = rng.standard_normal((n, k)) * 3
    log_pred = (logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))).astype(dtype)
    onehot = np.eye(k, dtype=np.float32)[rng.integers(0, k, n)]
    x_hat = rng.uniform(0, 1, (n, 3, 3)).astype(dtype)
    return (*views, log_pred, onehot, x_hat, rng.uniform(0, 1, (n, 3, 3)))


def _losses_and_grads(impl, inputs, alpha, lam, block, target_grad):
    """Every loss value and part, then the gradient of every input, after a
    backward from 0.37 times the three losses' sum."""
    boot, rec, clus = impl
    clean, aug, log_pred, onehot, x_hat, x = inputs
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (clean, aug, log_pred, x_hat)]
    target = Tensor(x.copy(), requires_grad=True) if target_grad else x
    b = boot(leaves[2], onehot, alpha)
    r = rec(leaves[3], target)
    c, parts = clus(leaves[0], leaves[1], lam, block)
    (total_loss({"b": b, "r": r, "c": c}) * 0.37).backward()
    grads = [t.grad for t in leaves] + ([target.grad] if target_grad else [])
    return [b.data, r.data, c.data, *(p.data for p in parts.values()), *grads]


NODES = (bootstrap_loss, reconstruction_loss, cluster_loss)
CHAINS = (chain_bootstrap_loss, chain_reconstruction_loss, chain_cluster_loss)


class TestLossNodesMatchChains:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.0, 0.35, 0.5, 1.0])
    @pytest.mark.parametrize("block", [True, False])
    def test_values_and_gradients(self, dtype, alpha, block):
        for seed in range(6):
            inputs = _loss_inputs(dtype, seed)
            lam, target_grad = (0.0, 0.7, 1.0)[seed % 3], seed % 2 == 1
            got = _losses_and_grads(NODES, inputs, alpha, lam, block, target_grad)
            want = _losses_and_grads(CHAINS, inputs, alpha, lam, block, target_grad)
            for g, w in zip(got, want, strict=True):
                _assert_same_bytes(g, w)

    def test_one_node_each(self):
        clean, aug, log_pred, onehot, x_hat, x = _loss_inputs(np.float32, 0)
        clean, aug, log_pred, x_hat = (Tensor(a, requires_grad=True) for a in (clean, aug, log_pred, x_hat))
        nodes = [bootstrap_loss(log_pred, onehot, 0.5), reconstruction_loss(x_hat, x),
                 cluster_loss(clean, aug, 0.7)[0]]
        assert [(t.op, len(t._parents)) for t in nodes] == [
            ("bootstrap_loss", 1), ("reconstruction_loss", 2), ("cluster_loss", 2)]
        assert all(p.op == "leaf" for t in nodes for p in t._parents)

    def test_no_gradient_for_operands_that_need_none(self):
        clean, aug, *_ = _loss_inputs(np.float32, 1)
        total, _ = cluster_loss(Tensor(clean, requires_grad=True), Tensor(aug), 0.7)
        (parent, _), = total._backward(np.ones((), np.float32))
        assert parent.data is clean


def _trained(cfg, epochs=2):
    exp = build_experiment(cfg)
    records = [dataclasses.asdict(train_epoch(exp, epoch)) for epoch in range(epochs)]
    for record in records:
        del record["seconds"]
    return exp, records


@pytest.mark.parametrize("backbone", ["mlp", "conv"])
@pytest.mark.parametrize("row", ["CE", "+A+B+C"])
def test_training_matches_chains(monkeypatch, backbone, row):
    """Two epochs of a small desk run, the first at alpha 1 and the second
    at alpha 0.5, give the parameters, velocities and metrics rows of the
    same run on the chains."""
    cfg = config_mod.default_config()
    cfg.update({"data.samples": 160, "model.backbone": backbone, "model.hidden": 16,
                "model.feature_dim": 8, "losses.lambda": 0.1, "losses.classification_view": "clean",
                "train.epochs": 2})
    cfg = ablation_row_config(config_mod.validate(cfg), row)
    exp, records = _trained(cfg)
    for name, chain in zip(("bootstrap_loss", "reconstruction_loss", "cluster_loss"), CHAINS):
        monkeypatch.setattr(training, name, chain)
    ref, ref_records = _trained(cfg)
    _assert_same_bytes(exp.models.flat, ref.models.flat)
    for name, v in exp.optimizer.velocities.items():
        _assert_same_bytes(v, ref.optimizer.velocities[name])
    assert [{k: repr(v) for k, v in r.items()} for r in records] == \
        [{k: repr(v) for k, v in r.items()} for r in ref_records]
