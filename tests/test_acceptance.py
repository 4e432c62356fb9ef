"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The desk-scale trend criteria (memorization gap, ablation ordering,
restoration learning) share one session-scoped 7-row x 3-seed grid of
60-epoch runs on 12x12 synthetic images with symmetric 60% label noise.
"""

import math

import numpy as np
import pytest

from noisylab import config as config_mod
from noisylab.augment import ALL_OPS, _apply_pipelines
from noisylab.autodiff import Tensor
from noisylab.data import NoiseSpec, empirical_transition_matrix, generate_blobs, inject_noise
from noisylab.export import load_run_models
from noisylab.losses import bootstrap_loss, cluster_loss, reconstruction_loss, total_loss
from noisylab.training import (
    ABLATION_ROWS,
    ablation_row_config,
    build_experiment,
    load_checkpoint,
    run_ablation,
    run_experiment,
    train_epoch,
)

from chains import conditional_entropy, consistency_penalty, grad_check, marginal_entropy_term, task_loss

DESK_SEEDS = (2, 5, 6)


def desk_config(seed):
    """The desk-scale experiment: 12x12 images, C=4, N=2000, eps=0.6, 60 epochs."""
    cfg = config_mod.default_config()
    cfg.update({
        "data.kind": "images",
        "data.samples": 2000,
        "data.classes": 4,
        "data.image_size": 12,
        "data.separation": 1.0,
        "noise.kind": "symmetric",
        "noise.epsilon": 0.6,
        "model.backbone": "mlp",
        "model.hidden": 256,
        "model.feature_dim": 64,
        "losses.lambda": 0.1,
        "losses.classification_view": "clean",
        "alpha.kind": "linear",
        "alpha.start_frac": 0.5,
        "alpha.end_frac": 1.0,
        "optim.milestones": [0.33, 0.66],
        "train.epochs": 60,
        "seeds.init": seed,
        "seeds.data": seed + 100,
        "seeds.augment": seed + 200,
    })
    return config_mod.validate(cfg)


def _small_config(seed=2, epochs=6):
    cfg = desk_config(seed)
    cfg.update({"data.samples": 256, "data.image_size": 8, "model.hidden": 32,
                "model.feature_dim": 16, "train.epochs": epochs})
    return config_mod.validate(cfg)


@pytest.fixture(scope="session")
def desk_grid(tmp_path_factory):
    """All 7 ablation rows for each desk seed; returns (root_dir, results)."""
    root = tmp_path_factory.mktemp("desk_grid")
    results = {}
    for seed in DESK_SEEDS:
        for row in run_ablation(desk_config(seed), root / f"seed{seed}"):
            assert row["status"] == "ok", f"{row['row']} seed={seed}: {row['status']}"
            results[(row["row"], seed)] = row
    return root, results


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_report(capfd):
    """Let _report write through pytest's capture so every criterion line
    reaches the terminal even on passing runs."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {name}: {status}" + (f" ({detail})" if detail else "")
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {num} failed: {name} {detail}"


def _rand_logits(rng, shape):
    return Tensor(rng.standard_normal(shape))


def _onehot(labels, k):
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(0)
    n, k = 5, 4
    labels = _onehot(rng.integers(0, k, n), k)
    x_target = rng.uniform(0, 1, (n, 6))

    fixed_raw = rng.uniform(0.1, 1.0, (n, k))
    fixed_probs = Tensor(fixed_raw / fixed_raw.sum(axis=1, keepdims=True))

    cases = {
        "task_loss": lambda t: task_loss(t.softmax(axis=-1), labels),
        "reconstruction_loss": lambda t: reconstruction_loss(t.sigmoid(), x_target),
        "conditional_entropy": lambda t: conditional_entropy(t.softmax(axis=-1)),
        "marginal_entropy_term": lambda t: marginal_entropy_term(t.softmax(axis=-1)),
        # gradient w.r.t. the augmented view (the clean target is detached)
        "consistency_penalty": lambda t: consistency_penalty(
            fixed_probs, t.softmax(axis=-1)),
        # gradient w.r.t. each view separately; the clean-view check disables
        # the target detach so the analytic and numeric sides measure the
        # same function
        "cluster_loss_clean_view": lambda t: cluster_loss(
            t.softmax(axis=-1), fixed_probs, lam=0.5, block_target_grad=False)[0],
        "cluster_loss_aug_view": lambda t: cluster_loss(
            fixed_probs, t.softmax(axis=-1), lam=0.5)[0],
        "bootstrap_alpha_0": lambda t: bootstrap_loss(t.log_softmax(axis=-1), labels, 0.0),
        "bootstrap_alpha_0.5": lambda t: bootstrap_loss(t.log_softmax(axis=-1), labels, 0.5),
        "bootstrap_alpha_1": lambda t: bootstrap_loss(t.log_softmax(axis=-1), labels, 1.0),
        "total_loss": lambda t: total_loss(
            {
                "loss_bootstrap": bootstrap_loss(t.log_softmax(axis=-1), labels, 0.5),
                "loss_cluster": cluster_loss(t.softmax(axis=-1), fixed_probs, lam=0.3,
                                             block_target_grad=False)[0],
            }
        ),
    }
    shapes = {"reconstruction_loss": (n, 6)}
    worst = {}
    for name, fn in cases.items():
        shape = shapes.get(name, (n, k))
        errs = [grad_check(fn, _rand_logits(rng, shape), step=1e-5) for _ in range(20)]
        worst[name] = max(errs)
    ok = all(err <= 1e-4 for err in worst.values())
    bad = {name: f"{err:.2e}" for name, err in worst.items() if err > 1e-4}
    _report(1, "gradient correctness", ok, f"max rel err {max(worst.values()):.2e}"
            + (f", failing: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# 2. Boundary equivalences
# ---------------------------------------------------------------------------

def test_criterion_2_boundary_equivalences(tmp_path):
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(50):
        logits = rng.standard_normal((6, 4))
        log_probs = Tensor(logits).log_softmax(axis=-1)
        probs = Tensor(logits).softmax(axis=-1)
        onehot = _onehot(rng.integers(0, 4, 6), 4)
        diff = abs(bootstrap_loss(log_probs, onehot, 1.0).item()
                   - task_loss(probs, onehot).item())
        ok = ok and diff <= 1e-9

    # "+A" with alpha pinned to 1 trains bit-identically to "CE"
    base = _small_config()
    ce_cfg = ablation_row_config(base, "CE")
    pinned = ablation_row_config(base, "+A")
    pinned["alpha.kind"], pinned["alpha.constant"] = "constant", 1.0
    run_experiment(ce_cfg, tmp_path / "ce")
    run_experiment(config_mod.validate(pinned), tmp_path / "pinned")
    strip = lambda p: [",".join(l.split(",")[:-1])
                       for l in (p / "metrics.csv").read_text().splitlines()]
    traj_equal = strip(tmp_path / "ce") == strip(tmp_path / "pinned")
    a, _ = load_checkpoint(tmp_path / "ce" / "checkpoints" / "last.ckpt")
    b, _ = load_checkpoint(tmp_path / "pinned" / "checkpoints" / "last.ckpt")
    params_equal = all(np.array_equal(a[name], b[name]) for name in a)
    _report(2, "boundary equivalences", ok and traj_equal and params_equal,
            f"alpha=1 matches task loss: {ok}, trajectories identical: {traj_equal and params_equal}")


# ---------------------------------------------------------------------------
# 3. Noise-model statistics
# ---------------------------------------------------------------------------

def test_criterion_3_noise_statistics():
    n, c = 100_000, 4
    ds = generate_blobs(n, c, 2, 1.0, seed=0)

    sym = inject_noise(ds, NoiseSpec("symmetric", 0.6, seed=1))
    m_sym, undef = empirical_transition_matrix(sym)
    sym_ok = not undef.any()
    for i in range(c):
        sym_ok = sym_ok and abs(m_sym[i, i] - 0.4) <= 0.01
        for j in range(c):
            if j != i:
                sym_ok = sym_ok and abs(m_sym[i, j] - 0.2) <= 0.01

    asym = inject_noise(ds, NoiseSpec("asymmetric", 0.3, seed=2))
    m_asym, undef = empirical_transition_matrix(asym)
    asym_ok = not undef.any()
    for i in range(c):
        asym_ok = asym_ok and abs(m_asym[i, (i + 1) % c] - 0.3) <= 0.01
        for j in range(c):
            if j not in (i, (i + 1) % c):
                asym_ok = asym_ok and m_asym[i, j] == 0.0
    _report(3, "noise-model statistics", sym_ok and asym_ok,
            f"symmetric: {sym_ok}, asymmetric: {asym_ok}")


# ---------------------------------------------------------------------------
# 4. Information-theoretic invariants
# ---------------------------------------------------------------------------

def _cluster_parts(target, pred):
    """The consistency, KL-to-uniform and conditional-entropy values the
    training loss node computes, which must obey the same bounds."""
    _, parts = cluster_loss(Tensor(target), Tensor(pred), lam=1.0)
    return {name: part.item() for name, part in parts.items()}


def test_criterion_4_information_invariants():
    rng = np.random.default_rng(2)
    k = 5

    # each value from the single-term loss and from cluster_loss's parts
    def cond_entropies(probs):
        return conditional_entropy(Tensor(probs)).item(), _cluster_parts(probs, probs)["cond_entropy"]

    def marginal_terms(probs):
        return marginal_entropy_term(Tensor(probs)).item(), _cluster_parts(probs, probs)["kl_uniform"]

    onehot = _onehot(np.arange(4) % k, k)
    uniform = np.full((4, k), 1.0 / k)
    cond_ok = (all(abs(v) <= 1e-9 for v in cond_entropies(onehot))
               and all(abs(v - math.log(k)) <= 1e-9 for v in cond_entropies(uniform)))
    for _ in range(200):
        raw = rng.uniform(0.01, 1, (6, k))
        probs = raw / raw.sum(axis=1, keepdims=True)
        cond_ok = cond_ok and all(-1e-9 <= v <= math.log(k) + 1e-9 for v in cond_entropies(probs))

    balanced = _onehot(np.arange(k), k)
    marg_ok = all(abs(v) <= 1e-9 for v in marginal_terms(balanced))
    marg_ok = marg_ok and all(abs(v) <= 1e-9 for v in marginal_terms(uniform))
    for _ in range(200):
        raw = rng.uniform(0.01, 1, (6, k))
        probs = raw / raw.sum(axis=1, keepdims=True)
        vals = marginal_terms(probs)
        marg_ok = marg_ok and all(v >= -1e-9 for v in vals)
        marginal = probs.mean(axis=0)
        if np.abs(marginal - 1.0 / k).max() > 1e-3:
            marg_ok = marg_ok and all(v > 1e-9 for v in vals)  # nonuniform marginal -> strictly positive

    gibbs_ok = True
    for _ in range(1000):
        raw_t = rng.uniform(0.01, 1, (3, k))
        raw_p = rng.uniform(0.01, 1, (3, k))
        target = raw_t / raw_t.sum(axis=1, keepdims=True)
        pred = raw_p / raw_p.sum(axis=1, keepdims=True)
        penalties = (consistency_penalty(Tensor(target), Tensor(pred)).item(),
                     _cluster_parts(target, pred)["consistency"])
        entropy = -np.mean(np.sum(target * np.log(target), axis=1))
        gibbs_ok = gibbs_ok and all(p >= entropy - 1e-9 for p in penalties)
    _report(4, "information-theoretic invariants", cond_ok and marg_ok and gibbs_ok,
            f"cond entropy: {cond_ok}, marginal term: {marg_ok}, Gibbs: {gibbs_ok}")


# ---------------------------------------------------------------------------
# 5. Cluster-loss optimum
# ---------------------------------------------------------------------------

def test_criterion_5_cluster_loss_optimum():
    k, lam = 4, 0.7
    ideal = _onehot(np.arange(8) % k, k)  # balanced, confident
    val_ideal, _ = cluster_loss(Tensor(ideal), Tensor(ideal), lam=lam)
    ideal_ok = abs(val_ideal.item()) <= 1e-6

    uniform = np.full((8, k), 1.0 / k)
    val_unif, _ = cluster_loss(Tensor(uniform), Tensor(uniform), lam=lam)
    unif_ok = abs(val_unif.item() - (1 + lam) * math.log(k)) <= 1e-6
    _report(5, "cluster-loss optimum", ideal_ok and unif_ok,
            f"ideal {val_ideal.item():.2e}, uniform {val_unif.item():.6f} "
            f"vs {(1 + lam) * math.log(k):.6f}")


# ---------------------------------------------------------------------------
# 6. Label-independence of L_rec and L_cluster
# ---------------------------------------------------------------------------

def test_criterion_6_label_independence():
    cfg = _small_config()
    exp = build_experiment(cfg)
    idx = exp.train_idx[:32]
    rng = np.random.default_rng(3)

    def parts_for():
        # forward pass identical to the training loop's B and C branches,
        # reading everything through the (possibly relabeled) dataset
        from noisylab.augment import augment_batch
        x_clean = exp.dataset.features[idx]
        x_aug = augment_batch(exp.policy, x_clean, cfg["seeds.augment"], 0, idx)
        feat_aug = exp.models.backbone(Tensor(x_aug))
        feat_clean = exp.models.backbone(Tensor(x_clean))
        rec = reconstruction_loss(exp.models.decoder(feat_aug), x_clean).item()
        clu = cluster_loss(exp.models.cluster_head(feat_clean),
                           exp.models.cluster_head(feat_aug),
                           cfg["losses.lambda"])[0].item()
        return rec, clu

    baseline = parts_for()
    original = exp.dataset.noisy_labels
    ok = True
    for _ in range(5):
        exp.dataset.noisy_labels = rng.permutation(original)
        ok = ok and parts_for() == baseline  # bit-identical floats
    exp.dataset.noisy_labels = original
    _report(6, "label-independence of restoration and cluster losses", ok)


# ---------------------------------------------------------------------------
# 7. Memorization-gap trend
# ---------------------------------------------------------------------------

def test_criterion_7_memorization_gap_trend(desk_grid):
    _, results = desk_grid
    ce_gaps = {s: results[("CE", s)]["gap"] for s in DESK_SEEDS}
    full_gaps = {s: results[("+A+B+C", s)]["gap"] for s in DESK_SEEDS}
    ce_ok = all(g > 0 for g in ce_gaps.values())
    smaller = sum(full_gaps[s] < ce_gaps[s] for s in DESK_SEEDS)
    _report(7, "memorization-gap trend", ce_ok and smaller >= 2,
            f"CE gaps {[round(ce_gaps[s], 3) for s in DESK_SEEDS]}, "
            f"full gaps {[round(full_gaps[s], 3) for s in DESK_SEEDS]}, "
            f"smaller in {smaller}/3 seeds")


# ---------------------------------------------------------------------------
# 8. Ablation trend
# ---------------------------------------------------------------------------

def test_criterion_8_ablation_trend(desk_grid):
    _, results = desk_grid
    ce_mean = np.mean([results[("CE", s)]["last_acc"] for s in DESK_SEEDS])
    full_mean = np.mean([results[("+A+B+C", s)]["last_acc"] for s in DESK_SEEDS])
    margin_ok = full_mean >= ce_mean + 0.10
    single_ok = True
    wins = {}
    for row in ("+A", "+B", "+C"):
        wins[row] = sum(results[("+A+B+C", s)]["last_acc"] >= results[(row, s)]["last_acc"]
                        for s in DESK_SEEDS)
        single_ok = single_ok and wins[row] >= 2
    _report(8, "ablation trend", margin_ok and single_ok,
            f"full {full_mean:.3f} vs CE {ce_mean:.3f} (margin {full_mean - ce_mean:+.3f}), "
            f"beats singles in {wins} seeds")


# ---------------------------------------------------------------------------
# 9. Restoration learning
# ---------------------------------------------------------------------------

def test_criterion_9_restoration_learning(tmp_path):
    # Dedicated run with higher-contrast images and a longer high-lr phase:
    # at the grid's separation most pixel variance is irreducible noise, so
    # reconstruction MSE starts near its floor and cannot halve.
    cfg = desk_config(DESK_SEEDS[0])
    cfg.update({"data.samples": 1000, "data.separation": 4.0,
                "optim.milestones": [0.9, 0.95], "train.epochs": 150})
    run_dir = tmp_path / "restoration"
    run_experiment(config_mod.validate(cfg), run_dir)

    def recon_mse(checkpoint):
        exp, _ = load_run_models(run_dir, checkpoint)
        val = exp.dataset.features[exp.val_idx][:128]
        # one cutout per image at side fraction 0.5, seeded 1000 + row
        n = len(val)
        cut = _apply_pipelines(np.full((1, n), ALL_OPS.index("cutout")), (1000 + np.arange(n))[None],
                               np.full((1, n), 0.5), val)
        masks = cut != val
        recon = exp.models.decoder(exp.models.backbone(Tensor(cut))).data
        full_mse = float(np.mean((recon - val) ** 2))
        masked_mse = float(np.mean((recon[masks] - val[masks]) ** 2))
        return full_mse, masked_mse

    init_full, init_masked = recon_mse("init")
    last_full, last_masked = recon_mse("last")
    rel_drop = 1.0 - last_full / init_full
    masked_ok = last_masked < init_masked
    _report(9, "restoration learning", rel_drop >= 0.5 and masked_ok,
            f"held-out MSE {init_full:.4f} -> {last_full:.4f} ({rel_drop:.0%} drop), "
            f"cutout-region MSE {init_masked:.4f} -> {last_masked:.4f}")


# ---------------------------------------------------------------------------
# 10. Determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    cfg = _small_config(epochs=4)
    strip = lambda p: [",".join(l.split(",")[:-1])
                       for l in (p / "metrics.csv").read_text().splitlines()]

    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    repeat_ok = strip(tmp_path / "a") == strip(tmp_path / "b")

    run_experiment(cfg, tmp_path / "resumed", stop_after=2)
    run_experiment({}, tmp_path / "resumed", resume=True)
    resume_metrics_ok = strip(tmp_path / "a") == strip(tmp_path / "resumed")
    a, _ = load_checkpoint(tmp_path / "a" / "checkpoints" / "last.ckpt")
    r, _ = load_checkpoint(tmp_path / "resumed" / "checkpoints" / "last.ckpt")
    resume_params_ok = all(np.array_equal(a[name], r[name]) for name in a)
    _report(10, "determinism and persistence",
            repeat_ok and resume_metrics_ok and resume_params_ok,
            f"repeat runs identical: {repeat_ok}, resume bit-exact: "
            f"{resume_metrics_ok and resume_params_ok}")
