import contextlib
import csv
import errno
import fcntl
import hashlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from noisylab import config as config_mod
from noisylab import data as data_mod
from noisylab import models as models_mod
from noisylab import training as training_mod
from noisylab.augment import ALL_OPS, augment_batch
from noisylab.autodiff import Tensor, no_grad
from noisylab.export import load_run_models
from noisylab.losses import LossInputError
from noisylab.models import ModelSet
from noisylab.training import (
    ABLATION_ROWS,
    CheckpointError,
    DivergenceError,
    METRICS_COLUMNS,
    RunLockError,
    SgdOptimizer,
    ablation_row_config,
    build_dataset,
    alpha_at,
    build_experiment,
    format_ablation_table,
    load_checkpoint,
    lr_at,
    predict_classes,
    run_ablation,
    run_experiment,
    save_checkpoint,
    split_indices,
    train_epoch,
)

import chains as ch


def tiny_config(**overrides):
    cfg = config_mod.default_config()
    cfg.update({
        "data.samples": 64,
        "data.image_size": 8,
        "data.separation": 2.0,
        "model.hidden": 16,
        "model.feature_dim": 8,
        "train.epochs": 3,
        "train.batch_size": 32,
    })
    cfg.update(overrides)
    return config_mod.validate(cfg)


def _flat_params(**shapes):
    """Parameters of ones laid out in one flat buffer, as ModelSet lays them."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    flat = np.ones(sum(sizes), np.float32)
    ends = np.cumsum(sizes)
    params = {name: Tensor(flat[end - size : end].reshape(shape), requires_grad=True)
              for (name, shape), size, end in zip(shapes.items(), sizes, ends)}
    return params, flat


class TestOptimizer:
    def test_matches_manual_sgd_with_momentum(self):
        flat = np.array([1.0, -2.0], dtype=np.float64)
        p = Tensor(flat, requires_grad=True)
        p.grad = np.array([0.5, 0.5])
        opt = SgdOptimizer({"p": p}, flat, momentum=0.9, weight_decay=0.01)
        w0 = p.data.copy()
        v = 0.9 * 0.0 + p.grad + 0.01 * w0
        expect = w0 - 0.1 * v
        opt.step(0.1)
        np.testing.assert_allclose(p.data, expect)
        # second step accumulates momentum
        p.grad = np.array([0.1, 0.1])
        v2 = 0.9 * v + p.grad + 0.01 * p.data
        expect2 = p.data - 0.1 * v2
        opt.step(0.1)
        np.testing.assert_allclose(p.data, expect2)

    def test_none_grad_treated_as_zero(self):
        params, flat = _flat_params(p=(2,))
        opt = SgdOptimizer(params, flat, momentum=0.0, weight_decay=0.0)
        opt.step(0.1)
        np.testing.assert_allclose(params["p"].data, 1.0)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            SgdOptimizer(*_flat_params(p=(2,)), 0.9, 1e-4).step(-0.1)

    def test_steps_the_parameters_in_place(self):
        params, flat = _flat_params(a=(2, 3), b=(4,))
        views = {name: p.data for name, p in params.items()}
        opt = SgdOptimizer(params, flat, 0.9, 1e-4)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        opt.step(0.1)
        assert all(params[name].data is view for name, view in views.items())
        assert np.all(flat < 1.0)

    @pytest.mark.parametrize("bad", ["a", "c"])
    def test_nan_gradient_names_parameter_and_changes_nothing(self, bad):
        params, flat = _flat_params(a=(2, 3), b=(4,), c=(3, 2))
        opt = SgdOptimizer(params, flat, 0.9, 1e-4)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        params[bad].grad[-1, -1] = np.nan
        with pytest.raises(DivergenceError, match=f"'{bad}'"):
            opt.step(0.1)
        for name, p in params.items():
            assert np.all(p.data == 1.0) and np.all(opt.velocities[name] == 0.0)


def _small_models():
    """A small MLP model set and its optimizer."""
    ms = ModelSet((8, 8), 4, 4, feature_dim=8, hidden=16, backbone_kind="mlp", init_seed=3)
    return ms, SgdOptimizer(ms.parameters(), ms.flat, 0.9, 1e-4)


def _batch_loss(ms, seed):
    x = Tensor(np.random.default_rng(seed).uniform(0, 1, (6, 8, 8)).astype(np.float32))
    feats = ms.backbone(x)
    return (ch.mul(ch.sum(ms.classifier.log_probs(feats)), -0.25)
            + ch.mean(ch.square(ch.sub(ms.decoder(feats), x))) + ch.sum(ch.square(ms.cluster_head(feats))))


class TestGradients:
    """Backward sets or adds to each parameter's ``grad``; a step copies
    the gradients into the optimizer's flat buffer and consumes them."""

    def test_hand_set_gradient_is_stepped(self):
        params, flat = _flat_params(a=(2, 3), b=(4,))
        opt = SgdOptimizer(params, flat, momentum=0.0, weight_decay=0.0)
        (ch.sum(params["a"]) + ch.sum(params["b"])).backward()  # ones
        params["b"].grad = np.full(4, 2.0, np.float32)  # set by hand
        opt.step(0.5)
        assert np.all(params["a"].data == 0.5) and np.all(params["b"].data == 0.0)

    def test_unreached_parameter_counts_as_zero_every_step(self):
        flats = []
        for by_hand in (False, True):
            params, flat = _flat_params(a=(2,), b=(3,))
            opt = SgdOptimizer(params, flat, momentum=0.5, weight_decay=0.1)
            for _ in range(3):
                params["a"].grad = np.ones(2, np.float32)
                if by_hand:
                    params["b"].grad = np.zeros(3, np.float32)
                opt.step(0.2)
            flats.append(flat.tobytes())
        assert flats[0] == flats[1]

    def test_step_consumes_the_gradients(self):
        """The rule: a step sets every ``grad`` to None, so the next
        backward gives the gradients of a model set no step touched."""
        ms, opt = _small_models()
        ref, _ = _small_models()
        for seed in range(3):
            _batch_loss(ms, seed).backward()
            _batch_loss(ref, seed).backward()
            for (name, p), q in zip(ms.parameters().items(), ref.parameters().values()):
                assert p.grad.tobytes() == q.grad.tobytes(), name
            opt.step(0.1)
            assert all(p.grad is None for p in ms.parameters().values())
            ref.flat[...] = ms.flat
            for p in ref.parameters().values():
                p.grad = None

    def test_second_backward_adds(self):
        ms, _ = _small_models()
        params = ms.parameters()
        single = []
        for seed in (1, 2):
            _batch_loss(ms, seed).backward()
            single.append({name: p.grad for name, p in params.items()})
            for p in params.values():
                p.grad = None
        _batch_loss(ms, 1).backward()
        _batch_loss(ms, 2).backward()
        for name, p in params.items():
            assert p.grad.tobytes() == (single[0][name] + single[1][name]).tobytes(), name

    def test_infinite_gradient_is_not_nan(self):
        params, flat = _flat_params(a=(2, 3), b=(4,))
        opt = SgdOptimizer(params, flat, 0.9, 1e-4)
        params["a"].grad = np.full((2, 3), np.inf, np.float32)
        params["a"].grad[0, 0] = -np.inf
        params["b"].grad = np.zeros(4, np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt.step(0.1)
        assert np.isinf(params["a"].data).all() and np.all(np.isfinite(params["b"].data))

    def test_nan_from_backward_raises_and_changes_nothing(self):
        ms, opt = _small_models()
        x = Tensor(np.full((2, 8, 8), np.nan, np.float32))
        ch.sum(ms.classifier.logits(ms.backbone(x))).backward()
        flat = ms.flat.copy()
        with pytest.raises(DivergenceError, match="'backbone.w1'"):
            opt.step(0.1)
        assert ms.flat.tobytes() == flat.tobytes()
        assert not any(v.any() for v in opt.velocities.values())


class TestLrSchedule:
    def test_piecewise_decay(self):
        cfg = tiny_config(**{"train.epochs": 60})  # optim.lr 0.1, milestones 0.5, 0.75, ratio 0.1
        assert lr_at(cfg, 0) == pytest.approx(0.1)
        assert lr_at(cfg, 29) == pytest.approx(0.1)
        assert lr_at(cfg, 30) == pytest.approx(0.01)
        assert lr_at(cfg, 45) == pytest.approx(0.001)
        assert lr_at(cfg, 59) == pytest.approx(0.001)

    def test_no_milestones(self):
        assert lr_at(tiny_config(**{"train.epochs": 60, "optim.lr": 0.05, "optim.milestones": []}), 59) == 0.05


def _alpha_config(kind, start_frac=0.1, end_frac=0.9, epochs=60, **extra):
    return tiny_config(**{"alpha.kind": kind, "alpha.start_frac": start_frac,
                          "alpha.end_frac": end_frac, "train.epochs": epochs, **extra})


class TestAlphaSchedule:
    def test_linear_endpoints_and_monotone(self):
        # the default window of 60 epochs runs from epoch 6 to epoch 54
        values = [alpha_at(_alpha_config("linear"), e) for e in range(60)]
        assert values[0] == 1.0 and values[6] == 1.0 and values[7] < 1.0
        assert values[53] > 0.0 and values[54] == 0.0 and values[59] == 0.0
        assert values[30] == pytest.approx(0.5)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_cosine_midpoint(self):
        assert alpha_at(_alpha_config("cosine", 0.0, 2 / 3), 20) == pytest.approx(0.5)

    def test_step_halves(self):
        cfg = _alpha_config("step", 1 / 6, 0.5)  # epochs 10 to 30
        assert alpha_at(cfg, 19) == 1.0
        assert alpha_at(cfg, 21) == 0.0

    def test_constant(self):
        cfg = _alpha_config("constant", **{"alpha.constant": 0.8})
        assert all(alpha_at(cfg, e) == 0.8 for e in range(60))

    def test_window_is_one_epoch_at_least(self):
        # both fractions of 2 epochs round to epoch 0
        cfg = _alpha_config("linear", 0.1, 0.2, epochs=2)
        assert [alpha_at(cfg, e) for e in range(2)] == [1.0, 0.0]

    @pytest.mark.parametrize("epoch", [-1, 60])
    def test_epoch_outside_run_rejected(self, epoch):
        with pytest.raises(ValueError, match="outside"):
            alpha_at(_alpha_config("constant"), epoch)


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        arrays = {
            "w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.array([1.5], dtype=np.float64),
            "i": np.array([3, 4], dtype=np.int32),
        }
        path = tmp_path / "x.ckpt"
        save_checkpoint([path], arrays, "a" * 64, epoch=5, best_acc=0.75, best_epoch=2)
        out, meta = load_checkpoint(path)
        assert meta == {"config_hash": "a" * 64, "epoch": 5, "best_acc": 0.75, "best_epoch": 2}
        for name, arr in arrays.items():
            np.testing.assert_array_equal(out[name], arr)
            assert out[name].dtype == arr.dtype

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"JUNKJUNK" + bytes(100))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NL")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint([path], {"w": np.zeros(3, np.float32)}, "a" * 64, 1, 0.5, 0)
        path.write_bytes(path.read_bytes() + bytes(400))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_v1_checkpoint_rejected(self, tmp_path):
        # version-1 header: magic, u16 version, 64-byte hash, epoch,
        # best_acc, best_epoch, then a u32 array count
        path = tmp_path / "x.ckpt"
        path.write_bytes(struct.pack("<4sH64sidiI", b"NLCK", 1, b"a" * 64, 1, 0.5, 0, 0))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_dataset_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "ds.bin"
        data_mod.save_dataset(build_dataset(tiny_config()), path)
        with pytest.raises(CheckpointError, match="config_hash"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def stopped_run(tmp_path_factory):
    """A tiny run stopped after the first of its three epochs."""
    run = tmp_path_factory.mktemp("stopped") / "run"
    run_experiment(tiny_config(), run, stop_after=1)
    return run


class NoDraws(np.random.Generator):
    """A Generator that refuses the uniform draws of a parameter init."""

    def uniform(self, *args, **kwargs):
        raise AssertionError("drew an init")


# Builds a stopped run's experiment from its files, cuts both files to 0
# bytes in place, trains one more epoch and prints the parameters and
# velocities. The checkpoint's arrays stay referenced throughout.
TRAIN_AFTER_TRUNCATE = """
import os, sys
from pathlib import Path
from noisylab import config
from noisylab.data import load_dataset
from noisylab.training import build_experiment, load_checkpoint, train_epoch
run = Path(sys.argv[1])
arrays, meta = load_checkpoint(run / "checkpoints" / "last.ckpt")
exp = build_experiment(config.load(run / "config.txt"), load_dataset(run / "dataset.bin"), arrays)
for name in ("checkpoints/last.ckpt", "dataset.bin"):
    os.truncate(run / name, 0)
train_epoch(exp, meta["epoch"])
sys.stdout.buffer.write(exp.models.flat.tobytes())
for v in exp.optimizer.velocities.values():
    sys.stdout.buffer.write(v.tobytes())
"""


class TestCheckpointLoad:
    """build_experiment with a checkpoint's arrays, the one load path of
    resume and export."""

    def test_step_after_checkpoint_load_moves_model_parameters(self):
        cfg = tiny_config()
        donor = build_experiment(cfg)
        train_epoch(donor, 0)
        state = {name: a.copy() for name, a in training_mod._ckpt_state(donor).items()}
        exp = build_experiment(cfg, checkpoint=state)
        for name, p in exp.models.parameters().items():
            assert np.array_equal(p.data, state[name])
            assert np.array_equal(exp.optimizer.velocities[name], state[f"velocity.{name}"])
        train_epoch(exp, 1)
        train_epoch(donor, 1)
        for name, p in exp.models.parameters().items():
            assert np.array_equal(p.data, donor.models.parameters()[name].data)
        assert any(not np.array_equal(p.data, state[name]) for name, p in exp.models.parameters().items())

    def test_built_experiment_outlives_its_files(self, stopped_run, tmp_path):
        """The readers copy what they keep out of the files' maps: once the
        experiment is built, cutting both files to 0 bytes (a SIGBUS for
        any later read of the maps) changes nothing in the next epoch."""
        run = tmp_path / "run"
        shutil.copytree(stopped_run, run)
        env = {**os.environ, "PYTHONPATH": str(Path(config_mod.__file__).parents[1])}
        child = subprocess.run([sys.executable, "-c", TRAIN_AFTER_TRUNCATE, str(run)], env=env,
                               capture_output=True, timeout=120)
        assert child.returncode == 0, child.stderr.decode()
        assert (run / "dataset.bin").stat().st_size == (run / "checkpoints" / "last.ckpt").stat().st_size == 0
        arrays, meta = load_checkpoint(stopped_run / "checkpoints" / "last.ckpt")
        twin = build_experiment(tiny_config(), data_mod.load_dataset(stopped_run / "dataset.bin"), arrays)
        train_epoch(twin, meta["epoch"])
        assert child.stdout == b"".join([twin.models.flat.tobytes(),
                                         *(v.tobytes() for v in twin.optimizer.velocities.values())])

    def test_resume_and_export_draw_no_init(self, stopped_run, tmp_path, monkeypatch):
        run = tmp_path / "run"
        shutil.copytree(stopped_run, run)
        monkeypatch.setattr(np.random, "Generator", NoDraws)
        with pytest.raises(AssertionError, match="drew an init"):
            build_experiment(tiny_config())
        for name in ("last", "best"):
            load_run_models(run, name)
        assert run_experiment({}, run, resume=True)["finished"]
        load_run_models(run, "last")

    @pytest.mark.parametrize("extra,digest", [
        ({}, "8947cb81df56d9ef08ced37b3cf5fc435af5a4b24acf5ab95ae267a152102716"),
        ({"model.backbone": "conv"}, "6b95a3b0bacc9354edccd8d22b70537d861eebb14146b62d83714f36ab377c6c"),
    ], ids=["mlp", "conv"])
    def test_init_parameters_golden(self, tmp_path, extra, digest):
        # pins the init draw order and its float64 -> float32 cast
        run_experiment(tiny_config(**extra), tmp_path / "run", stop_after=0)
        arrays, _ = load_checkpoint(tmp_path / "run" / "checkpoints" / "init.ckpt")
        sha = hashlib.sha256()
        for name in sorted(arrays):
            if not name.startswith("velocity."):
                sha.update(arrays[name].tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("name,value", [
        ("bogus", np.zeros(3, np.float32)),
        ("classifier.w", None),
        ("velocity.backbone.w1", None),
        ("classifier.w", np.zeros((2, 2), np.float32)),
        ("velocity.cluster.b", np.zeros(5, np.float32)),
        ("velocity.classifier.b", np.zeros(4, np.float64)),
    ], ids=["extra", "missing", "missing-velocity", "shape", "velocity-shape", "velocity-dtype"])
    def test_mismatched_checkpoint_rejected(self, stopped_run, tmp_path, name, value):
        run = tmp_path / "run"
        shutil.copytree(stopped_run, run)
        ckpt = run / "checkpoints" / "last.ckpt"
        arrays, meta = load_checkpoint(ckpt)
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
        save_checkpoint([ckpt], arrays, **meta)
        for stop_after in (None, 0):
            with pytest.raises(CheckpointError, match=name):
                run_experiment({}, run, resume=True, stop_after=stop_after)
        with pytest.raises(CheckpointError, match=name):
            load_run_models(run, "last")


class TestWiring:
    def test_build_dataset_applies_noise(self):
        ds = build_dataset(tiny_config())
        assert ds.corrupted.any()
        frac = ds.corrupted.mean()
        assert 0.4 < frac < 0.8  # eps=0.6

    def test_noise_none_is_clean(self):
        ds = build_dataset(tiny_config(**{"noise.kind": "none"}))
        assert not ds.corrupted.any()

    def test_split_disjoint_and_complete(self):
        cfg = tiny_config()
        train_idx, val_idx = split_indices(cfg, 64)
        assert len(set(train_idx) & set(val_idx)) == 0
        assert len(train_idx) + len(val_idx) == 64
        assert len(val_idx) == 16  # val_fraction 0.25

    def test_split_without_training_sample_rejected(self):
        cfg = tiny_config(**{"data.val_fraction": 0.9})
        assert [len(part) for part in split_indices(cfg, 6)] == [1, 5]
        with pytest.raises(config_mod.ConfigError, match="data.val_fraction.*data.samples"):
            split_indices(cfg, 4)

    def test_experiment_cluster_default(self):
        exp = build_experiment(tiny_config())
        assert exp.models.cluster_head.num_outputs == 4  # model.clusters=0 -> class count

    def test_train_epoch_metrics_finite(self):
        exp = build_experiment(tiny_config())
        rec = train_epoch(exp, 0)
        assert rec.epoch == 0
        assert np.isfinite(rec.loss_total)
        assert 0.0 <= rec.val_acc_clean <= 1.0
        assert 0.0 <= rec.corrupted_subset_acc <= 1.0

    @pytest.mark.parametrize("row,view,reads_aug", [
        ("CE", "clean", False),
        ("+A", "clean", False),
        ("+A", "augmented", True),
        ("+B", "clean", True),
        ("+C", "clean", True),
    ])
    def test_augmented_view_only_when_a_loss_reads_it(self, monkeypatch, row, view, reads_aug):
        class Augmented(Exception):
            pass

        def augment_batch(*args):
            raise Augmented

        monkeypatch.setattr(training_mod, "augment_batch", augment_batch)
        exp = build_experiment(ablation_row_config(tiny_config(**{"losses.classification_view": view}), row))
        if reads_aug:
            with pytest.raises(Augmented):
                train_epoch(exp, 0)
        else:
            assert np.isfinite(train_epoch(exp, 0).loss_total)

    @pytest.mark.parametrize("extra", [
        {"augment.ops": list(ALL_OPS), "augment.num_ops": 3, "data.image_size": 12},
        {"model.backbone": "conv", "data.image_size": 12},
    ], ids=["all-ops", "conv"])
    def test_epoch_augmented_in_one_call(self, monkeypatch, extra):
        calls = []

        def recording(*args):
            calls.append((args, augment_batch(*args)))
            return calls[-1][1]

        monkeypatch.setattr(training_mod, "augment_batch", recording)
        cfg = ablation_row_config(tiny_config(**{"data.samples": 90, **extra}), "+A+B+C")
        exp = build_experiment(cfg)
        train_epoch(exp, 1)
        ((policy, features, seed, epoch, order), whole), = calls
        size = cfg["train.batch_size"]
        assert len(order) == len(exp.train_idx) and len(order) % size != 0  # a partial last batch
        np.testing.assert_array_equal(features, exp.dataset.features[order])
        per_batch = [augment_batch(policy, exp.dataset.features[order[lo : lo + size]], seed, epoch,
                                   order[lo : lo + size])
                     for lo in range(0, len(order), size)]
        assert whole.tobytes() == np.concatenate(per_batch).tobytes()

    def test_one_batch_graph_alive_at_a_time(self, monkeypatch):
        """When a batch's first backbone forward starts, no conv output of
        an earlier batch is alive: each backward freed its batch's graph."""
        cfg = ablation_row_config(tiny_config(**{"data.samples": 90, "model.backbone": "conv",
                                                 "data.image_size": 12}), "+A+B+C")
        exp = build_experiment(cfg)
        outputs, alive, steps = [], [], []
        conv2d, backbone, step = models_mod.conv2d, exp.models.backbone, exp.optimizer.step

        def recording_conv2d(*args, **kwargs):
            out = conv2d(*args, **kwargs)
            outputs.append(weakref.ref(out.data))
            return out

        def checking_backbone(x):
            if len(alive) < len(steps):  # the first forward after a step
                alive.append(sum(r() is not None for r in outputs))
            return backbone(x)

        def counting_step(lr):
            step(lr)
            steps.append(lr)

        monkeypatch.setattr(models_mod, "conv2d", recording_conv2d)
        monkeypatch.setattr(exp.models, "backbone", checking_backbone)
        monkeypatch.setattr(exp.optimizer, "step", counting_step)
        training_mod._train_pass(exp, 0, 0.1, 0.5)
        # a batch: three convs in each of two backbone views, one in the decoder
        assert len(steps) == 3 and len(outputs) == 3 * (2 * 3 + 1)
        assert alive == [0, 0]

    @pytest.mark.parametrize("row", [name for name, *_ in ABLATION_ROWS] + ["B+C"])
    def test_metrics_loss_columns_follow_enabled_terms(self, tmp_path, row):
        base = tiny_config(**{"train.epochs": 2, "losses.lambda": 0.5})
        cfg = config_mod.validate({**base, "losses.A": False}) if row == "B+C" else ablation_row_config(base, row)
        run_experiment(cfg, tmp_path / "run")
        with open(tmp_path / "run" / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        enabled = {"loss_bootstrap": cfg["losses.A"], "loss_rec": cfg["losses.B"],
                   "loss_cluster_R": cfg["losses.C"], "loss_cluster_KL": cfg["losses.C"],
                   "loss_cluster_Hcx": cfg["losses.C"]}
        for r in rows:
            for col, on in enabled.items():
                assert (r[col] != "0.0") == on, (col, r[col])
            v = {col: float(r[col]) for col in ("loss_total", *enabled)}
            want = (v["loss_bootstrap"] + v["loss_rec"] + v["loss_cluster_R"]
                    + cfg["losses.lambda"] * (v["loss_cluster_KL"] + v["loss_cluster_Hcx"]))
            assert v["loss_total"] == pytest.approx(want, rel=1e-5)

    def test_train_epoch_deterministic(self):
        cfg = tiny_config()
        rec_a = train_epoch(build_experiment(cfg), 0)
        rec_b = train_epoch(build_experiment(cfg), 0)
        assert rec_a.loss_total == rec_b.loss_total
        assert rec_a.val_acc_clean == rec_b.val_acc_clean

    @pytest.mark.parametrize("backbone", ["mlp", "conv"])
    def test_eval_rows_do_not_depend_on_their_batch(self, backbone):
        # train_epoch predicts the whole dataset once and reads each split
        # by index; that is exact only if a row's logits do not depend on
        # the other rows of its forward pass. 300 rows span two eval chunks.
        exp = build_experiment(tiny_config(**{"data.samples": 300, "model.backbone": backbone}))
        for epoch in range(2):
            train_epoch(exp, epoch)
        models, features = exp.models, exp.dataset.features
        with no_grad():
            logits = models.classifier.logits(models.backbone(Tensor(features))).data
        preds = predict_classes(models, features)
        for idx in (exp.train_idx, exp.val_idx, np.arange(len(features))[::-1]):
            assert preds[idx].tobytes() == predict_classes(models, features[idx]).tobytes()
            with no_grad():
                own = models.classifier.logits(models.backbone(Tensor(features[idx]))).data
            assert logits[idx].tobytes() == own.tobytes()

    def test_epoch_predicts_every_sample_once(self, monkeypatch):
        exp = build_experiment(tiny_config())
        calls = []

        def recording(models, features):
            calls.append(features)
            return predict_classes(models, features)

        monkeypatch.setattr(training_mod, "predict_classes", recording)
        rec = train_epoch(exp, 0)
        assert len(calls) == 1 and calls[0] is exp.dataset.features
        preds = predict_classes(exp.models, exp.dataset.features)
        val = exp.val_idx
        assert rec.val_acc_clean == np.mean(preds[val] == exp.dataset.clean_labels[val])


def _assert_same_checkpoints(run, twin):
    for name in ("init", "best", "last"):
        a, meta_a = load_checkpoint(run / "checkpoints" / f"{name}.ckpt")
        b, meta_b = load_checkpoint(twin / "checkpoints" / f"{name}.ckpt")
        assert meta_a == meta_b and list(a) == list(b)
        assert all(a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes() for k in b)


class FailingPayload:
    """A file whose first array write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 3:  # header, JSON block, first array
            raise OSError("no space left on device")
        return self.fh.write(data)


def _fail_second_last_ckpt_write(monkeypatch):
    """Make the second write of ``last.ckpt`` fail at its first array."""
    opened = []

    def failing_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if str(path).endswith("last.ckpt.tmp"):
            opened.append(path)
            if len(opened) == 2:
                return FailingPayload(fh)
        return fh

    monkeypatch.setattr(data_mod, "open", failing_open, raising=False)


@contextlib.contextmanager
def _held_lock(path, content):
    """Hold an exclusive flock on ``path`` through an open() of its own,
    which conflicts with any other open() of the file, in this process too."""
    with open(path, "w") as fh:
        fh.write(content)
        fh.flush()
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield


class TestRunExperiment:
    def test_run_dir_layout(self, tmp_path):
        cfg = tiny_config()
        summary = run_experiment(cfg, tmp_path / "run")
        run = tmp_path / "run"
        for name in ("config.txt", "dataset.bin", "metrics.csv", "summary.json"):
            assert (run / name).exists()
        for name in ("init.ckpt", "best.ckpt", "last.ckpt"):
            assert (run / "checkpoints" / name).exists()
        assert (run / ".lock").read_bytes() == b""
        lines = (run / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + cfg["train.epochs"]
        on_disk = json.loads((run / "summary.json").read_text())
        assert on_disk["best_acc"] == summary["best_acc"]
        assert on_disk["finished"] is True

    def test_lock_blocks_second_run(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        with _held_lock(run / ".lock", str(os.getpid())):
            with pytest.raises(RunLockError):
                run_experiment(tiny_config(), run)
            assert not (run / "config.txt").exists()

    @pytest.mark.parametrize("content", ["", "not a pid", "0"])
    def test_unreadable_lock_blocks(self, tmp_path, content):
        # what a held lock's file says does not matter
        run = tmp_path / "run"
        run.mkdir()
        with _held_lock(run / ".lock", content):
            with pytest.raises(RunLockError):
                run_experiment(tiny_config(), run)
            assert (run / ".lock").read_text() == content

    @pytest.mark.parametrize("content", ["", "not a pid", "0", str(os.getpid())],
                             ids=["empty", "text", "zero", "own-pid"])
    def test_unheld_lock_file_does_not_block(self, tmp_path, content):
        # a crash leaves .lock behind, but the kernel released its lock
        run = tmp_path / "run"
        run.mkdir()
        (run / ".lock").write_text(content)
        assert run_experiment(tiny_config(), run)["finished"]
        assert (run / ".lock").read_bytes() == b""

    def test_lock_file_names_holder_only(self, tmp_path):
        (tmp_path / ".lock").write_text("9" * 12)  # longer than any PID here
        with training_mod._RunLock(tmp_path):
            assert (tmp_path / ".lock").read_text() == str(os.getpid())

    def test_lock_of_dead_process_taken_over(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its PID names no process now
        run = tmp_path / "run"
        run.mkdir()
        (run / ".lock").write_text(str(child.pid))
        assert run_experiment(tiny_config(), run)["finished"]
        assert (run / ".lock").read_bytes() == b""

    def test_lock_release_keeps_the_file(self, tmp_path):
        # every holder locks the same inode: release empties .lock and
        # never unlinks it
        path = tmp_path / ".lock"
        with training_mod._RunLock(tmp_path):
            before = os.stat(path)
        after = os.stat(path)
        assert (after.st_ino, after.st_size) == (before.st_ino, 0)
        assert not after.st_mode & 0o111  # a data file, not an executable
        with training_mod._RunLock(tmp_path) as lock:
            assert os.fstat(lock.fd).st_ino == before.st_ino

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = tiny_config(**{"train.epochs": 4})
        run_experiment(cfg, tmp_path / "full")
        run_experiment(cfg, tmp_path / "halves", stop_after=2)
        run_experiment({}, tmp_path / "halves", resume=True)
        full = (tmp_path / "full" / "metrics.csv").read_text().splitlines()
        halves = (tmp_path / "halves" / "metrics.csv").read_text().splitlines()
        # all columns except wall-clock seconds must agree exactly
        strip = lambda lines: [",".join(l.split(",")[:-1]) for l in lines]
        assert strip(full) == strip(halves)
        a, _ = load_checkpoint(tmp_path / "full" / "checkpoints" / "last.ckpt")
        b, _ = load_checkpoint(tmp_path / "halves" / "checkpoints" / "last.ckpt")
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_resume_before_first_epoch_starts_from_init(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, tmp_path / "full")
        run_experiment(cfg, tmp_path / "run", stop_after=0)
        assert not (tmp_path / "run" / "checkpoints" / "last.ckpt").exists()
        run_experiment({}, tmp_path / "run", resume=True)
        _assert_same_checkpoints(tmp_path / "run", tmp_path / "full")
        # all columns except wall-clock seconds must agree exactly
        strip = lambda path: [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        assert strip(tmp_path / "run" / "metrics.csv") == strip(tmp_path / "full" / "metrics.csv")

    def test_failed_checkpoint_write_keeps_previous(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        run = tmp_path / "run"
        _fail_second_last_ckpt_write(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            run_experiment(cfg, run)
        monkeypatch.undo()
        ckpt_dir = run / "checkpoints"
        assert not (ckpt_dir / "last.ckpt.tmp").exists() and (run / ".lock").read_bytes() == b""
        assert load_checkpoint(ckpt_dir / "last.ckpt")[1]["epoch"] == 1

        run_experiment({}, run, resume=True)
        run_experiment(cfg, tmp_path / "full")
        _assert_same_checkpoints(run, tmp_path / "full")

    def test_crash_before_checkpoint_leaves_no_duplicate_row(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        run = tmp_path / "run"
        _fail_second_last_ckpt_write(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            run_experiment(cfg, run)
        monkeypatch.undo()
        assert len((run / "metrics.csv").read_text().splitlines()) == 1 + 2  # epoch 1 row, no checkpoint

        run_experiment({}, run, resume=True)
        run_experiment(cfg, tmp_path / "full")
        # all columns except wall-clock seconds must agree exactly
        strip = lambda path: [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        rows = strip(run / "metrics.csv")
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2"]
        assert rows == strip(tmp_path / "full" / "metrics.csv")

    def test_resume_cuts_torn_last_row(self, tmp_path):
        # a crash while appending epoch 2's row leaves part of it, with no
        # newline, after the row of the last checkpointed epoch
        cfg = tiny_config()
        run = tmp_path / "run"
        run_experiment(cfg, run, stop_after=2)
        with open(run / "metrics.csv", "ab") as fh:
            fh.write(b"2,0.6132,0.58")
        run_experiment({}, run, resume=True)
        run_experiment(cfg, tmp_path / "full")
        # all columns except wall-clock seconds must agree exactly
        strip = lambda path: [line.rsplit(b",", 1)[0] for line in path.read_bytes().split(b"\n")]
        rows = strip(run / "metrics.csv")
        assert [row.split(b",")[0] for row in rows[1:-1]] == [b"0", b"1", b"2"]
        assert rows == strip(tmp_path / "full" / "metrics.csv")
        _assert_same_checkpoints(run, tmp_path / "full")
        assert (run / "summary.json").read_bytes() == (tmp_path / "full" / "summary.json").read_bytes()

    def test_ordinary_resume_leaves_metrics_untouched(self, tmp_path):
        run = tmp_path / "run"
        run_experiment(tiny_config(), run, stop_after=2)
        before = os.stat(run / "metrics.csv")
        run_experiment({}, run, resume=True, stop_after=0)
        after = os.stat(run / "metrics.csv")
        assert (after.st_mtime_ns, after.st_size) == (before.st_mtime_ns, before.st_size)

    def test_resume_rebuilds_missing_summary(self, tmp_path):
        run = tmp_path / "run"
        summary = run_experiment(tiny_config(), run)
        written = (run / "summary.json").read_bytes()
        (run / "summary.json").unlink()
        assert run_experiment({}, run, resume=True) == summary
        assert (run / "summary.json").read_bytes() == written
        assert summary["last_acc"] is not None and summary["gap"] is not None
        assert not (run / "summary.json.tmp").exists()

    @pytest.mark.parametrize("damage", [None, b"{bad", b"[]", b""], ids=["intact", "torn", "list", "empty"])
    def test_resume_of_finished_run_rebuilds_summary(self, tmp_path, monkeypatch, damage):
        run = tmp_path / "run"
        summary = run_experiment(tiny_config(), run)
        path = run / "summary.json"
        written = path.read_bytes()
        if damage is not None:
            path.write_bytes(damage)
        before = os.stat(path)

        def unused(*args, **kwargs):
            raise AssertionError("a finished run needs no dataset or experiment")

        monkeypatch.setattr(training_mod, "load_dataset", unused)
        monkeypatch.setattr(training_mod, "build_experiment", unused)
        assert run_experiment({}, run, resume=True) == summary
        assert path.read_bytes() == written
        # an intact summary.json is left as it was, not rewritten
        assert (os.stat(path).st_ino == before.st_ino) == (damage is None)

    def test_resume_rejects_missing_metrics_rows(self, tmp_path):
        run = tmp_path / "run"
        run_experiment(tiny_config(), run, stop_after=2)
        lines = (run / "metrics.csv").read_text().splitlines(keepends=True)
        (run / "metrics.csv").write_text("".join(lines[:2]))
        with pytest.raises(CheckpointError, match="1 rows for 2 finished epochs"):
            run_experiment({}, run, resume=True)

    def test_resume_rejects_metrics_rows_out_of_order(self, tmp_path):
        run = tmp_path / "run"
        run_experiment(tiny_config(), run)
        path = run / "metrics.csv"
        header, *rows = path.read_bytes().splitlines(keepends=True)
        rows = [rows[1], rows[0], b"7" + rows[2][1:]]  # epochs 1, 0, 7
        path.write_bytes(header + b"".join(rows))
        (run / "summary.json").unlink()
        with pytest.raises(CheckpointError, match="row 1 is not epoch 0"):
            run_experiment({}, run, resume=True)
        assert path.read_bytes() == header + b"".join(rows)
        assert not (run / "summary.json").exists()

    @pytest.mark.parametrize("writer", ["save_dataset", "_write_metrics_header", "save_checkpoint"])
    def test_crash_in_set_up_leaves_directory_reusable(self, tmp_path, monkeypatch, writer):
        def crash(*args):
            raise OSError("crashed")

        cfg = tiny_config()
        monkeypatch.setattr(training_mod, writer, crash)
        with pytest.raises(OSError, match="crashed"):
            run_experiment(cfg, tmp_path / "run")
        monkeypatch.undo()
        assert not (tmp_path / "run" / "config.txt").exists()
        run_experiment(cfg, tmp_path / "run")
        run_experiment(cfg, tmp_path / "full")
        _assert_same_checkpoints(tmp_path / "run", tmp_path / "full")

    def test_improving_epoch_writes_best_and_last_alike(self, tmp_path):
        run = tmp_path / "run"
        run_experiment(tiny_config(), run, stop_after=1)  # the first epoch always improves
        ckpt_dir = run / "checkpoints"
        assert (ckpt_dir / "best.ckpt").read_bytes() == (ckpt_dir / "last.ckpt").read_bytes()
        assert not list(ckpt_dir.glob("*.tmp"))

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        cfg = tiny_config(**{"train.epochs": 2})
        run_experiment(cfg, tmp_path / "run", stop_after=1)
        other = tiny_config(**{"train.epochs": 2, "seeds.init": 42})
        config_mod.dump(other, tmp_path / "run" / "config.txt")
        with pytest.raises(CheckpointError):
            run_experiment({}, tmp_path / "run", resume=True)

    @pytest.mark.parametrize("epochs,batch_size,lr,match", [
        (1, 64, 1e39, "backbone.w1 is not finite after epoch 0"),
        (2, 64, 1e39, "backbone.w1 is not finite after epoch 0"),
        (1, 16, 1e39, "backbone.w1 is not finite in epoch 0"),
        (2, 16, 1e39, "backbone.w1 is not finite in epoch 0"),
        (1, 16, 1e20, "the forward pass overflowed in epoch 0"),
        (2, 16, 1e20, "the forward pass overflowed in epoch 0"),
    ], ids=["1", "2", "mid-epoch-inf-1", "mid-epoch-inf-2", "mid-epoch-finite-1", "mid-epoch-finite-2"])
    def test_overflowing_step_writes_no_checkpoint(self, tmp_path, epochs, batch_size, lr, match):
        # One batch per epoch: its loss is finite, but the step leaves inf
        # and NaN parameters, which no later batch in the epoch sees. Four
        # batches: a step leaves parameters that are inf, or finite but so
        # large that the next batch's forward overflows; that batch's loss
        # sees NaN probabilities before the guard sees a loss.
        run = tmp_path / "run"
        cfg = tiny_config(**{"train.epochs": epochs, "train.batch_size": batch_size, "optim.lr": lr})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError, match=match):
            run_experiment(cfg, run)
        assert [p.name for p in (run / "checkpoints").iterdir()] == ["init.ckpt"]
        assert (run / "metrics.csv").read_text() == ",".join(METRICS_COLUMNS) + "\n"

    def test_loss_input_error_of_finite_model_is_not_divergence(self):
        # a NaN sample makes NaN probabilities with finite parameters
        exp = build_experiment(tiny_config(**{"train.batch_size": 16}))
        exp.dataset.features[exp.train_idx[40]] = np.nan
        with pytest.raises(LossInputError):
            train_epoch(exp, 0)

    @pytest.mark.parametrize("change,message", [
        ({"data.samples": 48}, "samples 48, expected 64"),
        ({"data.classes": 3}, "classes 3, expected 4"),
        ({"data.image_size": 6}, r"input shape \(6, 6\), expected \(8, 8\)"),
    ], ids=["samples", "classes", "shape"])
    def test_resume_rejects_dataset_that_does_not_fit_config(self, tmp_path, change, message):
        run = tmp_path / "run"
        run_experiment(tiny_config(**{"model.backbone": "conv"}), run, stop_after=1)
        data_mod.save_dataset(build_dataset(tiny_config(**change)), run / "dataset.bin")
        before = {p.name: p.read_bytes() for p in run.iterdir() if p.is_file()}
        with pytest.raises(data_mod.DatasetFileError, match=f"dataset does not fit the config: {message}"):
            run_experiment({}, run, resume=True)
        with pytest.raises(data_mod.DatasetFileError, match=message):
            load_run_models(run, "last")
        assert {p.name: p.read_bytes() for p in run.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize("row,message", [
        (b"0,garbage,nan\n", "row 1 has 3 fields, expected 13"),
        (None, "row 1 holds a field that is not a number"),
    ], ids=["fields", "number"])
    def test_resume_rejects_malformed_metrics_rows(self, tmp_path, row, message):
        run = tmp_path / "run"
        run_experiment(tiny_config(), run)
        path = run / "metrics.csv"
        header, *rows = path.read_bytes().splitlines(keepends=True)
        epoch, _, *rest = rows[0].split(b",")
        rows[0] = row or b",".join([epoch, b"garbage", *rest])  # its lr replaced, 13 fields
        path.write_bytes(header + b"".join(rows))
        (run / "summary.json").unlink()
        with pytest.raises(CheckpointError, match=message):
            run_experiment({}, run, resume=True)
        assert path.read_bytes() == header + b"".join(rows)
        assert not (run / "summary.json").exists()

    @pytest.mark.parametrize("value", [b"nan", b"inf", b"1e999"], ids=["nan", "inf", "overflow"])
    def test_resume_rejects_non_finite_last_metrics_row(self, tmp_path, value):
        run = tmp_path / "run"
        run_experiment(tiny_config(), run)
        path = run / "metrics.csv"
        header, *rows = path.read_bytes().splitlines(keepends=True)
        fields = rows[-1].split(b",")
        fields[METRICS_COLUMNS.index("val_acc_clean")] = value
        rows[-1] = b",".join(fields)
        # a row past the checkpoint's epoch, which a resume would cut
        path.write_bytes(header + b"".join(rows) + b"3" + rows[-1][1:])
        before = {name: (run / name).read_bytes() for name in ("metrics.csv", "summary.json")}
        with pytest.raises(CheckpointError, match="row 3 holds a number that is not finite"):
            run_experiment({}, run, resume=True)
        assert {name: (run / name).read_bytes() for name in before} == before


class TestAblation:
    def test_row_configs(self):
        base = tiny_config()
        ce = ablation_row_config(base, "CE")
        assert ce["losses.A"] and not ce["losses.B"] and not ce["losses.C"]
        assert ce["alpha.kind"] == "constant" and ce["alpha.constant"] == 1.0
        full = ablation_row_config(base, "+A+B+C")
        assert full["losses.B"] and full["losses.C"]
        assert full["alpha.kind"] == base["alpha.kind"]
        plus_b = ablation_row_config(base, "+B")
        assert plus_b["losses.B"] and plus_b["alpha.kind"] == "constant"

    def test_unknown_row_rejected(self):
        with pytest.raises(ValueError):
            ablation_row_config(tiny_config(), "+D")

    def test_grid_runs_and_reports(self, tmp_path):
        cfg = tiny_config(**{"train.epochs": 2})
        results = run_ablation(cfg, tmp_path / "grid")
        assert [r["row"] for r in results] == [name for name, *_ in ABLATION_ROWS]
        assert all(r["status"] == "ok" for r in results)
        table = format_ablation_table(results)
        assert "+A+B+C" in table
        csv_lines = (tmp_path / "grid" / "ablation.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 8

    def test_failed_csv_write_keeps_previous_file(self, tmp_path, monkeypatch):
        grid = tmp_path / "grid"
        grid.mkdir()
        (grid / "ablation.csv").write_bytes(b"previous\n")

        class DiskFull(io.FileIO):
            def write(self, data):
                super().write(bytes(data[: len(data) // 2]))
                raise OSError(errno.ENOSPC, "No space left on device")

        def csv_disk_full(path, mode):
            return (DiskFull if str(path).endswith(".csv.tmp") else io.FileIO)(path, mode.replace("b", ""))

        monkeypatch.setattr(data_mod, "open", csv_disk_full, raising=False)
        with pytest.raises(OSError, match="No space"):
            run_ablation(tiny_config(**{"train.epochs": 1}), grid)
        assert (grid / "ablation.csv").read_bytes() == b"previous\n"
        assert not list(grid.glob("*.tmp"))
