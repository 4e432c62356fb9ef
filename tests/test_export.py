"""embeddings.csv, byte for byte against the per-row '%' loop it replaced."""

import io
from types import SimpleNamespace

import numpy as np
import pytest

from noisylab import export
from noisylab.cli import EXIT_OK, main
from noisylab.data import LabeledDataset, replacing
from noisylab.export import export_embeddings_csv, load_run_models

TINY = {
    "data.samples": "64",
    "data.image_size": "8",
    "data.separation": "2.0",
    "model.hidden": "16",
    "model.feature_dim": "8",
    "train.epochs": "2",
    "train.batch_size": "32",
}


def reference_embeddings_csv(exp, path) -> int:
    """The writer as it was: one Python '%' per row."""
    ds = exp.dataset
    emb, cluster = export.compute_embeddings(exp.models, ds.features)
    dim = emb.shape[1]
    tail = np.stack([ds.noisy_labels, ds.clean_labels, cluster, ds.corrupted], axis=1)
    row = "%d" + ",%.9g" * dim + ",%d,%d,%d,%d\r\n"
    with replacing(path) as raw, io.TextIOWrapper(raw, encoding="ascii", newline="") as fh:
        fh.write(",".join(["index"] + [f"f{i}" for i in range(dim)]
                          + ["noisy_label", "clean_label", "cluster", "corrupted"]) + "\r\n")
        for i, (feats, labels) in enumerate(zip(emb, tail)):
            fh.write(row % (i, *feats.tolist(), *labels.tolist()))
    return len(ds)


def _both(exp, tmp_path):
    """The new and the reference file for one experiment."""
    assert export_embeddings_csv(exp, tmp_path / "new.csv") == reference_embeddings_csv(exp, tmp_path / "ref.csv")
    return (tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("backbone", ["mlp", "conv"])
def test_trained_run_matches_reference(tmp_path, backbone):
    run = tmp_path / "run"
    overrides = {**TINY, "model.backbone": backbone}
    argv = ["train", "--out-dir", str(run)]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    assert main(argv) == EXIT_OK
    for checkpoint in ("best", "last"):
        exp, _ = load_run_models(run, checkpoint)
        new, ref = _both(exp, tmp_path)
        assert new == ref
        assert new.count(b"\r\n") == 65


def _table_experiment(monkeypatch, emb, seed=0):
    """An experiment whose embeddings are ``emb``, with random labels."""
    rng = np.random.default_rng(seed)
    n = len(emb)
    clean = rng.integers(0, 12, n).astype(np.int32)
    noisy = np.where(rng.random(n) < 0.4, rng.integers(0, 12, n), clean).astype(np.int32)
    ds = LabeledDataset(features=np.zeros((n, 1), np.float32), clean_labels=clean,
                        noisy_labels=noisy, corrupted=clean != noisy, num_classes=12)
    cluster = rng.integers(0, 1000, n)
    monkeypatch.setattr(export, "compute_embeddings", lambda models, features: (emb, cluster))
    return SimpleNamespace(dataset=ds, models=None)


def _edge_values():
    decades = np.array([10.0 ** k for k in range(-6, 11)], np.float32)
    up = np.nextafter(decades, np.float32(np.inf))
    down = np.nextafter(decades, np.float32(0))
    special = np.array([0.0, np.inf, np.nan, 2.0**-13, 999999999.0, 1e-4, 9.9999e-5, 1e9, 3.4028235e38,
                        1e-45, 1.1754942e-38, 1.17549435e-38, 0.5, 1.0, 123456789.0, 0.1, 0.30000001],
                       np.float32)
    values = np.concatenate([decades, up, down, special])
    return np.concatenate([values, -values])


def test_synthetic_table_matches_reference(tmp_path, monkeypatch):
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**32, 200_000, dtype=np.uint64).astype(np.uint32)
    # values spread evenly over the decades '%g' prints in fixed notation
    fixed = (10.0 ** rng.uniform(-4.5, 9.5, 50_000) * rng.choice([-1, 1], 50_000)).astype(np.float32)
    values = np.concatenate([bits.view(np.float32), fixed, _edge_values()])
    emb = np.resize(values, (len(values) // 32 + 1, 32))  # a wrapped tail repeats some values
    new, ref = _both(_table_experiment(monkeypatch, emb), tmp_path)
    assert new == ref


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_exponent_estimate_may_be_off_by_one(tmp_path, monkeypatch, shift):
    # the writer estimates each decimal exponent with log10, which may round
    # a power of ten below its exponent on some platforms
    rng = np.random.default_rng(7)
    emb = (10.0 ** rng.uniform(-4.5, 9.5, (500, 8))).astype(np.float32)
    emb = np.concatenate([emb, _edge_values().reshape(-1, 8)])
    exp = _table_experiment(monkeypatch, emb)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    new, ref = _both(exp, tmp_path)
    assert new == ref


@pytest.mark.parametrize("value, text", [
    (2.0**-13, b"0.000122070312"),  # 0.0001220703125, a tie rounded to even
    (999999999.0, b"1e+09"),  # float32 rounds it to 1e9
    (-0.0, b"-0"),
    (0.0, b"0"),
    (float("nan"), b"nan"),
    (float("-inf"), b"-inf"),
    (1e-45, b"1.40129846e-45"),  # the smallest subnormal
    (0.5, b"0.5"),
    (120.0, b"120"),
    (1e-4, b"9.99999975e-05"),  # float32(1e-4) lies below 1e-4
    (123456789.0, b"123456792"),
])
def test_feature_text(tmp_path, monkeypatch, value, text):
    emb = np.array([[value, 1.0]], np.float32)
    export_embeddings_csv(_table_experiment(monkeypatch, emb), tmp_path / "one.csv")
    assert (tmp_path / "one.csv").read_bytes().split(b"\r\n")[1].split(b",")[1] == text


@pytest.mark.parametrize("rows", [1, 64, 256, 257, 2000])
def test_row_counts_match_reference(tmp_path, monkeypatch, rows):
    rng = np.random.default_rng(rows)
    # like ReLU features: most are -0.0
    emb = rng.standard_normal((rows, 16)).astype(np.float32)
    emb = np.where(emb > 0.8, emb, np.float32(-0.0))
    new, ref = _both(_table_experiment(monkeypatch, emb, seed=rows), tmp_path)
    assert new == ref
    assert new.count(b"\r\n") == rows + 1
