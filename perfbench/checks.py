"""Output checks. Each compares the program's output with an independent
computation (a plain-numpy forward, a recount) or with a property the
method must have; none compares with a stored copy of earlier output.

Every check returns a list of problems; an empty list means it passed.
The program's readers (config, dataset and checkpoint files) are used to
load inputs; the computations checked are redone here in float64.
"""

import csv
import json
from pathlib import Path

import numpy as np

from noisylab import config
from noisylab.data import load_dataset
from noisylab.export import load_run_models
from noisylab.training import load_checkpoint, predict_classes, split_indices

# Float32 rounding, relative: the program computes in float32 and these
# checks in float64. Two logits this close are a tie that either argmax may
# break either way, and features this close are equal.
TIE = 1e-4
GALLERY_ROWS = 8
GALLERY_GUTTER = 2


def _relu(x):
    return np.maximum(x, 0.0)


def _params(run, name):
    arrays, meta = load_checkpoint(Path(run) / "checkpoints" / f"{name}.ckpt")
    return {k: v.astype(np.float64) for k, v in arrays.items()}, meta


def _mlp_features(p, x):
    h = _relu(x.reshape(len(x), -1) @ p["backbone.w1"] + p["backbone.b1"])
    return _relu(h @ p["backbone.w2"] + p["backbone.b2"])


def _conv3x3(x, w, b):
    """Stride-1, padding-1 convolution. x: (N, C, H, W), w: (O, C, 3, 3)."""
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    return np.einsum("nchwij,ocij->nohw", windows, w) + b[None, :, None, None]


def _pool2(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def _conv_features(p, x):
    out = []
    for lo in range(0, len(x), 100):
        h = x[lo : lo + 100, None].astype(np.float64)
        h = _pool2(_relu(_conv3x3(h, p["backbone.cw1"], p["backbone.cb1"])))
        h = _pool2(_relu(_conv3x3(h, p["backbone.cw2"], p["backbone.cb2"])))
        h = _relu(_conv3x3(h, p["backbone.cw3"], p["backbone.cb3"]))
        out.append(_relu(h.reshape(len(h), -1) @ p["backbone.fw"] + p["backbone.fb"]))
    return np.concatenate(out)


def _logits(p, feats, head):
    return feats @ p[f"{head}.w"] + p[f"{head}.b"]


def _ties(logits):
    top = np.sort(logits, axis=1)[:, -2:]
    return (top[:, 1] - top[:, 0]) <= TIE * np.maximum(1.0, np.abs(top[:, 1]))


def _metrics_rows(run):
    with open(Path(run) / "metrics.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _val_split(run):
    cfg = config.load(Path(run) / "config.txt")
    ds = load_dataset(Path(run) / "dataset.bin")
    _, val_idx = split_indices(cfg, len(ds))
    return ds, val_idx


def run_dir(run, epochs):
    """A finished run: one metrics row per epoch in order, and a summary
    that agrees with those rows."""
    rows = _metrics_rows(run)
    summary = json.loads((Path(run) / "summary.json").read_text())
    if [int(r["epoch"]) for r in rows] != list(range(epochs)):
        return [f"{run}: metrics.csv epochs are not 0..{epochs - 1}"]
    val = [float(r["val_acc_clean"]) for r in rows]
    best = max(val)
    expected = {
        "finished": True,
        "epochs_completed": epochs,
        "best_acc": best,
        "best_epoch": val.index(best),
        "last_acc": val[-1],
        "gap": best - val[-1],
        "last_corrupted_subset_acc": float(rows[-1]["corrupted_subset_acc"]),
    }
    wrong = {k: (summary.get(k), v) for k, v in expected.items() if summary.get(k) != v}
    return [f"{run}: summary.json disagrees with metrics.csv on {wrong}"] if wrong else []


def mlp_best_accuracy(run):
    """A plain-numpy MLP forward from best.ckpt reproduces the best clean
    validation accuracy in summary.json."""
    p, meta = _params(run, "best")
    ds, val_idx = _val_split(run)
    logits = _logits(p, _mlp_features(p, ds.features[val_idx].astype(np.float64)), "classifier")
    right = int(np.sum(logits.argmax(axis=1) == ds.clean_labels[val_idx]))
    summary = json.loads((Path(run) / "summary.json").read_text())
    reported = round(summary["best_acc"] * len(val_idx))
    problems = []
    if abs(right - reported) > int(_ties(logits).sum()):
        problems.append(f"{run}: numpy forward of best.ckpt gets {right}/{len(val_idx)} right, "
                        f"summary.json says {reported}")
    if meta["best_acc"] != summary["best_acc"]:
        problems.append(f"{run}: best.ckpt records best_acc {meta['best_acc']}, "
                        f"summary.json {summary['best_acc']}")
    return problems


def conv_last_predictions(run):
    """A numpy conv/pool forward from last.ckpt agrees with the program's
    predictions, except on float32 ties."""
    p, _ = _params(run, "last")
    ds, val_idx = _val_split(run)
    x = ds.features[val_idx]
    logits = _logits(p, _conv_features(p, x), "classifier")
    exp, _ = load_run_models(run, "last")
    program = predict_classes(exp.models, x)
    differ = int(np.sum((logits.argmax(axis=1) != program) & ~_ties(logits)))
    return [f"{run}: numpy conv forward disagrees with the program on {differ} samples"] if differ else []


def beats_majority(run, lead):
    """The best clean validation accuracy is well above always guessing
    the most common validation class."""
    ds, val_idx = _val_split(run)
    majority = np.bincount(ds.clean_labels[val_idx]).max() / len(val_idx)
    best = max(float(r["val_acc_clean"]) for r in _metrics_rows(run))
    if best < majority + lead:
        return [f"{run}: best accuracy {best:.3f} is not {lead} above the majority share {majority:.3f}"]
    return []


def embeddings(run, checkpoint):
    """embeddings.csv holds the backbone features and cluster assignment of
    every sample, as a numpy forward from the checkpoint computes them."""
    p, _ = _params(run, checkpoint)
    ds = load_dataset(Path(run) / "dataset.bin")
    table = np.loadtxt(Path(run) / "embeddings.csv", delimiter=",", skiprows=1)
    feats = _mlp_features(p, ds.features.astype(np.float64))
    dim = feats.shape[1]
    problems = []
    if table.shape != (len(ds), dim + 5):
        return [f"{run}: embeddings.csv has shape {table.shape}, expected {(len(ds), dim + 5)}"]
    if not np.array_equal(table[:, 0], np.arange(len(ds))):
        problems.append(f"{run}: embeddings.csv index column is not 0..{len(ds) - 1}")
    if not np.allclose(table[:, 1 : dim + 1], feats, rtol=TIE, atol=TIE):
        worst = float(np.abs(table[:, 1 : dim + 1] - feats).max())
        problems.append(f"{run}: embedding features differ from a numpy forward by up to {worst:.3g}")
    labels = np.stack([ds.noisy_labels, ds.clean_labels], axis=1)
    if not np.array_equal(table[:, dim + 1 : dim + 3], labels):
        problems.append(f"{run}: embeddings.csv labels differ from dataset.bin")
    if not np.array_equal(table[:, dim + 4], ds.corrupted):
        problems.append(f"{run}: embeddings.csv corrupted flags differ from dataset.bin")
    cluster = _logits(p, feats, "cluster")
    differ = int(np.sum((cluster.argmax(axis=1) != table[:, dim + 3]) & ~_ties(cluster)))
    if differ:
        problems.append(f"{run}: {differ} cluster assignments differ from a numpy forward")
    return problems


def gallery(run):
    """gallery.pgm is an 8-bit PGM with one (augmented | reconstruction |
    original) row per gallery sample."""
    cfg = config.load(Path(run) / "config.txt")
    size = cfg["data.image_size"]
    rows = min(GALLERY_ROWS, cfg["data.samples"])
    height = rows * (size + GALLERY_GUTTER) - GALLERY_GUTTER
    width = 3 * size + 2 * GALLERY_GUTTER
    header = f"P5\n{width} {height}\n255\n".encode()
    blob = (Path(run) / "gallery.pgm").read_bytes()
    if not blob.startswith(header) or len(blob) != len(header) + width * height:
        return [f"{run}: gallery.pgm is not a {width}x{height} 8-bit PGM"]
    return []


def same_run(run, twin):
    """A run stopped and resumed many times equals an uninterrupted twin:
    every checkpoint array bit for bit, and metrics.csv except seconds."""
    problems = []
    for name in ("init", "best", "last"):
        a, meta_a = load_checkpoint(Path(run) / "checkpoints" / f"{name}.ckpt")
        b, meta_b = load_checkpoint(Path(twin) / "checkpoints" / f"{name}.ckpt")
        if meta_a != meta_b:
            problems.append(f"{name}.ckpt header differs from the uninterrupted twin")
        if a.keys() != b.keys() or any(
            a[k].dtype != b[k].dtype or a[k].tobytes() != b[k].tobytes() for k in a
        ):
            problems.append(f"{name}.ckpt arrays differ from the uninterrupted twin")
    rows_a = [{k: v for k, v in r.items() if k != "seconds"} for r in _metrics_rows(run)]
    rows_b = [{k: v for k, v in r.items() if k != "seconds"} for r in _metrics_rows(twin)]
    if rows_a != rows_b:
        problems.append("metrics.csv differs from the uninterrupted twin")
    return problems


def transition(labels_csv, noisy_bin, matrix_csv, eps):
    """Symmetric noise flips exactly round(eps * n_k) labels of each class
    k, and the transition matrix written by ``corrupt`` is that recount."""
    with open(labels_csv, newline="") as fh:
        clean = np.array([int(r["clean_label"]) for r in csv.DictReader(fh)])
    noisy = load_dataset(noisy_bin)
    if not np.array_equal(noisy.clean_labels, clean):
        return [f"{noisy_bin}: clean labels differ from {labels_csv}"]
    c = noisy.num_classes
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (clean, noisy.noisy_labels), 1)
    n_k = counts.sum(axis=1)
    problems = []
    flips = n_k - np.diag(counts)
    expected = np.array([round(eps * n) for n in n_k])
    if not np.array_equal(flips, expected):
        problems.append(f"{noisy_bin}: flips per class {flips.tolist()}, expected {expected.tolist()}")
    written = np.loadtxt(matrix_csv, delimiter=",", ndmin=2)
    if written.shape != (c, c) or np.abs(written - counts / n_k[:, None]).max() > 5e-7:
        problems.append(f"{matrix_csv}: transition matrix differs from the recount")
    return problems


def claim_report(ce, full):
    """The paper's desk claim on this seed, for the log: +A+B+C ends at
    >= 0.95 clean accuracy with a best-to-last gap <= 0.01, at least 0.1
    above CE. It holds on some seeds and not others, so it is reported and
    not counted as a check."""
    holds = full["last_acc"] >= 0.95 and full["gap"] <= 0.01 and full["last_acc"] >= ce["last_acc"] + 0.1
    return (f"claim {'holds' if holds else 'does not hold'}: +A+B+C last {full['last_acc']:.3f} "
            f"gap {full['gap']:.3f}, CE last {ce['last_acc']:.3f} gap {ce['gap']:.3f}")
