"""Artifact export from a finished run: per-sample embeddings as CSV and a
reconstruction gallery as a portable graymap (PGM).

The gallery stacks one row per sample: augmented input | reconstruction |
original, separated by thin gray gutters, for eyeballing what the decoder
learned to undo.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from . import config as config_mod
from .augment import AugmentPolicy, augment_batch
from .autodiff import Tensor, no_grad
from .data import LabeledDataset, load_dataset, replacing
from .training import CheckpointError, build_experiment, load_checkpoint


class HashMismatchError(CheckpointError):
    """Checkpoint was produced under a different config."""


def load_run_models(run_dir, checkpoint: str = "best"):
    """Rebuild the model set of a run from one of its checkpoints, drawing
    no init.

    Returns ``(experiment, checkpoint_meta)``. Raises HashMismatchError if
    the checkpoint's config hash does not match the run's config.
    """
    run_dir = Path(run_dir)
    cfg = config_mod.load(run_dir / "config.txt")
    arrays, meta = load_checkpoint(run_dir / "checkpoints" / f"{checkpoint}.ckpt")
    expected = config_mod.config_hash(cfg)
    if meta["config_hash"] != expected:
        raise HashMismatchError(
            f"checkpoint hash {meta['config_hash'][:12]} != config hash {expected[:12]}"
        )
    return build_experiment(cfg, load_dataset(run_dir / "dataset.bin"), arrays), meta


def compute_embeddings(models, features: np.ndarray, batch_size: int = 256):
    """Backbone features and cluster argmax for every sample."""
    dim = models.backbone.feature_dim
    emb = np.empty((len(features), dim), dtype=np.float32)
    cluster = np.empty(len(features), dtype=np.int64)
    with no_grad():
        for lo in range(0, len(features), batch_size):
            chunk = Tensor(features[lo : lo + batch_size])
            feats = models.backbone(chunk)
            emb[lo : lo + batch_size] = feats.data
            cluster[lo : lo + batch_size] = models.cluster_head.logits(feats).data.argmax(axis=-1)
    return emb, cluster


def export_embeddings_csv(exp, path) -> int:
    """Write one row per sample: index, feature vector, labels, cluster,
    corrupted flag. Returns the row count. The file is replaced whole or
    not at all."""
    ds: LabeledDataset = exp.dataset
    emb, cluster = compute_embeddings(exp.models, ds.features)
    dim = emb.shape[1]
    tail = np.stack([ds.noisy_labels, ds.clean_labels, cluster, ds.corrupted], axis=1)
    # Nine significant digits round-trip every float32 feature.
    row = "%d" + ",%.9g" * dim + ",%d,%d,%d,%d\r\n"
    with replacing(path) as raw, io.TextIOWrapper(raw, encoding="ascii", newline="") as fh:
        fh.write(",".join(["index"] + [f"f{i}" for i in range(dim)]
                          + ["noisy_label", "clean_label", "cluster", "corrupted"]) + "\r\n")
        for i, (feats, labels) in enumerate(zip(emb, tail)):
            fh.write(row % (i, *feats.tolist(), *labels.tolist()))
    return len(ds)


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM from a float array in [0, 1], replaced whole or not
    at all."""
    h, w = image.shape
    data = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with replacing(path) as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def reconstruction_gallery(exp, num_samples: int = 8, epoch: int = 0):
    """Grid of (augmented, reconstructed, original) triples as one image."""
    ds = exp.dataset
    if not ds.is_image:
        raise ValueError("reconstruction gallery requires image-shaped data")
    idx = np.arange(min(num_samples, len(ds)))
    originals = ds.features[idx]
    augmented = augment_batch(exp.policy, originals, exp.cfg["seeds.augment"], epoch, idx)
    with no_grad():
        recon = exp.models.decoder(exp.models.backbone(Tensor(augmented))).data

    gutter = 2
    h, w = ds.input_shape
    canvas = np.full((len(idx) * (h + gutter) - gutter, 3 * w + 2 * gutter), 0.25, dtype=np.float32)
    for row, i in enumerate(idx):
        top = row * (h + gutter)
        canvas[top : top + h, 0:w] = augmented[row]
        canvas[top : top + h, w + gutter : 2 * w + gutter] = recon[row]
        canvas[top : top + h, 2 * (w + gutter) :] = originals[row]
    return canvas


def export_gallery(exp, path, num_samples: int = 8) -> None:
    write_pgm(path, reconstruction_gallery(exp, num_samples))
