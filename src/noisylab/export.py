"""Artifact export from a finished run: per-sample embeddings as CSV and a
reconstruction gallery as a portable graymap (PGM).

The gallery stacks one row per sample: augmented input | reconstruction |
original, separated by thin gray gutters, for eyeballing what the decoder
learned to undo.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import config as config_mod
from .augment import augment_batch
from .autodiff import Tensor, no_grad
from .data import LabeledDataset, load_dataset, replacing
from .training import EVAL_BATCH, CheckpointError, build_experiment, load_checkpoint


def load_run_models(run_dir, checkpoint: str):
    """Rebuild the model set of a run from one of its checkpoints, drawing
    no init.

    Returns ``(experiment, checkpoint_meta)``. Raises CheckpointError if
    the checkpoint was written by a different config.
    """
    run_dir = Path(run_dir)
    cfg = config_mod.load(run_dir / "config.txt")
    arrays, meta = load_checkpoint(run_dir / "checkpoints" / f"{checkpoint}.ckpt")
    if meta["config_hash"] != config_mod.config_hash(cfg):
        raise CheckpointError("checkpoint was written by a different config")
    return build_experiment(cfg, load_dataset(run_dir / "dataset.bin"), arrays), meta


def compute_embeddings(models, features: np.ndarray):
    """Backbone features and cluster argmax for every sample."""
    dim = models.backbone.feature_dim
    emb = np.empty((len(features), dim), dtype=np.float32)
    cluster = np.empty(len(features), dtype=np.int64)
    with no_grad():
        for lo in range(0, len(features), EVAL_BATCH):
            chunk = Tensor(features[lo : lo + EVAL_BATCH])
            feats = models.backbone(chunk)
            emb[lo : lo + EVAL_BATCH] = feats.data
            cluster[lo : lo + EVAL_BATCH] = models.cluster_head.logits(feats).data.argmax(axis=-1)
    return emb, cluster


# embeddings.csv prints each float32 feature as '%.9g' % v: nine
# significant digits read back as the same float32. The writer builds that
# text with array operations: a block of rows becomes NUL-padded bytes, and
# the file gets the non-NUL ones. '%g' prints fixed notation when the decimal
# exponent d of the rounded value lies in [-4, 8]; such values and zeros are
# formatted here, the rest (|v| < 1e-4, |v| >= 1e9, inf and nan) by Python's
# '%'.
#
# A feature's cell is three little-endian 64-bit words. Word 0 holds ",",
# the sign and either "0" (a zero) or "0." and the zeros after it (d < 0).
# Words 1 and 2 hold the nine digits as three 4-byte slots of three digits,
# with the decimal point in the slot it falls in.
_BLOCK_ROWS = 128
_POW10 = 10.0 ** np.arange(13)
# bit patterns of |v| sort as |v| does; float32(1e-4) lies below 1e-4
_FIXED_LO = np.nextafter(np.float32(1e-4), np.float32(1)).view(np.uint32)
_FIXED_HI = np.float32(1e9).view(np.uint32)


def _digit_slots():
    """Every 3-digit group as a 4-byte slot at index ``(kept * 4 + point) *
    1000 + group``: only its first ``kept`` digits (the rest are trailing
    zeros cut from the fraction), and the decimal point after its
    ``point``-th digit (none for 0)."""
    digits = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    slots = np.zeros((4, 4, 1000, 4), np.uint8)
    for kept in range(4):
        for point in range(4):
            for i in range(kept):
                slots[kept, point, :, i + (0 < point <= i)] = digits[:, i]
            if point:
                slots[kept, point, :, point] = ord(".")
    return slots.view("<u4").astype("<u8").ravel()


def _slot_offsets():
    """Where each digit group's slot lies in _DIGIT_SLOTS, per decimal
    exponent d in [-4, 8] and count of significant digits in [1, 9], at
    ``(d + 4) * 10 + significant``. Only fraction zeros are cut, and the
    point goes when no fraction digit is left."""
    offsets = np.zeros((3, 130), np.int64)
    for d in range(-4, 9):
        whole = max(d + 1, 0)  # digits before the point
        for significant in range(1, 10):
            kept = max(significant, whole)
            point = whole if 0 < whole < significant else 0
            for group in range(3):
                k = min(max(kept - 3 * group, 0), 3)
                p = point - 3 * group if 0 < point - 3 * group <= 3 else 0
                offsets[group, (d + 4) * 10 + significant] = (k * 4 + p) * 1000
    return offsets


_DIGIT_SLOTS = _digit_slots()
_SLOT_OFFSETS = _slot_offsets()
# word 0 after "," and the sign, per d in [-4, 8]
_LEAD = np.array([int.from_bytes(b"\0\0" + (b"0." + b"0" * (-d - 1) if d < 0 else b""), "little")
                  for d in range(-4, 9)], "<u8")
# digits of a 3-digit group up to its last nonzero one
_GROUP_LEN = 3 - sum(np.arange(1000) % m == 0 for m in (10, 100, 1000))


def _feature_cells(feats: np.ndarray, cells: np.ndarray) -> None:
    """Write ``(rows, dim)`` float32 features into ``(rows, dim, 3)``
    ``cells`` as ``',%.9g' % v``, NUL-padded."""
    cells[...] = 0
    bits = feats.view(np.uint32)
    mag = bits & np.uint32(0x7FFFFFFF)
    cells[..., 0] = (ord(",") + (bits >> 31) * np.uint32(ord("-") << 8)
                     + (mag == 0) * np.uint32(ord("0") << 16))
    fixed = (mag >= _FIXED_LO) & (mag < _FIXED_HI)
    at = np.nonzero(fixed)
    a = np.abs(feats[at], dtype=np.float64)
    # log10 only estimates d: a libm may round it below an exact power of
    # ten. A float32's 24-bit significand times 5**k for k <= 12 fits in 53
    # bits, so products with 10**k are exact and settle d. Rounding to nine
    # digits never carries into a tenth: no float32 lies within half a
    # ninth-digit unit below a power of ten.
    d = np.clip(np.floor(np.log10(a)), -4, 8).astype(np.int64)
    scaled = a * _POW10[8 - d]
    d += (scaled >= 1e9).astype(np.int64) - (scaled < 1e8)
    digits = np.rint(a * _POW10[8 - d]).astype(np.int64)  # ties to even, as in CPython
    g0, rest = np.divmod(digits, 1000000)
    g1, g2 = np.divmod(rest, 1000)
    n1, n2 = _GROUP_LEN[g1], _GROUP_LEN[g2]
    layout = (d + 4) * 10 + np.where(n2 > 0, 6 + n2, np.where(n1 > 0, 3 + n1, _GROUP_LEN[g0]))
    cells[at + (0,)] |= _LEAD[d + 4]
    cells[at + (1,)] = (_DIGIT_SLOTS[_SLOT_OFFSETS[0][layout] + g0]
                        | _DIGIT_SLOTS[_SLOT_OFFSETS[1][layout] + g1] << np.uint64(32))
    cells[at + (2,)] = _DIGIT_SLOTS[_SLOT_OFFSETS[2][layout] + g2]
    for i in zip(*np.nonzero(~fixed & (mag != 0))):
        # at most 16 bytes: ",-1.23456789e-45"
        cells[i] = np.frombuffer((b",%.9g" % float(feats[i])).ljust(24, b"\0"), "<u8")


def _int_text(values: np.ndarray, width: int) -> np.ndarray:
    """Non-negative ints as ``width`` right-aligned ASCII digits, NUL in
    place of leading zeros."""
    scale = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    q = values[..., None] // scale
    return ((q % 10 + ord("0")) * ((q > 0) | (scale == 1))).astype(np.uint8)


def _words(text: np.ndarray) -> np.ndarray:
    """``(rows, n)`` bytes NUL-padded in front to whole '<u8' words."""
    rows, n = text.shape
    out = np.zeros((rows, -(-n // 8) * 8), np.uint8)
    out[:, out.shape[1] - n:] = text
    return out.view("<u8")


# The block buffer, kept from one export to the next. Made afresh for each
# block or export, it was handed back to the system when freed and
# page-faulted in again when next used.
_buffer = np.empty(0, np.uint8)


def _block_buffer(nbytes: int) -> np.ndarray:
    global _buffer
    if _buffer.size < nbytes:
        _buffer = np.empty(nbytes, np.uint8)
    return _buffer[:nbytes]


def _csv_blocks(feats: np.ndarray, tail: np.ndarray):
    """The CSV rows of ``feats``, ``_BLOCK_ROWS`` at a time: index,
    features, then the four ``tail`` columns. Each block comes as a uint8
    view of the block buffer, which the next block overwrites."""
    count, dim = feats.shape
    # every row's index and tail text, as whole words; fields are as wide as
    # the table's longest, and the NULs in front are dropped
    index = _words(_int_text(np.arange(count), len(str(count - 1))))
    ends = np.zeros((count, 4, len(str(tail.max())) + 1), np.uint8)
    ends[:, :, 0] = ord(",")
    ends[:, :, 1:] = _int_text(tail, ends.shape[2] - 1)
    ends = _words(np.concatenate([ends.reshape(count, -1), np.full((count, 2), list(b"\r\n"), np.uint8)], axis=1))
    first, last = index.shape[1], index.shape[1] + 3 * dim
    # one buffer for a block, its non-NUL words and their non-NUL bytes; the
    # mask of words to keep goes where the bytes will, and the mask of bytes
    # to keep where the block was
    size = min(count, _BLOCK_ROWS) * (last + ends.shape[1])
    buf = _block_buffer(24 * size)
    block = buf[: 8 * size].view("<u8").reshape(-1, last + ends.shape[1])
    packed = buf[8 * size : 16 * size].view("<u8")
    text = buf[16 * size :]
    for lo in range(0, count, len(block)):
        b = block[: min(len(block), count - lo)]
        b[:, :first] = index[lo : lo + len(b)]
        _feature_cells(feats[lo : lo + len(b)], b[:, first:last].reshape(len(b), dim, 3))
        b[:, last:] = ends[lo : lo + len(b)]
        k = np.not_equal(b.ravel(), 0, out=text[: b.size].view(bool))
        w = np.compress(k, b.ravel(), out=packed[: np.count_nonzero(k)]).view(np.uint8)
        k = np.not_equal(w, 0, out=buf[: w.size].view(bool))
        yield np.compress(k, w, out=text[: np.count_nonzero(k)])


def export_embeddings_csv(exp, path) -> int:
    """Write one row per sample: index, feature vector, labels, cluster,
    corrupted flag. Returns the row count. The file is replaced whole or
    not at all."""
    ds: LabeledDataset = exp.dataset
    emb, cluster = compute_embeddings(exp.models, ds.features)
    tail = np.stack([ds.noisy_labels, ds.clean_labels, cluster, ds.corrupted], axis=1)
    header = ",".join(["index"] + [f"f{i}" for i in range(emb.shape[1])]
                      + ["noisy_label", "clean_label", "cluster", "corrupted"])
    with replacing(path) as fh:
        fh.write(header.encode("ascii") + b"\r\n")
        for text in _csv_blocks(emb, tail):
            fh.write(text)
    return len(ds)


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM from a float array in [0, 1], replaced whole or not
    at all."""
    h, w = image.shape
    data = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with replacing(path) as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def reconstruction_gallery(exp, num_samples: int):
    """Grid of (augmented, reconstructed, original) triples as one image;
    the inputs are augmented as in epoch 0."""
    ds = exp.dataset
    if not ds.is_image:
        raise ValueError("reconstruction gallery requires image-shaped data")
    idx = np.arange(min(num_samples, len(ds)))
    originals = ds.features[idx]
    augmented = augment_batch(exp.policy, originals, exp.cfg["seeds.augment"], 0, idx)
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


def export_gallery(exp, path, num_samples: int) -> None:
    write_pgm(path, reconstruction_gallery(exp, num_samples))
