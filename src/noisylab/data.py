"""Synthetic datasets, label-noise injection, and dataset persistence.

Two dataset families are supported: flat Gaussian blobs (class means placed
on a circle scaled by ``separation``) and small grayscale images (per-class
pixel patterns plus noise, normalized to [0, 1]).

Noise models:
  * symmetric  -- within each class, exactly round(eps * n_k) samples are
    relabeled uniformly at random among the other C-1 classes.
  * asymmetric -- exactly round(eps * n_k) samples of class k are relabeled
    to class (k+1) mod C (wrap-around for the last class is configurable).

Datasets and training checkpoints share one file format, a container of
named little-endian arrays plus a JSON metadata block (``write_arrays`` and
``read_arrays``), so round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"NLDS"
FORMAT_VERSION = 2
_HEADER_BYTES = 10  # magic, u16 version, u32 length of the JSON block
_DTYPES = ("<f4", "<f8", "<i4", "<i8", "|u1", "|b1")
_DATASET_DTYPES = {"features": np.float32, "clean_labels": np.int32,
                   "noisy_labels": np.int32, "corrupted": np.bool_}


class DatasetError(ValueError):
    """Invalid dataset construction or operation arguments."""


class DoubleInjectionError(DatasetError):
    """Noise injected into an already-corrupted dataset."""


class DatasetFileError(IOError):
    """Base for container file (de)serialization failures."""


class CorruptHeaderError(DatasetFileError):
    pass


class VersionMismatchError(DatasetFileError):
    pass


class PayloadShapeError(DatasetFileError):
    pass


@dataclass
class NoiseSpec:
    kind: str  # "symmetric" | "asymmetric"
    epsilon: float
    seed: int
    wrap_last_class: bool = True

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric"):
            raise DatasetError(f"unknown noise kind: {self.kind!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise DatasetError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.kind == "asymmetric" and self.epsilon > 0.5:
            warnings.warn(
                "asymmetric noise with epsilon > 0.5 flips the majority of each class",
                stacklevel=2,
            )


@dataclass
class LabeledDataset:
    features: np.ndarray  # (N, ...) float32
    clean_labels: np.ndarray  # (N,) int32
    noisy_labels: np.ndarray  # (N,) int32
    corrupted: np.ndarray  # (N,) bool
    num_classes: int

    def __post_init__(self):
        n = len(self.features)
        if not (len(self.clean_labels) == len(self.noisy_labels) == len(self.corrupted) == n):
            raise DatasetError("array lengths disagree")
        for labels in (self.clean_labels, self.noisy_labels):
            if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
                raise DatasetError("label id outside [0, C)")
        if not np.array_equal(self.corrupted, self.clean_labels != self.noisy_labels):
            raise DatasetError("corrupted flags inconsistent with labels")

    def __len__(self):
        return len(self.features)

    @property
    def input_shape(self):
        return self.features.shape[1:]

    @property
    def is_image(self):
        return self.features.ndim >= 3

    def __eq__(self, other):
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (
            self.num_classes == other.num_classes
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.clean_labels, other.clean_labels)
            and np.array_equal(self.noisy_labels, other.noisy_labels)
            and np.array_equal(self.corrupted, other.corrupted)
        )


def generate_blobs(
    num_samples: int,
    num_classes: int,
    dims_or_image_shape,
    separation: float,
    seed: int,
) -> LabeledDataset:
    """Class-conditional Gaussian data, flat or image-shaped.

    Flat: class means sit on a circle of radius ``separation`` in the first
    two dims, unit isotropic noise. Image: each class has a random pixel
    pattern whose amplitude scales with ``separation``; values end up in
    [0, 1]. ``separation=0`` makes classes indistinguishable.
    """
    if num_classes < 2:
        raise DatasetError(f"need at least 2 classes, got {num_classes}")
    if num_samples < num_classes:
        raise DatasetError("need at least one sample per class")
    if not 0 <= separation < np.inf:
        raise DatasetError(f"separation must be finite and >= 0, got {separation}")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    labels = rng.integers(0, num_classes, size=num_samples).astype(np.int32)
    # guarantee every class appears
    labels[:num_classes] = np.arange(num_classes, dtype=np.int32)

    if isinstance(dims_or_image_shape, int):
        dims = dims_or_image_shape
        if dims < 1:
            raise DatasetError(f"invalid flat dimension: {dims}")
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        means = np.zeros((num_classes, dims))
        means[:, 0] = separation * np.cos(angles)
        if dims > 1:
            means[:, 1] = separation * np.sin(angles)
        feats = means[labels] + rng.standard_normal((num_samples, dims))
        features = feats.astype(np.float32)
    else:
        shape = tuple(int(s) for s in dims_or_image_shape)
        if len(shape) != 2 or any(s < 1 for s in shape):
            raise DatasetError(f"invalid image shape: {dims_or_image_shape}")
        patterns = rng.uniform(-1.0, 1.0, size=(num_classes,) + shape)
        amp = 0.1 * separation
        raw = 0.5 + amp * patterns[labels] + 0.1 * rng.standard_normal((num_samples,) + shape)
        features = np.clip(raw, 0.0, 1.0).astype(np.float32)

    return LabeledDataset(
        features=features,
        clean_labels=labels,
        noisy_labels=labels.copy(),
        corrupted=np.zeros(num_samples, dtype=bool),
        num_classes=num_classes,
    )


def inject_noise(ds: LabeledDataset, spec: NoiseSpec) -> LabeledDataset:
    """Return a copy of ``ds`` with corrupted labels per ``spec``.

    Exactly round(eps * n_k) samples per class are flipped; victims are
    chosen at random, the count is deterministic.
    """
    if ds.corrupted.any() or not np.array_equal(ds.clean_labels, ds.noisy_labels):
        raise DoubleInjectionError("dataset already carries injected noise")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    noisy = ds.clean_labels.copy()
    c = ds.num_classes
    for k in range(c):
        members = np.flatnonzero(ds.clean_labels == k)
        n_flip = int(round(spec.epsilon * len(members)))
        if n_flip == 0:
            continue
        victims = rng.choice(members, size=n_flip, replace=False)
        if spec.kind == "symmetric":
            # uniform over the other C-1 classes
            draws = rng.integers(0, c - 1, size=n_flip)
            draws = draws + (draws >= k)
            noisy[victims] = draws.astype(np.int32)
        else:
            target = (k + 1) % c
            if k == c - 1 and not spec.wrap_last_class:
                continue
            noisy[victims] = target

    return LabeledDataset(
        features=ds.features,
        clean_labels=ds.clean_labels,
        noisy_labels=noisy,
        corrupted=ds.clean_labels != noisy,
        num_classes=c,
    )


def empirical_transition_matrix(ds: LabeledDataset):
    """Row-stochastic matrix: entry (i, j) = P(noisy=j | clean=i).

    Returns ``(matrix, undefined_rows)`` where undefined_rows flags clean
    classes with no samples (their rows are NaN, never silently zero).
    """
    c = ds.num_classes
    pairs = ds.clean_labels.astype(np.intp) * c + ds.noisy_labels
    counts = np.bincount(pairs, minlength=c * c).reshape(c, c)
    totals = counts.sum(axis=1, keepdims=True)
    # an undefined row is np.nan itself: 0/0 would set the NaN's sign bit
    matrix = np.divide(counts, totals, out=np.full((c, c), np.nan), where=totals > 0)
    return matrix, totals[:, 0] == 0


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def write_arrays(paths, arrays: dict, meta: dict) -> None:
    """Write named arrays and a JSON-serializable ``meta`` dict to each of
    ``paths`` in order, serializing them once.

    Layout: MAGIC, u16 FORMAT_VERSION, u32 length of a JSON block holding
    ``meta`` and each array's name, dtype and shape, then each array's
    little-endian bytes in order, written through ``replacing``.
    """
    layout, payload = [], []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        dtype = arr.dtype.newbyteorder("<")
        if dtype.str not in _DTYPES:
            raise DatasetFileError(f"unsupported dtype {arr.dtype} for array {name!r}")
        layout.append([name, dtype.str, list(arr.shape)])
        payload.append(np.ascontiguousarray(arr.astype(dtype, copy=False)))
    block = json.dumps({"meta": meta, "arrays": layout}).encode()
    head = MAGIC + FORMAT_VERSION.to_bytes(2, "little") + len(block).to_bytes(4, "little")
    for path in paths:
        with replacing(path) as fh:
            for chunk in (head, block, *payload):
                fh.write(chunk)


@contextmanager
def replacing(path):
    """Binary file handle whose contents replace ``path`` when the block
    ends. It writes ``<path>.tmp`` and renames it into place, so ``path``
    never holds a partial file; the temp file is removed if the block
    raises."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_arrays(path):
    """Parse a file written by ``write_arrays``; returns ``(arrays, meta)``.

    Only whitelisted dtypes are read, every length is checked against the
    file, and the last array must end exactly at end of file. The arrays are
    views into a private copy-on-write map of the file, not copies, so they
    may be unaligned; writing into them never reaches the file. A caller
    copies out what it keeps: once the file is cut short, reading a view of
    its lost pages raises SIGBUS.
    """
    with open(path, "rb") as fh:
        try:
            blob = np.frombuffer(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY), np.uint8)
        except ValueError:  # an empty file cannot be mapped
            blob = np.empty(0, np.uint8)
    header = blob[:_HEADER_BYTES].tobytes()
    if len(header) < _HEADER_BYTES:
        raise CorruptHeaderError(f"{path}: truncated header")
    if header[:4] != MAGIC:
        raise CorruptHeaderError(f"{path}: bad magic bytes {header[:4]!r}")
    version = int.from_bytes(header[4:6], "little")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    offset = _HEADER_BYTES + int.from_bytes(header[6:10], "little")
    if offset > len(blob):
        raise CorruptHeaderError(f"{path}: truncated JSON block")
    try:
        head = json.loads(blob[_HEADER_BYTES:offset].tobytes())
        meta = dict(head["meta"])
        specs = [(name, dtype, tuple(shape)) for name, dtype, shape in head["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptHeaderError(f"{path}: unreadable JSON block: {exc}") from None
    arrays = {}
    for name, dtype, shape in specs:
        if (not isinstance(name, str) or dtype not in _DTYPES
                or any(type(d) is not int or d < 0 for d in shape)):
            raise CorruptHeaderError(f"{path}: invalid layout for array {name!r}")
        if name in arrays:
            raise CorruptHeaderError(f"{path}: array {name!r} is named twice")
        count = math.prod(shape)
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(blob):
            raise PayloadShapeError(f"{path}: array {name!r} runs past the end of the file")
        arrays[name] = np.frombuffer(blob, dtype, count, offset).reshape(shape)
        offset = end
    if offset != len(blob):
        raise PayloadShapeError(f"{path}: {len(blob) - offset} bytes after the last array")
    return arrays, meta


def save_dataset(ds: LabeledDataset, path) -> None:
    arrays = {name: getattr(ds, name).astype(dtype, copy=False) for name, dtype in _DATASET_DTYPES.items()}
    write_arrays([path], arrays, {"num_classes": int(ds.num_classes)})


def load_dataset(path) -> LabeledDataset:
    """Read a dataset file. Each array must be stored in the dtype
    ``save_dataset`` writes, every feature must be finite, and
    ``num_classes`` must be an integer >= 2."""
    arrays, meta = read_arrays(path)
    try:
        stored = {name: arrays[name] for name in _DATASET_DTYPES}
        num_classes = meta["num_classes"]
    except KeyError as exc:
        raise CorruptHeaderError(f"{path}: not a dataset file, {exc} is missing") from None
    for name, dtype in _DATASET_DTYPES.items():
        want = np.dtype(dtype).newbyteorder("<").str
        if stored[name].dtype.str != want:
            raise CorruptHeaderError(f"{path}: array {name!r} is stored as {stored[name].dtype.str}, "
                                     f"expected {want}")
    if type(num_classes) is not int or num_classes < 2:
        raise CorruptHeaderError(f"{path}: num_classes must be an integer >= 2, got {num_classes!r}")
    # astype copies: the dataset owns aligned arrays, not views of the file
    fields = {name: stored[name].astype(dtype) for name, dtype in _DATASET_DTYPES.items()}
    features = fields["features"]
    if not np.isfinite(features).all():
        first = np.isfinite(features.reshape(len(features), -1)).all(axis=1).argmin()
        raise DatasetFileError(f"{path}: sample {first} has a feature that is not finite")
    return LabeledDataset(**fields, num_classes=num_classes)


def export_labels_csv(ds: LabeledDataset, path) -> None:
    """One row per sample: index, clean_label, noisy_label, corrupted. The
    file is replaced whole or not at all."""
    table = np.stack([np.arange(len(ds)), ds.clean_labels, ds.noisy_labels, ds.corrupted], axis=1)
    with replacing(path) as fh:
        fh.write(b"index,clean_label,noisy_label,corrupted\r\n")
        fh.write(("%d,%d,%d,%d\r\n" * len(ds) % tuple(table.ravel().tolist())).encode())
