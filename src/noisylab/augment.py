"""Stochastic input transforms with recorded seeds.

Pipelines are sampled per sample per epoch; the restoration objective always
pairs the transformed view with the stored original, so ops never need an
inverse. Every op is the identity at magnitude 0 and deterministic given its
seed. Image outputs stay in [0, 1]; flat vectors are left unclamped.

Spatial ops (cutout, translate, horizontal-flip) require image-shaped input;
flat vectors support gaussian-noise, brightness-shift and contrast-scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPATIAL_OPS = ("cutout", "translate", "horizontal-flip")
VALUE_OPS = ("gaussian-noise", "brightness-shift", "contrast-scale")
ALL_OPS = ("cutout", "gaussian-noise", "brightness-shift", "contrast-scale", "translate", "horizontal-flip")

CUTOUT_FILL = 0.5
TRANSLATE_FILL = 0.5

# per-op maximum strength at magnitude 1
MAX_NOISE_SIGMA = 0.2
MAX_BRIGHTNESS_DELTA = 0.3
MAX_TRANSLATE_FRAC = 0.3
MAX_CONTRAST_SWING = 0.5


class UnsupportedOpError(ValueError):
    """Op not applicable to the given input shape."""


@dataclass(frozen=True)
class AugmentOp:
    kind: str
    params: dict
    seed: int

    def __post_init__(self):
        if self.kind not in ALL_OPS:
            raise ValueError(f"unknown augment op: {self.kind!r}")


@dataclass(frozen=True)
class AugmentPipeline:
    ops: tuple
    magnitude: float


@dataclass(frozen=True)
class AugmentPolicy:
    op_pool: tuple = ALL_OPS
    num_ops: int = 2
    magnitude: float = 0.5

    def __post_init__(self):
        if not self.op_pool:
            raise ValueError("op pool must be nonempty")
        if self.num_ops < 1:
            raise ValueError("num_ops must be >= 1")
        if not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("magnitude must be in [0, 1]")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from integer parts (global seed, epoch, index...)."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_pipeline(policy: AugmentPolicy, rng_seed: int) -> AugmentPipeline:
    """Uniformly sample ``num_ops`` ops (with replacement) from the pool."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    m = policy.magnitude
    ops = []
    for slot in range(policy.num_ops):
        kind = policy.op_pool[int(rng.integers(0, len(policy.op_pool)))]
        op_seed = int(rng.integers(0, 2**63 - 1))
        if kind == "cutout":
            params = {"side_frac": m}
        elif kind == "gaussian-noise":
            params = {"sigma": m * MAX_NOISE_SIGMA}
        elif kind == "brightness-shift":
            sign = 1.0 if rng.random() < 0.5 else -1.0
            params = {"delta": sign * m * MAX_BRIGHTNESS_DELTA}
        elif kind == "contrast-scale":
            params = {"scale": 1.0 + m * MAX_CONTRAST_SWING * rng.uniform(-1.0, 1.0)}
        elif kind == "translate":
            params = {"max_frac": m * MAX_TRANSLATE_FRAC}
        else:  # horizontal-flip
            params = {"prob": m}
        ops.append(AugmentOp(kind=kind, params=params, seed=op_seed))
    return AugmentPipeline(ops=tuple(ops), magnitude=m)


def apply_op(op: AugmentOp, x: np.ndarray) -> np.ndarray:
    """Apply one op to a single sample (copy; the input is never mutated)."""
    return _apply_slot((op,), x[None])[0]


def _op_rng(op: AugmentOp) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(op.seed)))


def _apply_slot(ops, batch: np.ndarray) -> np.ndarray:
    """Apply ``ops[i]`` to ``batch[i]`` for every row; returns a new array.

    Rows are grouped by op kind. Value ops run as one array expression per
    group with per-row scalars in the batch dtype; cutout, translate and
    flip write per-row slices. Each op's generator is built only when the
    op draws from it, and image rows are clipped once at the end, so every
    row gets the same float operations as when it is augmented alone.
    """
    image_shaped = batch.ndim == 3
    rows_of = {}
    for row, op in enumerate(ops):
        if not image_shaped and op.kind in SPATIAL_OPS:
            raise UnsupportedOpError(f"{op.kind} requires image-shaped input, got shape {batch.shape[1:]}")
        rows_of.setdefault(op.kind, []).append(row)
    out = batch.copy()
    per_row = (-1,) + (1,) * (batch.ndim - 1)

    def scalars(rows, key):
        return np.array([ops[r].params[key] for r in rows], dtype=batch.dtype).reshape(per_row)

    for kind, rows in rows_of.items():
        if kind == "cutout":
            _, h, w = batch.shape
            for r in rows:
                side_h = int(round(ops[r].params["side_frac"] * h))
                side_w = int(round(ops[r].params["side_frac"] * w))
                if side_h and side_w:
                    rng = _op_rng(ops[r])
                    top = int(rng.integers(0, h - side_h + 1))
                    left = int(rng.integers(0, w - side_w + 1))
                    out[r, top : top + side_h, left : left + side_w] = CUTOUT_FILL
        elif kind == "gaussian-noise":
            rows = [r for r in rows if ops[r].params["sigma"] > 0]
            if rows:
                noise = [_op_rng(ops[r]).normal(0.0, ops[r].params["sigma"], size=batch.shape[1:])
                         for r in rows]
                out[rows] = out[rows] + np.array(noise).astype(batch.dtype)
        elif kind == "brightness-shift":
            out[rows] = out[rows] + scalars(rows, "delta")
        elif kind == "contrast-scale":
            rows = [r for r in rows if ops[r].params["scale"] != 1.0]
            if rows:
                center = 0.5 if image_shaped else 0.0
                out[rows] = center + scalars(rows, "scale") * (out[rows] - center)
        elif kind == "translate":
            _, h, w = batch.shape
            for r in rows:
                limit_h = int(round(ops[r].params["max_frac"] * h))
                limit_w = int(round(ops[r].params["max_frac"] * w))
                rng = _op_rng(ops[r]) if limit_h or limit_w else None
                dy = int(rng.integers(-limit_h, limit_h + 1)) if limit_h else 0
                dx = int(rng.integers(-limit_w, limit_w + 1)) if limit_w else 0
                if dy or dx:
                    ys, yd = _shift_slices(h, dy)
                    xs, xd = _shift_slices(w, dx)
                    out[r] = TRANSLATE_FILL
                    out[r, yd, xd] = batch[r, ys, xs]
        else:  # horizontal-flip
            rows = [r for r in rows if _op_rng(ops[r]).random() < ops[r].params["prob"]]
            out[rows] = out[rows, :, ::-1]

    if image_shaped:
        np.clip(out, 0.0, 1.0, out=out)
    return out


def _shift_slices(size, delta):
    """Source and destination slices for a 1-d shift by ``delta``."""
    if delta >= 0:
        return slice(0, size - delta), slice(delta, size)
    return slice(-delta, size), slice(0, size + delta)


def augment_batch(policy: AugmentPolicy, batch: np.ndarray, global_seed: int, epoch: int, sample_indices) -> np.ndarray:
    """Fresh per-sample pipelines, seeded by (global seed, epoch, index),
    applied one op slot at a time to the whole batch."""
    slots = zip(*(sample_pipeline(policy, derive_seed(global_seed, epoch, idx)).ops
                  for idx in sample_indices))
    out = batch
    for ops in slots:
        out = _apply_slot(ops, out)
    return out if out is not batch else batch.copy()
