"""Stochastic input transforms with recorded seeds.

Pipelines are sampled per sample per epoch; the restoration objective always
pairs the transformed view with the stored original, so ops never need an
inverse. Every op is the identity at magnitude 0 and deterministic given its
seed. Image outputs stay in [0, 1]; flat vectors are left unclamped.

Spatial ops (cutout, translate, horizontal-flip) require image-shaped input;
flat vectors support gaussian-noise, brightness-shift and contrast-scale.
"""

from __future__ import annotations

import operator
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
    return int(_seed_states(tuple(int(p) for p in parts), 1)[0, 0])


def sample_pipeline(policy: AugmentPolicy, rng_seed: int) -> AugmentPipeline:
    """Uniformly sample ``num_ops`` ops (with replacement) from the pool."""
    return _draw_pipeline(policy, _generator(_seed_states((rng_seed,), 4)[0]))


def _draw_pipeline(policy: AugmentPolicy, rng: np.random.Generator) -> AugmentPipeline:
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


# Every stream here is numpy's SeedSequence followed by PCG64, both stable
# across numpy versions (NEP 19). _seed_states reproduces SeedSequence's
# hashing (numpy/random/bit_generator.pyx) on uint32 arrays, one row per
# sample, so a batch needs no SeedSequence object per sample.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
# 0-d arrays: numpy applies them to an array faster than scalars
_MIX_MULT_L, _MIX_MULT_R = np.array(0xCA01F9DD, dtype=np.uint32), np.array(0x4973F715, dtype=np.uint32)
_XSHIFT = np.array(16, dtype=np.uint32)


def _seed_states(parts, n_words: int) -> np.ndarray:
    """``SeedSequence(tuple(row)).generate_state(n_words, np.uint64)`` for
    every row of ``parts``, as a C-contiguous ``(rows, n_words)`` array.

    Each part is a non-negative integer or a 1-d sequence of them; scalars
    broadcast, and all-scalar parts give one row. Rows are grouped by how
    many 32-bit words each part takes, since the hash constants depend only
    on the position of a word in the entropy.
    """
    words, counts = zip(*map(_entropy_words, parts))
    (rows,) = np.broadcast_shapes(*(c.shape for c in counts))
    words = [w if len(w) == rows else w.repeat(rows, axis=0) for w in words]
    counts = np.stack([c if len(c) == rows else c.repeat(rows) for c in counts], axis=1)
    out = np.empty((rows, n_words), dtype=np.uint64)
    todo = np.arange(rows)
    while todo.size:
        layout = counts[todo[0]]
        same = (counts[todo] == layout).all(axis=1)
        sel, todo = todo[same], todo[~same]
        entropy = np.concatenate([w[sel, :k] for w, k in zip(words, layout)], axis=1)
        out[sel] = _generate_state(_mix_entropy(entropy), n_words)
    return out


def _entropy_words(part):
    """Split integers into little-endian uint32 words as numpy does (zero is
    one word; each further 32 bits add one). Returns the words, zero-padded
    to ``(rows, k)``, and each row's word count."""
    if isinstance(part, np.ndarray) and part.dtype.kind in "iu":
        if (part < 0).any():
            raise ValueError("expected non-negative integer")
        v = part.astype(np.uint64)
        high = (v >> np.uint64(32)).astype(np.uint32)
        return np.stack([v.astype(np.uint32), high], axis=1), 1 + (high != 0)
    values = [operator.index(v) for v in ([part] if isinstance(part, (int, np.integer)) else part)]
    if any(v < 0 for v in values):
        raise ValueError("expected non-negative integer")
    counts = [max(1, -(-v.bit_length() // 32)) for v in values]
    k = max(counts, default=1)
    words = [[v >> (32 * i) & _MASK32 for i in range(k)] for v in values]
    return np.array(words, dtype=np.uint32).reshape(len(values), k), np.array(counts, dtype=np.int64)


def _hash_consts(const, mult, count):
    """The xor and multiply constants of ``count`` successive hash steps, as
    ``(count, 1)`` uint32 columns."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


# Mixing the pool takes 16 fixed steps: one per pool word, then, for each
# source word in turn, one per other word in ascending order. _MIX_XOR and
# _MIX_MULT hold every pool word's step for each source word; the source
# word itself is kept, so its entry is only a placeholder.
_HEAD_XOR, _HEAD_MULT = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE ** 2)
_MIX_STEPS = [[_POOL_SIZE + (_POOL_SIZE - 1) * src + dst - (dst >= src) for dst in range(_POOL_SIZE)]
              for src in range(_POOL_SIZE)]
_MIX_XOR, _MIX_MULT = _HEAD_XOR[_MIX_STEPS], _HEAD_MULT[_MIX_STEPS]


def _hash(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _mix_entropy(entropy):
    """SeedSequence's pool, ``(4, rows)``, of each row of ``(rows, L)``
    uint32 entropy."""
    rows, length = entropy.shape
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[:length] = entropy.T[:_POOL_SIZE]
    pool = _hash(pool, _HEAD_XOR[:_POOL_SIZE], _HEAD_MULT[:_POOL_SIZE])
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hash(pool[src], _MIX_XOR[src], _MIX_MULT[src]))
        mixed[src] = pool[src]
        pool = mixed
    # entropy past the pool size: each word is mixed into every pool word
    xor, mult = _hash_consts(int(_HEAD_MULT[-1, 0]), _MULT_A, _POOL_SIZE * max(length - _POOL_SIZE, 0))
    for step, src in enumerate(range(_POOL_SIZE, length)):
        steps = slice(_POOL_SIZE * step, _POOL_SIZE * (step + 1))
        pool = _mix(pool, _hash(entropy[:, src], xor[steps], mult[steps]))
    return pool


def _generate_state(pool, n_words):
    """``generate_state(n_words, np.uint64)`` of each column of a pool."""
    xor, mult = _hash_consts(_INIT_B, _MULT_B, 2 * n_words)
    state = _hash(pool[np.arange(2 * n_words) % _POOL_SIZE], xor, mult)
    # little-endian word pairs, as numpy reads them on every platform
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _Words(np.random.bit_generator.ISeedSequence):
    """Precomputed ``generate_state(4, np.uint64)`` words: all that PCG64
    reads from its seed sequence."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError("only the precomputed uint64 words are available")
        # PCG64 reads the returned buffer directly
        return np.ascontiguousarray(self.words, dtype=np.uint64)


def _generator(words) -> np.random.Generator:
    """The generator ``Generator(PCG64(SeedSequence(e)))`` of the entropy
    ``e`` whose four state words are ``words``."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


def apply_op(op: AugmentOp, x: np.ndarray) -> np.ndarray:
    """Apply one op to a single sample (copy; the input is never mutated)."""
    return _apply_slot((op,), x[None], _seed_states((op.seed,), 4))[0]


def _apply_slot(ops, batch: np.ndarray, op_words: np.ndarray) -> np.ndarray:
    """Apply ``ops[i]`` to ``batch[i]`` for every row; returns a new array.
    ``op_words[i]`` are the PCG64 seed words of ``ops[i].seed``.

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
                    rng = _generator(op_words[r])
                    top = int(rng.integers(0, h - side_h + 1))
                    left = int(rng.integers(0, w - side_w + 1))
                    out[r, top : top + side_h, left : left + side_w] = CUTOUT_FILL
        elif kind == "gaussian-noise":
            rows = [r for r in rows if ops[r].params["sigma"] > 0]
            if rows:
                noise = [_generator(op_words[r]).normal(0.0, ops[r].params["sigma"], size=batch.shape[1:])
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
                rng = _generator(op_words[r]) if limit_h or limit_w else None
                dy = int(rng.integers(-limit_h, limit_h + 1)) if limit_h else 0
                dx = int(rng.integers(-limit_w, limit_w + 1)) if limit_w else 0
                if dy or dx:
                    ys, yd = _shift_slices(h, dy)
                    xs, xd = _shift_slices(w, dx)
                    out[r] = TRANSLATE_FILL
                    out[r, yd, xd] = batch[r, ys, xs]
        else:  # horizontal-flip
            rows = [r for r in rows if _generator(op_words[r]).random() < ops[r].params["prob"]]
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
    seeds = _seed_states((global_seed, epoch, sample_indices), 1)[:, 0]
    slots = list(zip(*(_draw_pipeline(policy, _generator(words)).ops
                       for words in _seed_states((seeds,), 4))))
    op_seeds = np.array([[op.seed for op in ops] for ops in slots], dtype=np.int64)
    op_words = _seed_states((op_seeds.ravel(),), 4).reshape(op_seeds.shape + (4,))
    out = batch
    for ops, words in zip(slots, op_words):
        out = _apply_slot(ops, out, words)
    return out if out is not batch else batch.copy()
