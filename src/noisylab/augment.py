"""Stochastic input transforms with recorded seeds.

Pipelines are sampled per sample per epoch; the restoration objective always
pairs the transformed view with the stored original, so ops never need an
inverse. Every op is the identity at magnitude 0 and deterministic given its
seed. Image outputs stay in [0, 1]; flat vectors are left unclamped.

Spatial ops (cutout, translate, horizontal-flip) require image-shaped input;
flat vectors support gaussian-noise, brightness-shift and contrast-scale.

``augment_batch(policy, batch, global_seed, epoch, sample_indices)`` is the
one entry point: it draws a fresh pipeline for each row, seeded by (global
seed, epoch, index), and applies it. A row's view depends only on its input
and on (seed, epoch, index), never on the other rows, so a one-row batch
replays one row of any batch byte for byte.

Every random number is the one numpy's
``Generator(PCG64(SeedSequence(seed)))`` would draw, computed on arrays for
the whole batch: ``_seed_states`` reproduces ``SeedSequence``, and
``_PCG64Rows`` reproduces PCG64 with ``Generator.integers`` (Lemire's
bounded integers) and ``Generator.random``/``uniform``. NEP 19 keeps
``SeedSequence`` and the raw PCG64 stream stable across numpy versions, but
not the Generator methods, so computing those here keeps augmented views
independent of the numpy version. The exception is gaussian-noise, which
draws from ``Generator.normal`` (numpy's ziggurat), one generator per noise
row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPATIAL_OPS = ("cutout", "translate", "horizontal-flip")
VALUE_OPS = ("gaussian-noise", "brightness-shift", "contrast-scale")
ALL_OPS = ("cutout", "gaussian-noise", "brightness-shift", "contrast-scale", "translate", "horizontal-flip")
_CUTOUT, _NOISE, _BRIGHTNESS, _CONTRAST, _TRANSLATE, _FLIP = range(len(ALL_OPS))
# the ops whose parameter the pipeline draws
_DRAWS_SCALAR = np.isin(np.arange(len(ALL_OPS)), [_BRIGHTNESS, _CONTRAST])

# seeds and epochs are one 32-bit word each of SeedSequence's entropy
SEED_BOUND = 2**32

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
class AugmentPolicy:
    op_pool: tuple
    num_ops: int
    magnitude: float

    def __post_init__(self):
        if not self.op_pool:
            raise ValueError("op pool must be nonempty")
        for kind in self.op_pool:
            if kind not in ALL_OPS:
                raise ValueError(f"unknown augment op: {kind!r}")
        if self.num_ops < 1:
            raise ValueError("num_ops must be >= 1")
        if not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("magnitude must be in [0, 1]")


def _draw_pipelines(policy: AugmentPolicy, words: np.ndarray):
    """One pipeline per row of PCG64 seed words, drawn as ``Generator``
    would: per slot, the kind (``integers(0, len(pool))``), the op seed
    (``integers(0, 2**63 - 1)``), then brightness's sign (``random()``) or
    contrast's factor (``uniform(-1, 1)``).

    Returns ``(kinds, seeds, scalars)``, each ``(num_ops, rows)``: the kind
    as an index into ``ALL_OPS``, the op's seed and its one parameter.
    """
    m = policy.magnitude
    rows = np.arange(len(words))
    pool = np.array([ALL_OPS.index(kind) for kind in policy.op_pool])
    fixed = np.array([m, m * MAX_NOISE_SIGMA, 0.0, 0.0, m * MAX_TRANSLATE_FRAC, m])
    pool_size = np.full(len(rows), len(pool), dtype=np.uint64)
    rng = _PCG64Rows.seeded(words)
    kinds = np.empty((policy.num_ops, len(rows)), dtype=np.intp)
    seeds = np.empty(kinds.shape, dtype=np.int64)
    scalars = np.empty(kinds.shape, dtype=np.float64)
    for slot in range(policy.num_ops):
        kind = kinds[slot] = pool[rng.integers32(rows, pool_size)]
        seeds[slot] = rng.integers64(rows, 2**63 - 1)
        scalars[slot] = fixed[kind]
        drawn = _DRAWS_SCALAR[kind].nonzero()[0]
        u = rng.random(drawn)
        sign = np.where(u < 0.5, 1.0, -1.0)
        scalars[slot, drawn] = np.where(kind[drawn] == _BRIGHTNESS, sign * m * MAX_BRIGHTNESS_DELTA,
                                        1.0 + m * MAX_CONTRAST_SWING * (-1.0 + 2.0 * u))
    return kinds, seeds, scalars


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


def _seed_states(head, values, n_words: int) -> np.ndarray:
    """``SeedSequence((*head, v)).generate_state(n_words, np.uint64)`` for
    each ``v`` in ``values``, as a C-contiguous ``(len(values), n_words)``
    array, ``n_words <= 4``.

    ``head`` is at most two integers in [0, 2**32) and ``values`` is 1-d,
    integers in [0, 2**64); anything else raises ValueError. numpy splits the
    entropy into at most four 32-bit words, its pool size, and hashes a
    missing pool word as 0, so the words written into a zero-padded pool give
    numpy's state however many words each value takes.
    """
    if len(head) > 2 or not _integers_in(head, SEED_BOUND):
        raise ValueError(f"expected at most two integers in [0, 2**32), got {tuple(head)}")
    if not isinstance(values, np.ndarray):  # Python ints, checked one by one
        values = np.array(values, dtype=np.uint64) if _integers_in(values, 1 << 64) else None
    if values is None or values.ndim != 1 or values.size and (values.dtype.kind not in "iu" or values.min() < 0):
        raise ValueError("expected a 1-d sequence of integers in [0, 2**64)")
    pool = np.zeros((_POOL_SIZE, len(values)), dtype=np.uint32)
    pool[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    # little-endian word pairs, low word first, as numpy splits an integer
    pool[len(head) : len(head) + 2] = values.astype("<u8").view("<u4").reshape(-1, 2).T
    return _generate_state(_mix_entropy(pool), n_words)


def _integers_in(values, bound) -> bool:
    return all(isinstance(v, (int, np.integer)) and 0 <= v < bound for v in values)


def _hash_consts(const, mult, count):
    """The xor and multiply constants of ``count`` successive hash steps, as
    ``(count, 1)`` uint32 columns."""
    consts = np.array([const * pow(mult, k, 1 << 32) & _MASK32 for k in range(count + 1)], dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


# Mixing the pool takes 16 fixed steps: one per pool word, then, for each
# source word in turn, one per other word in ascending order. _MIX_XOR and
# _MIX_MULT hold every pool word's step for each source word; the source
# word itself is kept, so its entry is only a placeholder.
_HEAD_XOR, _HEAD_MULT = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE ** 2)
_MIX_STEPS = [[_POOL_SIZE + (_POOL_SIZE - 1) * src + dst - (dst >= src) for dst in range(_POOL_SIZE)]
              for src in range(_POOL_SIZE)]
_MIX_XOR, _MIX_MULT = _HEAD_XOR[_MIX_STEPS], _HEAD_MULT[_MIX_STEPS]
# generate_state hashes pool words in turn, two per uint64 word
_STATE_XOR, _STATE_MULT = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _mix_entropy(pool):
    """SeedSequence's mixing of a ``(4, rows)`` uint32 entropy pool."""
    pool = _hash(pool, _HEAD_XOR[:_POOL_SIZE], _HEAD_MULT[:_POOL_SIZE])
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hash(pool[src], _MIX_XOR[src], _MIX_MULT[src]))
        mixed[src] = pool[src]
        pool = mixed
    return pool


def _generate_state(pool, n_words):
    """``generate_state(n_words, np.uint64)`` of each column of a pool."""
    steps = slice(0, 2 * n_words)
    state = _hash(pool[np.arange(2 * n_words) % _POOL_SIZE], _STATE_XOR[steps], _STATE_MULT[steps])
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


def _apply_pipelines(kinds, seeds, scalars, batch: np.ndarray) -> np.ndarray:
    """Apply op slot ``s`` (``kinds[s, i]``, ``seeds[s, i]``,
    ``scalars[s, i]``) to ``batch[i]``, slot after slot, on one copy of the
    batch, which is returned; ``batch`` is not mutated."""
    spatial = [ALL_OPS[k] for k in np.unique(kinds) if ALL_OPS[k] in SPATIAL_OPS]
    if spatial and batch.ndim != 3:
        raise UnsupportedOpError(f"{spatial[0]} requires image-shaped input, got shape {batch.shape[1:]}")
    words = _seed_states((), seeds.ravel(), 4)
    draws = [None] * len(kinds)  # flat input draws nothing
    if batch.ndim == 3:
        draws = _draw_spatial(kinds.ravel(), scalars.ravel(), words, batch.shape[1:]).reshape(kinds.shape + (2,))
    words = words.reshape(kinds.shape + (4,))
    out = batch.copy()
    for slot in range(len(kinds)):
        _apply_slot(kinds[slot], scalars[slot], draws[slot], words[slot], out)
    return out


def _sizes(scalars, shape):
    """``int(round(scalar * side))`` for each op and each image side."""
    return np.rint(scalars[:, None] * np.array(shape)).astype(np.int64)


def _draw_spatial(kinds, scalars, words, shape):
    """What each op draws from its PCG64 stream on images of ``shape``, as
    ``Generator`` would, in ``(ops, 2)``: cutout's top and left corner,
    translate's row and column shift, and in the first column 1 if flip
    mirrors. Every other entry is 0."""
    sizes = _sizes(scalars, shape)
    cut = (kinds == _CUTOUT) & (sizes > 0).all(axis=1)
    shift = kinds == _TRANSLATE
    # integers(0, n) per op and side; n == 1 draws nothing
    n = np.ones((len(kinds), 2), dtype=np.uint64)
    n[cut] = np.array(shape) - sizes[cut] + 1
    n[shift] = 2 * sizes[shift] + 1
    rng = _PCG64Rows.seeded(words)
    out = np.zeros((len(kinds), 2), dtype=np.int64)
    drawn = (cut | shift).nonzero()[0]
    for side in range(2):
        out[drawn, side] = rng.integers32(drawn, n[drawn, side])
    out[shift] -= sizes[shift]
    flip = (kinds == _FLIP).nonzero()[0]
    out[flip, 0] = rng.random(flip) < scalars[flip]
    return out


def _apply_slot(kinds, scalars, draws, words, out: np.ndarray) -> None:
    """Apply op ``kinds[i]`` with parameter ``scalars[i]`` to ``out[i]``
    for every row, in place. ``draws[i]`` is what the op drew
    (``_draw_spatial``; None for flat input) and ``words[i]`` the PCG64
    seed words of its seed.

    Rows are grouped by op kind, and each group is one array expression:
    value ops with per-row scalars in the batch dtype, cutout a window mask,
    translate a clipped gather plus a mask of the pixels that stay inside
    the image. Image rows are clipped once at the end, so every row gets the
    same float operations as when it is augmented alone.
    """
    image_shaped = out.ndim == 3
    per_row = (-1,) + (1,) * (out.ndim - 1)
    shape = out.shape[1:]

    for kind in np.bincount(kinds, minlength=len(ALL_OPS)).nonzero()[0]:
        rows = (kinds == kind).nonzero()[0]
        if kind == _CUTOUT:
            corner = draws[rows]
            out[rows] = np.where(_inside(corner, corner + _sizes(scalars[rows], shape), shape),
                                 CUTOUT_FILL, out[rows])
        elif kind == _NOISE:
            rows = rows[scalars[rows] > 0]
            if rows.size:  # Generator(PCG64(SeedSequence(seed))) per row, from its state words
                noise = [np.random.Generator(np.random.PCG64(_Words(words[r]))).normal(0.0, scalars[r], size=shape)
                         for r in rows]
                out[rows] = out[rows] + np.array(noise, dtype=out.dtype)
        elif kind == _BRIGHTNESS:
            out[rows] = out[rows] + scalars[rows].astype(out.dtype).reshape(per_row)
        elif kind == _CONTRAST:
            rows = rows[scalars[rows] != 1.0]
            center = 0.5 if image_shaped else 0.0
            out[rows] = center + scalars[rows].astype(out.dtype).reshape(per_row) * (out[rows] - center)
        elif kind == _TRANSLATE:
            # pixel (y, x) takes (y - dy, x - dx), or the fill past the edge
            shift = draws[rows]
            ys, xs = (np.clip(np.arange(n) - d[:, None], 0, n - 1) for d, n in zip(shift.T, shape))
            moved = out[rows[:, None, None], ys[:, :, None], xs[:, None, :]]
            out[rows] = np.where(_inside(shift, shift + shape, shape), moved, TRANSLATE_FILL)
        else:  # horizontal-flip
            rows = rows[draws[rows, 0] == 1]
            out[rows] = out[rows, :, ::-1]

    if image_shaped:
        np.clip(out, 0.0, 1.0, out=out)


def _inside(start, stop, shape):
    """Per row, the mask of the window ``start <= (y, x) < stop`` on images
    of ``shape``; ``start`` and ``stop`` are ``(rows, 2)``."""
    y, x = ((lo[:, None] <= np.arange(n)) & (np.arange(n) < hi[:, None]) for lo, hi, n in zip(start.T, stop.T, shape))
    return y[:, :, None] & x[:, None, :]


def augment_batch(policy: AugmentPolicy, batch: np.ndarray, global_seed: int, epoch: int, sample_indices) -> np.ndarray:
    """Fresh per-sample pipelines, seeded by (global seed, epoch, index),
    applied one op slot at a time to the whole batch. The seed and epoch
    are in [0, 2**32) and each index in [0, 2**64); anything else raises
    ValueError."""
    seeds = _seed_states((global_seed, epoch), sample_indices, 1)[:, 0]
    return _apply_pipelines(*_draw_pipelines(policy, _seed_states((), seeds, 4)), batch)


# PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
# Statistically Good Algorithms for Random Number Generation", 2014) is a
# 128-bit LCG, state <- state * _PCG_MULT + inc, whose 64-bit output is the
# XSL-RR of each new state. 128-bit values are held as high and low uint64
# words; products take their high word from 32-bit halves.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = (np.array(v, dtype=np.uint64) for v in (_PCG_MULT >> 64, _PCG_MULT & (1 << 64) - 1))
_U1, _U11, _U32, _U58, _U63, _U64 = (np.array(v, dtype=np.uint64) for v in (1, 11, 32, 58, 63, 64))
_LOW32, _TWO32 = np.array(_MASK32, dtype=np.uint64), np.array(1 << 32, dtype=np.uint64)


def _mulhi(a, b):
    """High word of the 128-bit product of uint64 arrays."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return a1 * b1 + (cross0 >> _U32) + (cross1 >> _U32) + (mid >> _U32)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """``state * _PCG_MULT + inc`` mod 2**128, as ``(hi, lo)`` words."""
    prod_lo = lo * _MULT_LO
    new_lo = prod_lo + inc_lo
    new_hi = _mulhi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < prod_lo)
    return new_hi, new_lo


class _PCG64Rows:
    """One numpy PCG64 per row, with the ``Generator`` draws augmentation
    uses, all rows at once. Each row holds numpy's 128-bit state and
    increment as ``(hi, lo)`` uint64 words, copied from the arguments. Each
    draw takes the rows it applies to as an index array and steps only
    those, once per 64-bit output; the other rows keep their place."""

    def __init__(self, state, inc):
        self.hi, self.lo = (np.array(w, dtype=np.uint64) for w in state)
        self.inc_hi, self.inc_lo = (np.array(w, dtype=np.uint64) for w in inc)
        # the buffered high half of a 64-bit output (numpy's has_uint32)
        self.has32 = np.zeros(len(self.lo), dtype=bool)
        self.buf32 = np.zeros(len(self.lo), dtype=np.uint64)

    @classmethod
    def seeded(cls, words):
        """The streams of ``PCG64(_Words(w))`` for each row ``w`` of
        ``(rows, 4)`` seed words, as numpy's ``pcg64_set_seed`` builds them
        from ``s = w[0:2]`` and ``i = w[2:4]`` (high word first):
        ``inc = 2 * i + 1``, and numpy's state, one step after ``inc + s``."""
        s_hi, s_lo, i_hi, i_lo = np.asarray(words, dtype=np.uint64).reshape(-1, 4).T
        inc = (i_hi << _U1) | (i_lo >> _U63), (i_lo << _U1) | _U1
        lo = inc[1] + s_lo
        return cls(_lcg_step(inc[0] + s_hi + (lo < s_lo), lo, *inc), inc)

    def next64(self, rows):
        """The next 64-bit output of each row in ``rows``."""
        hi, lo = _lcg_step(self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        xored, rot = hi ^ lo, hi >> _U58
        return (xored >> rot) | (xored << ((_U64 - rot) & _U63))

    def next32(self, rows):
        """numpy's ``next_uint32``: the buffered high half of an output
        an earlier call took the low half of, else the low half of a new
        output, whose high half is buffered."""
        out = self.buf32[rows]
        fresh = ~self.has32[rows]
        self.has32[rows] = fresh
        if fresh.any():
            fresh_rows = rows[fresh]
            raw = self.next64(fresh_rows)
            out[fresh] = raw & _LOW32
            self.buf32[fresh_rows] = raw >> _U32
        return out

    def integers32(self, rows, n):
        """``integers(0, n)`` for each row, with ``1 <= n < 2**32`` a uint64
        array, one per row: 32-bit Lemire (Lemire, "Fast Random Integer
        Generation in an Interval", ACM TOMACS 2019). ``n == 1`` draws
        nothing; a rejected row redraws alone."""
        drawing = n > _U1
        if not drawing.all():
            out = np.zeros(rows.shape, dtype=np.uint64)
            out[drawing] = self.integers32(rows[drawing], n[drawing])
            return out
        m = self.next32(rows) * n
        out = m >> _U32
        rejected = (m & _LOW32) < (_TWO32 - n) % n
        if rejected.any():
            out[rejected] = self.integers32(rows[rejected], n[rejected])
        return out

    def integers64(self, rows, n: int):
        """``integers(0, n)`` for each row, ``2**32 < n < 2**64``: 64-bit
        Lemire with a 128-bit product."""
        u = self.next64(rows)
        n_word = np.array(n, dtype=np.uint64)
        out = _mulhi(u, n_word)
        rejected = u * n_word < (2**64 - n) % n
        if rejected.any():
            out[rejected] = self.integers64(rows[rejected], n)
        return out

    def random(self, rows):
        """``random()`` for each row: ``(u64 >> 11) * 2**-53``."""
        return (self.next64(rows) >> _U11) * 2.0**-53
