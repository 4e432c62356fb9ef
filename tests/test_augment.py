import hashlib
import tracemalloc

import numpy as np
import pytest

from noisylab.augment import (
    ALL_OPS,
    CUTOUT_FILL,
    MAX_BRIGHTNESS_DELTA,
    MAX_CONTRAST_SWING,
    MAX_NOISE_SIGMA,
    MAX_TRANSLATE_FRAC,
    SPATIAL_OPS,
    TRANSLATE_FILL,
    VALUE_OPS,
    AugmentPolicy,
    UnsupportedOpError,
    _apply_pipelines,
    _draw_pipelines,
    _PCG64Rows,
    _seed_states,
    _Words,
    augment_batch,
)

# the config's default policy
POLICY = AugmentPolicy(op_pool=ALL_OPS, num_ops=2, magnitude=0.5)


def _image(seed=0, shape=(10, 10)):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=shape).astype(np.float32)


def _one_op(kind, value, x, seed=0):
    """One op with parameter ``value`` applied to one sample: a single op
    slot of a one-row batch."""
    return _apply_pipelines(np.array([[ALL_OPS.index(kind)]]), np.array([[seed]]), np.array([[value]]), x[None])[0]


def _pipelines(policy, seeds):
    """Each seed's pipeline as drawn by ``_draw_pipelines``, one tuple of
    ``(kind, op seed, parameter)`` per op."""
    kinds, op_seeds, values = _draw_pipelines(policy, _seed_states((), seeds, 4))
    return [tuple((ALL_OPS[k], int(s), float(v)) for k, s, v in zip(*row))
            for row in zip(kinds.T, op_seeds.T, values.T)]


def _row_seed(seed, epoch, index):
    """The seed of the pipeline that ``augment_batch`` draws for one row."""
    return int(_seed_states((seed, epoch), [index], 1)[0, 0])


class TestSeedDerivation:
    def test_stable(self):
        assert _row_seed(1, 2, 3) == _row_seed(1, 2, 3)

    def test_sensitive_to_each_part(self):
        base = _row_seed(1, 2, 3)
        assert _row_seed(9, 2, 3) != base
        assert _row_seed(1, 9, 3) != base
        assert _row_seed(1, 2, 9) != base


# Heads (global seed, epoch) and row values around every word boundary
# numpy's SeedSequence splits at, inside the accepted ranges.
_HEADS = [(), (0,), (2**32 - 1,), (7, 0), (2**32 - 1, 2**31)]
_VALUES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


class TestSeedStates:
    """The batched seeding must equal numpy's SeedSequence word for word."""

    @pytest.mark.parametrize("n_words", [1, 4])
    @pytest.mark.parametrize("head", _HEADS)
    def test_matches_seed_sequence(self, head, n_words):
        expect = [np.random.SeedSequence(head + (v,)).generate_state(n_words, np.uint64).tolist() for v in _VALUES]
        # one batch whose values take one and two words: as Python ints, as
        # uint64, and as int64 where every value fits
        for values in (_VALUES, np.array(_VALUES, dtype=np.uint64)):
            got = _seed_states(head, values, n_words)
            assert got.dtype == np.uint64 and got.flags.c_contiguous
            assert got.tolist() == expect
        assert _seed_states(head, np.array(_VALUES[:5], dtype=np.int64), n_words).tolist() == expect[:5]
        for value, want in zip(_VALUES, expect):
            assert _seed_states(head, [value], n_words).tolist() == [want]
        assert _seed_states(head, [], n_words).shape == (0, n_words)

    @pytest.mark.parametrize("head,values", [
        ((1, 2, 3), [0]), ((2**32,), [0]), ((-1,), [0]), ((1.0,), [0]),
        ((), [-1]), ((), np.array([3, -1])), ((), [2**64]), ((), [1.5]), ((), np.zeros((2, 2), np.int64)),
    ], ids=["three-heads", "head-2**32", "head-negative", "head-float",
            "value-negative", "array-negative", "value-2**64", "value-float", "values-2d"])
    def test_out_of_range_rejected(self, head, values):
        with pytest.raises(ValueError):
            _seed_states(head, values, 4)

    @pytest.mark.parametrize("seed,epoch,index", [(2**32, 0, 0), (0, 2**32, 0), (-1, 0, 0), (0, 0, -1),
                                                  (0, 0, 2**64)])
    def test_augment_batch_rejects_out_of_range(self, seed, epoch, index):
        with pytest.raises(ValueError):
            augment_batch(POLICY, np.zeros((2, 8, 8), np.float32), seed, epoch, [index, 0])
        with pytest.raises(ValueError):
            _seed_states((seed, epoch), [index], 1)

    def test_row_seeds_and_pipelines_match_reference(self):
        policy = AugmentPolicy(op_pool=ALL_OPS, num_ops=3, magnitude=0.7)
        seeds = []
        for parts in [(3, 0, 0), (2**32 - 1, 5, 2**32 + 1), (0, 2**32 - 1, 2**64 - 1)]:
            seeds.append(_row_seed(*parts))
            assert seeds[-1] == _oracle_derive_seed(*parts)
        for row_seeds in [seeds + _VALUES] + [[seed] for seed in seeds + _VALUES]:
            assert _pipelines(policy, row_seeds) == [_oracle_sample_pipeline(policy, s) for s in row_seeds]
        # a long pipeline, 30 ops of up to three draws each (half a kind
        # draw, the seed, the scalar), so each row steps its PCG64 ~75 times
        long_policy = AugmentPolicy(op_pool=("brightness-shift", "contrast-scale"), num_ops=30, magnitude=0.7)
        seeds = [0, 7, 2**64 - 1]
        assert _pipelines(long_policy, seeds) == [_oracle_sample_pipeline(long_policy, s) for s in seeds]


def _fixed_batch(shape, step):
    """A batch from exact float arithmetic: the same bytes on every platform
    and numpy version."""
    return (np.arange(np.prod(shape), dtype=np.float64) * step % 1.0).astype(np.float32).reshape(shape)


class TestGoldenDigests:
    """sha256 of two augmented batches, fixed when the seeding was narrowed
    to 32-bit seeds and epochs. Every view is pinned, gaussian-noise
    included, so a change of stream or kernel, or a numpy version that
    draws differently, shows here."""

    def test_image_batch(self):
        out = augment_batch(POLICY, _fixed_batch((64, 12, 12), 0.6180339887498949), 202, 3, np.arange(64))
        assert hashlib.sha256(out.tobytes()).hexdigest() == \
            "2a4920ded3e8c339cb86305b9c1e0a42e1fd273c9bc405712dd31603352e6202"

    def test_flat_batch(self):
        # indices of one word and of two
        idx = np.concatenate([np.arange(32, dtype=np.uint64), np.uint64(2**64 - 1) - np.arange(32, dtype=np.uint64)])
        policy = AugmentPolicy(op_pool=VALUE_OPS, num_ops=3, magnitude=0.8)
        out = augment_batch(policy, _fixed_batch((64, 11), 0.7548776662466927), 202, 3, idx)
        assert hashlib.sha256(out.tobytes()).hexdigest() == \
            "c78cda7e38e90f793ed4351fd7198e2db9b8ab1c151e380b3e58121d5a024630"


class TestSamplePipeline:
    def test_op_count_and_pool(self):
        policy = AugmentPolicy(op_pool=("gaussian-noise", "brightness-shift"), num_ops=3, magnitude=0.5)
        (pipe,) = _pipelines(policy, [42])
        assert len(pipe) == 3
        assert all(kind in policy.op_pool for kind, _, _ in pipe)

    def test_deterministic_per_seed(self):
        assert _pipelines(POLICY, [5]) == _pipelines(POLICY, [5])
        assert _pipelines(POLICY, [5]) != _pipelines(POLICY, [6])

    def test_policy_validation(self):
        for op_pool, num_ops, magnitude in [((), 2, 0.5), (ALL_OPS, 0, 0.5), (ALL_OPS, 2, 1.5)]:
            with pytest.raises(ValueError):
                AugmentPolicy(op_pool=op_pool, num_ops=num_ops, magnitude=magnitude)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown augment op: 'solarize'"):
            AugmentPolicy(op_pool=("brightness-shift", "solarize"), num_ops=2, magnitude=0.5)


class TestIdentityAtZeroMagnitude:
    @pytest.mark.parametrize("kind", ALL_OPS)
    def test_zero_magnitude_is_identity(self, kind):
        policy = AugmentPolicy(op_pool=(kind,), num_ops=1, magnitude=0.0)
        batch = np.stack([_image(3)] * 10)
        np.testing.assert_array_equal(augment_batch(policy, batch, 0, 0, np.arange(10)), batch)


class TestOps:
    def test_cutout_fills_square(self):
        x = np.ones((8, 8), dtype=np.float32)
        out = _one_op("cutout", 0.5, x, seed=1)
        assert (out == CUTOUT_FILL).sum() == 16
        assert (out == 1.0).sum() == 48

    def test_gaussian_noise_changes_values(self):
        x = np.full((6, 6), 0.5, dtype=np.float32)
        out = _one_op("gaussian-noise", 0.1, x, seed=1)
        assert not np.array_equal(out, x)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_gaussian_noise_on_flat_unclipped(self):
        x = np.zeros(5, dtype=np.float32)
        out = _one_op("gaussian-noise", 1.0, x, seed=1)
        assert out.min() < 0.0 or out.max() > 1.0

    def test_brightness_clips_images(self):
        x = np.full((4, 4), 0.9, dtype=np.float32)
        out = _one_op("brightness-shift", 0.3, x)
        np.testing.assert_allclose(out, 1.0)

    def test_contrast_center_images(self):
        x = np.full((4, 4), 0.5, dtype=np.float32)
        out = _one_op("contrast-scale", 1.4, x)
        np.testing.assert_allclose(out, 0.5)  # fixed point of the scaling

    def test_contrast_center_flat(self):
        x = np.array([1.0, -1.0], dtype=np.float32)
        out = _one_op("contrast-scale", 0.5, x)
        np.testing.assert_allclose(out, [0.5, -0.5])

    def test_translate_moves_content(self):
        x = np.zeros((8, 8), dtype=np.float32)
        x[0, 0] = 1.0
        out = _one_op("translate", 0.3, x, seed=2)
        assert out.shape == x.shape
        assert out.sum() != x.sum() or np.argmax(out) != 0 or np.array_equal(out, x)

    def test_flip_prob_one_mirrors(self):
        x = _image(1, (6, 6))
        out = _one_op("horizontal-flip", 1.0, x)
        np.testing.assert_array_equal(out, x[:, ::-1])

    def test_flip_prob_zero_identity(self):
        x = _image(1, (6, 6))
        out = _one_op("horizontal-flip", 0.0, x)
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("kind", ["cutout", "translate", "horizontal-flip"])
    def test_spatial_ops_reject_flat(self, kind):
        with pytest.raises(UnsupportedOpError):
            _one_op(kind, 0.5, np.zeros(8, dtype=np.float32))

    def test_input_never_mutated(self):
        # every op in turn on one image, and a whole batch
        x = _image(4)
        snapshot = x.copy()
        out = _apply_pipelines(np.arange(len(ALL_OPS))[:, None], np.full((len(ALL_OPS), 1), 3),
                               np.array([[0.5], [0.2], [0.3], [1.4], [0.3], [1.0]]), x[None])
        assert not np.array_equal(out[0], x)
        batch = np.stack([_image(i) for i in range(8)])
        before = batch.copy()
        augment_batch(AugmentPolicy(op_pool=ALL_OPS, num_ops=3, magnitude=1.0), batch, 3, 0, np.arange(8))
        np.testing.assert_array_equal(x, snapshot)
        np.testing.assert_array_equal(batch, before)

    def test_op_deterministic_given_seed(self):
        x = _image(5)
        np.testing.assert_array_equal(_one_op("cutout", 0.4, x, seed=11), _one_op("cutout", 0.4, x, seed=11))


class TestApplyAndBatch:
    def test_empty_batch_returns_copy(self):
        batch = np.zeros((0, 10, 10), dtype=np.float32)
        out = augment_batch(POLICY, batch, 0, 0, [])
        assert out.shape == batch.shape and out.dtype == batch.dtype
        assert out is not batch

    def test_batch_deterministic(self):
        policy = AugmentPolicy(op_pool=ALL_OPS, num_ops=2, magnitude=0.7)
        batch = np.stack([_image(i) for i in range(4)])
        idx = np.arange(4)
        a = augment_batch(policy, batch, global_seed=9, epoch=2, sample_indices=idx)
        b = augment_batch(policy, batch, global_seed=9, epoch=2, sample_indices=idx)
        np.testing.assert_array_equal(a, b)

    def test_batch_varies_by_seed_epoch_and_index(self):
        policy = AugmentPolicy(op_pool=ALL_OPS, num_ops=2, magnitude=0.7)
        batch = np.stack([_image(0)] * 2)
        a = augment_batch(policy, batch, 9, epoch=0, sample_indices=[0, 1])
        b = augment_batch(policy, batch, 9, epoch=1, sample_indices=[0, 1])
        c = augment_batch(policy, batch, 8, epoch=0, sample_indices=[0, 1])
        assert not np.array_equal(a, b)
        assert not np.array_equal(a[0], c[0]) and not np.array_equal(a[1], c[1])
        assert not np.array_equal(a[0], a[1])

    def test_batch_output_in_unit_interval(self):
        policy = AugmentPolicy(op_pool=ALL_OPS, num_ops=2, magnitude=1.0)
        batch = np.stack([_image(i) for i in range(8)])
        out = augment_batch(policy, batch, 1, 0, np.arange(8))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_epoch_call_copies_batch_once(self):
        """An epoch's call (the 1,500 desk train rows) copies the batch once
        and applies every op slot in place: besides the output, its peak
        holds per-kind row groups, not one epoch-sized array per slot."""
        batch = np.random.default_rng(0).uniform(0.0, 1.0, (1500, 12, 12)).astype(np.float32)
        idx = np.arange(len(batch))
        augment_batch(POLICY, batch, 3, 0, idx)  # warm the caches
        tracemalloc.start()
        try:
            augment_batch(POLICY, batch, 3, 1, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~2.2x the batch here; a new array per slot made it ~3.2x
        assert peak < 2.5 * batch.nbytes, peak / batch.nbytes


def _oracle_derive_seed(*parts):
    """The per-sample seeding that batched seeding must reproduce (kept here
    as the reference, built on numpy's SeedSequence)."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


def _oracle_sample_pipeline(policy, rng_seed):
    """The per-sample pipeline draw that batched augmentation must reproduce
    (kept here as the reference): one ``(kind, op seed, parameter)`` tuple
    per op, the parameter being cutout's side fraction, the noise sigma,
    the brightness delta, the contrast scale, translate's largest shift
    fraction or the flip probability."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    m = policy.magnitude
    ops = []
    for slot in range(policy.num_ops):
        kind = policy.op_pool[int(rng.integers(0, len(policy.op_pool)))]
        op_seed = int(rng.integers(0, 2**63 - 1))
        if kind in ("cutout", "horizontal-flip"):
            value = m
        elif kind == "gaussian-noise":
            value = m * MAX_NOISE_SIGMA
        elif kind == "brightness-shift":
            sign = 1.0 if rng.random() < 0.5 else -1.0
            value = sign * m * MAX_BRIGHTNESS_DELTA
        elif kind == "contrast-scale":
            value = 1.0 + m * MAX_CONTRAST_SWING * rng.uniform(-1.0, 1.0)
        else:  # translate
            value = m * MAX_TRANSLATE_FRAC
        ops.append((kind, op_seed, value))
    return tuple(ops)


def _oracle_apply_op(op, x):
    """The per-sample op kernel that batched augmentation must reproduce
    byte for byte (kept here as the reference); ``op`` is a ``(kind, op
    seed, parameter)`` tuple."""
    kind, seed, value = op
    image_shaped = x.ndim == 2
    if not image_shaped and kind in SPATIAL_OPS:
        raise UnsupportedOpError(f"{kind} requires image-shaped input, got shape {x.shape}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = x.copy()

    if kind == "cutout":
        h, w = x.shape
        side_h = int(round(value * h))
        side_w = int(round(value * w))
        if side_h and side_w:
            top = int(rng.integers(0, h - side_h + 1))
            left = int(rng.integers(0, w - side_w + 1))
            out[top : top + side_h, left : left + side_w] = CUTOUT_FILL
    elif kind == "gaussian-noise":
        if value > 0:
            out = out + rng.normal(0.0, value, size=x.shape).astype(x.dtype)
    elif kind == "brightness-shift":
        out = out + np.asarray(value, dtype=x.dtype)
    elif kind == "contrast-scale":
        if value != 1.0:
            center = 0.5 if image_shaped else 0.0
            out = center + np.asarray(value, dtype=x.dtype) * (out - center)
    elif kind == "translate":
        h, w = x.shape
        limit_h = int(round(value * h))
        limit_w = int(round(value * w))
        dy = int(rng.integers(-limit_h, limit_h + 1)) if limit_h else 0
        dx = int(rng.integers(-limit_w, limit_w + 1)) if limit_w else 0
        if dy or dx:
            shifted = np.full_like(x, TRANSLATE_FILL)
            ys, yd = _oracle_shift(h, dy)
            xs, xd = _oracle_shift(w, dx)
            shifted[yd, xd] = x[ys, xs]
            out = shifted
    elif kind == "horizontal-flip":
        if rng.random() < value:
            out = out[:, ::-1].copy()

    if image_shaped:
        out = np.clip(out, 0.0, 1.0)
    return out.astype(x.dtype, copy=False)


def _oracle_shift(size, delta):
    if delta >= 0:
        return slice(0, size - delta), slice(delta, size)
    return slice(-delta, size), slice(0, size + delta)


def _oracle_augment_batch(policy, batch, global_seed, epoch, sample_indices):
    out = np.empty_like(batch)
    for row, idx in enumerate(sample_indices):
        x = batch[row]
        for op in _oracle_sample_pipeline(policy, _oracle_derive_seed(global_seed, epoch, idx)):
            x = _oracle_apply_op(op, x)
        out[row] = x
    return out


def _edge_batch(shape, dtype, seed=0):
    """Values in and just outside [0, 1], with exact 0, -0, 0.5 and 1."""
    x = np.random.default_rng(seed).uniform(-0.1, 1.1, size=shape).astype(dtype)
    flat = x.reshape(len(x), -1)
    flat[:, :4] = np.array([0.0, -0.0, 0.5, 1.0], dtype=dtype)
    return x


class TestBatchMatchesPerSample:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("magnitude", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("num_ops", [1, 3])
    @pytest.mark.parametrize("shape,pool", [((7, 9), ALL_OPS), ((11,), VALUE_OPS)],
                             ids=["images", "flat"])
    def test_byte_identical_to_per_sample_oracle(self, shape, pool, num_ops, magnitude, dtype):
        policy = AugmentPolicy(op_pool=pool, num_ops=num_ops, magnitude=magnitude)
        idx = np.arange(100, 160)
        batch = _edge_batch((len(idx),) + shape, dtype)
        drawn = {kind for i in idx for kind, _, _ in _oracle_sample_pipeline(policy, _oracle_derive_seed(4, 1, i))}
        assert drawn == set(pool)
        out = augment_batch(policy, batch, 4, 1, idx)
        expect = _oracle_augment_batch(policy, batch, 4, 1, idx)
        assert out.dtype == expect.dtype and out.shape == expect.shape
        assert out.tobytes() == expect.tobytes()
        for row in (0, 17):
            op = _oracle_sample_pipeline(policy, _oracle_derive_seed(4, 1, idx[row]))[0]
            kind, seed, value = op
            assert _one_op(kind, value, batch[row], seed).tobytes() == _oracle_apply_op(op, batch[row]).tobytes()

    def test_row_permutation_permutes_output(self):
        policy = AugmentPolicy(op_pool=ALL_OPS, num_ops=3, magnitude=0.8)
        idx = np.arange(40)
        batch = _edge_batch((40, 8, 8), np.float32)
        perm = np.random.default_rng(1).permutation(40)
        out = augment_batch(policy, batch, 2, 5, idx)
        permuted = augment_batch(policy, batch[perm], 2, 5, idx[perm])
        assert permuted.tobytes() == out[perm].tobytes()

    @pytest.mark.parametrize("kind", SPATIAL_OPS)
    def test_spatial_ops_on_flat_batch_raise(self, kind):
        policy = AugmentPolicy(op_pool=(kind,), num_ops=1, magnitude=0.5)
        with pytest.raises(UnsupportedOpError):
            augment_batch(policy, np.zeros((4, 8), dtype=np.float32), 0, 0, np.arange(4))

    def test_mixed_word_layouts(self):
        # indices of one and two words give rows of different entropy
        # layouts in one batch, under the largest seed and epoch
        policy = AugmentPolicy(op_pool=ALL_OPS, num_ops=3, magnitude=0.8)
        idx = np.array([0, 2**32 + 1, 9, 2**32 + 1, 2**40, 2**64 - 1], dtype=np.uint64)
        batch = _edge_batch((len(idx), 8, 8), np.float32)
        out = augment_batch(policy, batch, 2**32 - 1, 2**32 - 1, idx)
        assert out.tobytes() == _oracle_augment_batch(policy, batch, 2**32 - 1, 2**32 - 1, idx).tobytes()
        empty = np.zeros((0, 8, 8), dtype=np.float32)
        out = augment_batch(policy, empty, 2**32 - 1, 0, idx[:0])
        assert out.shape == empty.shape and out.dtype == empty.dtype and out is not empty

    def test_no_seed_sequence_per_sample(self, monkeypatch):
        made = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            made.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        built = []
        for rows in (8, 64):
            made.clear()
            augment_batch(POLICY, _edge_batch((rows, 12, 12), np.float32), 3, 1, np.arange(rows))
            built.append(len(made))
        assert built[0] == built[1], f"SeedSequence objects per batch of 8 and 64 rows: {built}"

    def test_no_pcg64_per_sample_without_noise(self, monkeypatch):
        made = []
        pcg64 = np.random.PCG64

        def counting(*args, **kwargs):
            made.append(args)
            return pcg64(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64", counting)
        pool = tuple(k for k in ALL_OPS if k != "gaussian-noise")
        policy = AugmentPolicy(op_pool=pool, num_ops=3, magnitude=0.5)
        built = []
        for rows in (8, 64):
            made.clear()
            augment_batch(policy, _edge_batch((rows, 12, 12), np.float32), 3, 1, np.arange(rows))
            built.append(len(made))
        assert built[0] == built[1], f"PCG64 objects per batch of 8 and 64 rows: {built}"


_MASK64 = 2**64 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _rows_from_state(states, incs):
    """Batched streams that start from the given PCG64 (state, inc) ints."""
    def words(values):
        return (np.array([v >> 64 for v in values], dtype=np.uint64),
                np.array([v & _MASK64 for v in values], dtype=np.uint64))
    return _PCG64Rows(words(states), words(incs))


def _generator_at(state, inc):
    bit_gen = np.random.PCG64()
    bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                     "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_gen)


def _state_before(output, inc, high):
    """A PCG64 state whose next 64-bit output is ``output``: the state
    after the step has high word ``high`` and the low word that makes its
    XSL-RR ``output``; step back by the multiplier's inverse mod 2**128."""
    rot = high >> 58
    xored = (output << rot | output >> (64 - rot)) & _MASK64
    after = high << 64 | (high ^ xored)
    return (after - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128


# Words at both ends of the range and in between.
_EDGE_WORDS = [[0, 0, 0, 0], [_MASK64] * 4, [0, _MASK64, 0, _MASK64], [_MASK64, 0, _MASK64, 0],
               [1, 2**63, 2**63 - 1, 1]]


def _row_states(rng):
    """Each row's (state, inc, has_uint32, uinteger), as numpy's
    ``PCG64.state`` holds them."""
    words = (w.tolist() for w in (rng.hi, rng.lo, rng.inc_hi, rng.inc_lo, rng.has32, rng.buf32))
    return [(hi << 64 | lo, inc_hi << 64 | inc_lo, int(has32), buf32)
            for hi, lo, inc_hi, inc_lo, has32, buf32 in zip(*words)]


def _numpy_states(bit_gens):
    return [(s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"])
            for s in (g.state for g in bit_gens)]


def _stepped(state, inc, steps):
    for _ in range(steps):
        state = (state * _PCG_MULT + inc) % 2**128
    return state


class TestPCG64Parity:
    """The batched PCG64 must draw what numpy's Generator draws, bit for
    bit, and hold each row's full PCG64 state after every draw."""

    def test_seeding_matches_pcg64_state(self):
        words = np.array(_EDGE_WORDS + np.random.default_rng(0).integers(0, 2**64, (8, 4), dtype=np.uint64,
                                                                         endpoint=False).tolist(),
                         dtype=np.uint64)
        rng = _PCG64Rows.seeded(words)
        bit_gens = [np.random.PCG64(_Words(w)) for w in words]
        assert _row_states(rng) == _numpy_states(bit_gens)
        for _ in range(5):
            assert rng.next64(np.arange(len(words))).tolist() == [int(g.random_raw()) for g in bit_gens]
            assert _row_states(rng) == _numpy_states(bit_gens)

    def test_mixed_draws_match_generator(self):
        # bounds with a high rejection rate (3 * 2**30, 2**32 - 1) and
        # n == 1, which draws nothing; some draws skip the odd rows, and
        # some take no row at all
        program = [(6, "all"), (2**63 - 1, "all"), ("random", "even"), (7, "all"), ("uniform", "odd"),
                   (3 * 2**30, "all"), (1, "all"), (7, "none"), (2**32 - 1, "even"), (2**63 - 1, "odd"),
                   ("random", "none"), (3 * 2**30 + 1, "all"), (5, "all"), (2**63 - 1, "none"), (2, "odd"),
                   (2**63 - 1, "all"), ("random", "all")]
        words = np.random.default_rng(5).integers(0, 2**64, (40, 4), dtype=np.uint64, endpoint=False)
        words[: len(_EDGE_WORDS)] = _EDGE_WORDS
        rows = np.arange(len(words))
        rng = _PCG64Rows.seeded(words)
        gens = [np.random.Generator(np.random.PCG64(_Words(w))) for w in words]
        bit_gens = [g.bit_generator for g in gens]
        for n, which in program:
            sub = {"all": rows, "even": rows[rows % 2 == 0], "odd": rows[rows % 2 == 1], "none": rows[:0]}[which]
            if n == "random":
                got, want = rng.random(sub), [gens[r].random() for r in sub]
            elif n == "uniform":
                got, want = -1.0 + 2.0 * rng.random(sub), [gens[r].uniform(-1.0, 1.0) for r in sub]
            elif n < 2**32:
                got = rng.integers32(sub, np.full(len(sub), n, dtype=np.uint64))
                want = [int(gens[r].integers(0, n)) for r in sub]
            else:
                got, want = rng.integers64(sub, n), [int(gens[r].integers(0, n)) for r in sub]
            assert got.tolist() == want, (n, which)
            assert _row_states(rng) == _numpy_states(bit_gens), (n, which)
        assert rng.next64(rows).tolist() == [g.random_raw() for g in bit_gens]
        assert _row_states(rng) == _numpy_states(bit_gens)

    def test_forced_rejection_32_bit(self):
        # 2**32 % 7 == 4: a 32-bit draw of 0 is rejected. Row 0's first
        # output has a zero low half, row 1's a zero high half, row 2's none.
        inc = 2 * 0x9E3779B97F4A7C15F39CC0605CEDC835 + 1 & (2**128 - 1)
        outputs = [0xDEADBEEF_00000000, 0x00000000_CAFEF00D, 0x12345678_9ABCDEF1]
        states = [_state_before(out, inc, high) for out, high in zip(outputs, (7 << 58 | 5, 3, 63 << 58))]
        rng = _rows_from_state(states, [inc] * 3)
        gens = [_generator_at(s, inc) for s in states]
        bit_gens = [g.bit_generator for g in gens]
        assert _row_states(rng) == _numpy_states(bit_gens)
        rows = np.arange(3)
        for _ in range(3):
            got = rng.integers32(rows, np.full(3, 7, dtype=np.uint64))
            assert got.tolist() == [int(g.integers(0, 7)) for g in gens]
            assert _row_states(rng) == _numpy_states(bit_gens)
        # rows 0 and 1 redrew once: four 32-bit halves, two outputs, against
        # row 2's three halves, whose last output's high half is buffered
        assert [state for state, *_ in _row_states(rng)] == [_stepped(s, inc, 2) for s in states]
        assert rng.has32.tolist() == [False, False, True]
        assert rng.random(rows).tolist() == [g.random() for g in gens]
        assert _row_states(rng) == _numpy_states(bit_gens)

    def test_forced_rejection_64_bit(self):
        # (2**64 - n) % n == 2 for n = 2**63 - 1: an output of 0 is rejected
        inc = 2 * 12345 + 1
        states = [_state_before(0, inc, 0xABCDEF), _state_before(2**64 - 5, inc, 17 << 58)]
        rng = _rows_from_state(states, [inc] * 2)
        gens = [_generator_at(s, inc) for s in states]
        bit_gens = [g.bit_generator for g in gens]
        rows = np.arange(2)
        assert rng.integers64(rows, 2**63 - 1).tolist() == [int(g.integers(0, 2**63 - 1)) for g in gens]
        assert _row_states(rng) == _numpy_states(bit_gens)
        # row 0 redrew once: two steps against row 1's one
        assert [state for state, *_ in _row_states(rng)] == [_stepped(states[0], inc, 2), _stepped(states[1], inc, 1)]
        assert rng.random(rows).tolist() == [g.random() for g in gens]
        assert _row_states(rng) == _numpy_states(bit_gens)
        # a state whose next output is 0 gives random() == 0.0 as numpy does
        again = _rows_from_state(states[:1], [inc])
        assert again.random(np.arange(1)).tolist() == [_generator_at(states[0], inc).random()] == [0.0]
