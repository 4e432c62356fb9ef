import functools
import weakref
import zlib
from collections import Counter

import numpy as np
import pytest

from noisylab import autodiff, config as config_mod
from noisylab import export, training
from noisylab.autodiff import (
    PROB_EPS,
    ShapeError,
    Tensor,
    conv2d,
    conv_transpose2d,
    linear,
    max_pool2d,
    no_grad,
)

import chains as ch


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def _zeros(n):
    """A float64 zero bias of n channels."""
    return t64(np.zeros(n))


def _bias(n):
    """A float64 bias of n channels, some of each sign, for relu cases."""
    return t64(np.linspace(-0.5, 0.5, n))


class TestForwardOps:
    def test_softmax_symmetry(self):
        out = Tensor([0.0, 0.0]).softmax()
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_transpose_permutes_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        out = t64(x).transpose(2, 0, 1)
        np.testing.assert_array_equal(out.data, x.transpose(2, 0, 1))

    def test_matmul_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        out = t64(np.eye(3)).matmul(t64(a))
        np.testing.assert_allclose(out.data, a)

    def test_matmul_shape_error_names_operator(self):
        with pytest.raises(ShapeError, match="matmul"):
            Tensor(np.zeros((2, 3))).matmul(Tensor(np.zeros((2, 3))))

    def test_linear_shape_errors_name_operator(self):
        x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="linear: inner dims"):
            linear(x, Tensor(np.zeros((2, 4))), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError, match="linear: bias shape"):
            linear(x, w, Tensor(np.zeros(3)))

    @pytest.mark.parametrize("wshape,padding", [((2, 1, 3, 2), 1), ((2, 1, 3, 3), 3), ((2, 1, 3, 3), 4),
                                                ((2, 1, 1, 1), 1), ((2, 1, 3, 3), -1)],
                             ids=["non-square", "pad-eq-k", "pad-gt-k", "1x1-pad1", "negative-pad"])
    def test_conv2d_rejects_other_shapes(self, wshape, padding):
        with pytest.raises(ShapeError, match="conv2d: needs a square kernel"):
            conv2d(Tensor(np.zeros((1, 6, 6, 1))), Tensor(np.zeros(wshape)), _zeros(2), padding=padding)

    def test_conv2d_rejects_input_smaller_than_kernel(self):
        with pytest.raises(ShapeError, match="a 5x5 kernel does not fit input"):
            conv2d(Tensor(np.zeros((1, 6, 2, 1))), Tensor(np.zeros((1, 1, 5, 5))), _zeros(1), padding=1)

    def test_conv_transpose2d_rejects_non_square_kernel(self):
        with pytest.raises(ShapeError, match="conv_transpose2d: needs a square kernel"):
            conv_transpose2d(Tensor(np.zeros((1, 3, 3, 2))), Tensor(np.zeros((2, 1, 2, 3))), _zeros(1))

    def test_conv2d_reads_channels_last(self):
        # a (1, 2, 2, 3) input holds 3 channels; as (N, C, H, W) it would
        # hold 2, which the (4, 3, 1, 1) weights reject
        out = conv2d(Tensor(np.ones((1, 2, 2, 3))), Tensor(np.ones((4, 3, 1, 1))), _zeros(4))
        assert out.shape == (1, 2, 2, 4)
        np.testing.assert_array_equal(out.data, 3.0)

    def test_conv_transpose2d_upsamples_by_kernel(self):
        # stride k, no padding: every input pixel writes its own k x k block
        x = np.arange(4.0).reshape(1, 2, 2, 1)
        out = conv_transpose2d(t64(x), t64(np.ones((1, 1, 3, 3))), _zeros(1))
        np.testing.assert_array_equal(out.data[0, :, :, 0], np.kron(x[0, :, :, 0], np.ones((3, 3))))

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(0)
        probs = t64(rng.standard_normal((16, 5))).softmax(axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-9)
        assert probs.data.min() >= 0.0 and probs.data.max() <= 1.0

    def test_forward_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        a = Tensor(x).softmax(axis=-1).data
        b = Tensor(x).softmax(axis=-1).data
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_sum_of_squares(self):
        w = t64([1.0, 2.0], requires_grad=True)
        ch.sum(ch.mul(w, w)).backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_detached_has_no_grad(self):
        w = t64([1.0, 2.0], requires_grad=True)
        loss = ch.sum(ch.mul(ch.detach(w), 3.0))
        loss.backward()
        assert w.grad is None

    def test_non_scalar_rejected(self):
        w = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            ch.mul(w, w).backward()

    def test_grad_accumulates_on_reuse(self):
        w = t64([3.0], requires_grad=True)
        ch.sum(w + w).backward()
        np.testing.assert_allclose(w.grad, [2.0])

    def test_matmul_computes_no_gradient_for_constant_operand(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 5)).astype(np.float32)
        w1 = rng.standard_normal((5, 7)).astype(np.float32)
        w2 = rng.standard_normal((7, 3)).astype(np.float32)

        def graph(x_leaf):
            ws = [Tensor(w.copy(), requires_grad=True) for w in (w1, w2)]
            return x_leaf.matmul(ws[0]).sigmoid().matmul(ws[1]), ws

        def grads(out, ws):
            ch.sum(ch.square(out)).backward()
            return [w.grad for w in ws]

        x_leaf = Tensor(x)
        out, ws = graph(x_leaf)
        # backward frees the graph, so it is read before
        first = out._parents[0]._parents[0]
        assert first.op == "matmul"
        g = np.ones(first.shape, dtype=np.float32)
        assert [t for t, _ in first._backward(g)] == [first._parents[1]]
        got = grads(out, ws)
        assert x_leaf.grad is None
        # same bits as when the input's gradient is computed too
        want = grads(*graph(Tensor(x, requires_grad=True)))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_backward_frees_the_graph(self):
        """With the loss still held, the arrays a conv2d -> max_pool2d ->
        linear graph recorded are freed once backward returns."""
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 4, 4, 1)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 1, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, np.float32), requires_grad=True)
        fw = Tensor(rng.standard_normal((12, 2)).astype(np.float32), requires_grad=True)
        fb = Tensor(np.zeros(2, np.float32), requires_grad=True)
        conv = conv2d(x, w, b, padding=1, relu=True)
        pool = max_pool2d(conv, 2)
        loss = ch.sum(ch.square(linear(pool.reshape(2, -1), fw, fb)))
        # the outputs, the relu mask and the pool's slots; only the graph
        # holds the last two
        refs = [weakref.ref(a) for a in (conv.data, pool.data, conv._backward.__defaults__[-1],
                                         pool._backward.__defaults__[-1])]
        del conv, pool
        assert all(r() is not None for r in refs)
        loss.backward()
        assert [i for i, r in enumerate(refs) if r() is not None] == []
        assert loss._parents == () and all(t.grad is not None for t in (w, b, fw, fb))

    def test_second_backward_raises_and_keeps_gradients(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(2).astype(np.float32), requires_grad=True)
        h = linear(x, w, b, relu=True)
        loss = ch.sum(h.sigmoid())
        loss.backward()
        before = [(t.grad, t.grad.tobytes()) for t in (w, b)]
        with pytest.raises(RuntimeError, match="its sum node"):
            loss.backward()
        # a new loss on a node of the used graph, next to a live leaf
        with pytest.raises(RuntimeError, match="its linear node"):
            (ch.sum(ch.square(h)) + ch.sum(w)).backward()
        with pytest.raises(RuntimeError):
            loss._backward(np.ones((), np.float32))
        assert all(t.grad is g and t.grad.tobytes() == bytes_ for t, (g, bytes_) in zip((w, b), before))

    def test_mlp_matches_finite_differences(self):
        # 3-layer perceptron; checks the whole chain at once
        rng = np.random.default_rng(42)
        w1 = rng.standard_normal((5, 8))
        w2 = rng.standard_normal((8, 8))
        w3 = rng.standard_normal((8, 3))
        x = rng.standard_normal((4, 5))

        def f(t):
            h = linear(Tensor(x), t, _zeros(8), relu=True)
            h = linear(h, Tensor(w2), _zeros(8), relu=True)
            return ch.mean(ch.square(h.matmul(Tensor(w3)).log_softmax(axis=-1)))

        assert ch.grad_check(f, t64(w1), step=1e-5) <= 1e-4

    def test_two_runs_bit_identical(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((4, 2)).astype(np.float32)

        def run():
            wt = Tensor(w.copy(), requires_grad=True)
            loss = ch.sum(ch.square(Tensor(x.copy()).matmul(wt).softmax(axis=-1)))
            loss.backward()
            return loss.data.copy(), wt.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(g1, g2)


def _sq_sum(t):
    """The sum of the squares of a Tensor's values, as a chain of nodes."""
    return ch.sum(ch.square(t))


class TestGradCheckOracle:
    def test_polynomial_near_exact(self):
        err = ch.grad_check(lambda t: ch.sum(ch.mul(t, t)), t64([1.0, 2.0, 3.0]))
        assert err < 1e-6

    def test_nan_reported_as_failure(self):
        err = ch.grad_check(lambda t: ch.sum(ch.mul(t, float("nan"))), t64([1.0]))
        assert err == float("inf")


OPERATOR_CASES = [
    ("add", lambda t, aux: _sq_sum(t + Tensor(aux)), (3, 4)),
    ("multiply", lambda t, aux: ch.sum(ch.mul(t, Tensor(aux))), (3, 4)),
    ("matmul", lambda t, aux: _sq_sum(t.matmul(Tensor(aux.T))), (3, 4)),
    ("sigmoid", lambda t, aux: _sq_sum(t.sigmoid()), (3, 4)),
    ("square", lambda t, aux: ch.sum(ch.square(t)), (3, 4)),
    ("sum_axis", lambda t, aux: _sq_sum(ch.sum(t, axis=1)), (3, 4)),
    ("mean", lambda t, aux: _sq_sum(ch.mean(t)), (3, 4)),
    ("mean_axis0", lambda t, aux: ch.sum(ch.mul(ch.mean(t, axis=0), Tensor(aux[0]))), (3, 4)),
    ("mean_last_keepdims", lambda t, aux: ch.sum(ch.mul(ch.mean(t, axis=-1, keepdims=True), Tensor(aux))), (3, 4)),
    ("sub", lambda t, aux: _sq_sum(ch.sub(t, Tensor(aux[0]))), (3, 4)),
    ("sub_subtrahend", lambda t, aux: _sq_sum(ch.sub(Tensor(aux), t)), (3, 4)),
    ("linear", lambda t, aux: _sq_sum(linear(t, Tensor(aux.T), Tensor(aux[:, 0]))), (3, 4)),
    ("linear_relu", lambda t, aux: _sq_sum(linear(t, Tensor(aux.T), Tensor(aux[:, 0]), relu=True)), (3, 4)),
    ("linear_w", lambda t, aux: _sq_sum(linear(Tensor(aux.T), t, Tensor(aux[0]), relu=True)), (3, 4)),
    ("linear_b", lambda t, aux: _sq_sum(linear(Tensor(aux), Tensor(aux.T), t, relu=True)), (3,)),
    ("softmax", lambda t, aux: _sq_sum(t.softmax(axis=-1)), (3, 4)),
    ("log_softmax", lambda t, aux: _sq_sum(t.log_softmax(axis=-1)), (3, 4)),
    ("reshape", lambda t, aux: ch.sum(t.reshape(4, 3).matmul(Tensor(aux[:, :3]))), (3, 4)),
    ("transpose", lambda t, aux: _sq_sum(ch.mul(t.transpose(1, 2, 0), Tensor(aux))), (2, 3, 4)),
    ("clamped_log", lambda t, aux: ch.sum(ch.clamped_log(t.softmax(axis=-1))), (3, 4)),
    # the conv operators read and write channels-last (N, H, W, C) arrays
    ("conv2d", lambda t, aux: _sq_sum(conv2d(t, Tensor(aux), _zeros(aux.shape[0]), padding=1)), (2, 5, 5, 2)),
    ("conv2d_relu",
     lambda t, aux: _sq_sum(conv2d(t, Tensor(aux), _bias(aux.shape[0]), padding=1, relu=True)), (2, 5, 5, 2)),
    ("conv2d_w", lambda t, aux: _sq_sum(conv2d(Tensor(aux), t, _zeros(t.shape[0]), padding=0)), (3, 2, 3, 3)),
    ("conv2d_b",
     lambda t, aux: _sq_sum(conv2d(Tensor(aux), Tensor(np.full((3, 2, 3, 3), 0.3)), t, padding=1, relu=True)),
     (3,)),
    ("conv_transpose2d",
     lambda t, aux: _sq_sum(conv_transpose2d(t, Tensor(aux), _zeros(aux.shape[1]))), (2, 3, 3, 2)),
    ("conv_transpose2d_relu",
     lambda t, aux: _sq_sum(conv_transpose2d(t, Tensor(aux), _bias(aux.shape[1]), relu=True)), (2, 3, 3, 2)),
    ("conv_transpose2d_w",
     lambda t, aux: _sq_sum(conv_transpose2d(Tensor(aux), t, _bias(t.shape[1]), relu=True)), (2, 3, 2, 2)),
    ("max_pool2d", lambda t, aux: _sq_sum(max_pool2d(t, 2)), (1, 4, 4, 2)),
    # input gradients on conv paths the model zoo does not take
    ("conv2d_pad0",
     lambda t, aux: _sq_sum(conv2d(t, Tensor(aux), _zeros(aux.shape[0]), padding=0)), (2, 5, 5, 2)),
    ("conv2d_pad2",
     lambda t, aux: _sq_sum(conv2d(t, Tensor(aux), _zeros(aux.shape[0]), padding=2)), (2, 5, 5, 2)),
    ("conv2d_1x1", lambda t, aux: _sq_sum(conv2d(t, Tensor(aux), _zeros(aux.shape[0]))), (2, 4, 4, 2)),
    # a conv with at most a quarter as many output as input channels
    ("conv2d_narrow",
     lambda t, aux: _sq_sum(conv2d(t, Tensor(aux), _zeros(aux.shape[0]), padding=1)), (2, 5, 5, 4)),
    ("conv2d_narrow_w",
     lambda t, aux: _sq_sum(conv2d(Tensor(aux), t, _zeros(t.shape[0]), padding=2)), (1, 4, 3, 3)),
]


@pytest.mark.parametrize("name,fn,shape", OPERATOR_CASES, ids=[c[0] for c in OPERATOR_CASES])
def test_operator_gradients_match_finite_differences(name, fn, shape):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    aux_shape = {
        "transpose": (3, 4, 2),
        "conv2d": (3, 2, 3, 3),
        "conv2d_relu": (3, 2, 3, 3),
        "conv2d_w": (2, 5, 5, 2),
        "conv2d_b": (2, 5, 5, 2),
        "conv_transpose2d": (2, 3, 2, 2),
        "conv_transpose2d_relu": (2, 3, 2, 2),
        "conv_transpose2d_w": (2, 3, 3, 2),
        "conv2d_pad0": (3, 2, 3, 3),
        "conv2d_pad2": (3, 2, 3, 3),
        "conv2d_1x1": (3, 2, 1, 1),
        "conv2d_narrow": (1, 4, 3, 3),
        "conv2d_narrow_w": (2, 4, 5, 4),
    }.get(name, (3, 4))
    for trial in range(20):
        point = t64(rng.standard_normal(shape))
        aux = rng.standard_normal(aux_shape)
        assert ch.grad_check(lambda t: fn(t, aux), point, step=1e-5) <= 1e-4, f"{name} trial {trial}"


# ---------------------------------------------------------------------------
# The im2col/einsum kernels the GEMM kernels replaced, kept as the reference.
# They work on (N, C, H, W) arrays; the operators' channels-last arrays reach
# them through a transpose.
# ---------------------------------------------------------------------------

def _nchw(a):
    return a.transpose(0, 3, 1, 2)


def _nhwc(a):
    return a.transpose(0, 2, 3, 1)


def _oracle_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kh * kw, ho * wo), ho, wo


# (N, H, W, C) inputs: the desk layers' and non-square ones
GATHER_INPUTS = [(2, 12, 12, 1), (2, 6, 6, 8), (2, 3, 3, 16), (2, 12, 12, 8), (2, 16, 16, 1),
                 (1, 5, 7, 2), (1, 7, 4, 3), (1, 2, 9, 1)]


class TestGatherIndex:
    @pytest.mark.parametrize("shape", GATHER_INPUTS, ids=str)
    def test_in_range_and_im2col_matches_oracle(self, shape):
        """_im2col gathers with mode="wrap", which would silently wrap an
        out-of-range index: every index must lie in [0, hp*wp)."""
        n, h, w, c = shape
        x = np.random.default_rng(zlib.crc32(repr(shape).encode())).standard_normal(shape).astype(np.float32)
        checked = 0
        for k in (2, 3):
            for pad in (0, 1, 2):
                ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
                if ho < 1 or wo < 1:
                    continue
                hp, wp = h + 2 * pad, w + 2 * pad
                idx = autodiff._gather_index(hp, wp, k)
                assert idx.shape == (ho * wo, k * k)
                assert idx.min() >= 0 and idx.max() < hp * wp, (k, pad)
                cols, got_ho, got_wo = autodiff._im2col(x, k, pad)
                # the oracle's (N, C*k*k, Ho*Wo) columns as one (i, j, c) row
                # per output pixel
                want, _, _ = _oracle_im2col(_nchw(x), k, k, 1, pad)
                want = want.reshape(n, c, k * k, ho * wo).transpose(0, 3, 2, 1).reshape(n * ho * wo, k * k * c)
                assert (got_ho, got_wo) == (ho, wo)
                assert cols.dtype == want.dtype and cols.shape == want.shape
                assert cols.tobytes() == want.tobytes(), (k, pad)
                checked += 1
        assert checked >= 5


def _oracle_col2im(cols, xshape, kh, kw, stride, pad):
    n, c, h, w = xshape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols6[:, :, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w]


def _oracle_conv2d(x, w, b, stride=1, padding=0):
    """Forward output and (dx, dw, db) for upstream gradient g, as arrays."""
    n = x.shape[0]
    cout, _, kh, kw = w.shape
    cols, ho, wo = _oracle_im2col(x, kh, kw, stride, padding)
    w2 = w.reshape(cout, -1)
    out = np.einsum("ok,nkl->nol", w2, cols, optimize=True).reshape(n, cout, ho, wo)
    out = out + b[None, :, None, None]

    def grads(g):
        g2 = g.reshape(n, cout, ho * wo)
        dw = np.einsum("nol,nkl->ok", g2, cols, optimize=True).reshape(w.shape)
        dcols = np.einsum("ok,nol->nkl", w2, g2, optimize=True)
        dx = _oracle_col2im(dcols, x.shape, kh, kw, stride, padding)
        return dx, dw, g.sum(axis=(0, 2, 3))

    return out, grads


def _oracle_conv_transpose2d(x, w, b, stride=1, padding=0):
    n, cin, h, wd = x.shape
    _, cout, kh, kw = w.shape
    ho = (h - 1) * stride - 2 * padding + kh
    wo = (wd - 1) * stride - 2 * padding + kw
    w2 = w.reshape(cin, cout * kh * kw)
    x2 = x.reshape(n, cin, h * wd)
    cols = np.einsum("ck,ncl->nkl", w2, x2, optimize=True)
    out = _oracle_col2im(cols, (n, cout, ho, wo), kh, kw, stride, padding)
    out = out + b[None, :, None, None]

    def grads(g):
        cols_g, _, _ = _oracle_im2col(g, kh, kw, stride, padding)
        dx = np.einsum("ck,nkl->ncl", w2, cols_g, optimize=True).reshape(x.shape)
        dw = np.einsum("ncl,nkl->ck", x2, cols_g, optimize=True).reshape(w.shape)
        return dx, dw, g.sum(axis=(0, 2, 3))

    return out, grads


def _oracle_max_pool2d(x, k=2):
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
    flat = xr.reshape(n, c, h // k, w // k, k * k)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def grad(g):
        dflat = np.zeros((n, c, h // k, w // k, k * k), dtype=g.dtype)
        np.put_along_axis(dflat, idx[..., None], g[..., None], axis=-1)
        return dflat.reshape(n, c, h // k, w // k, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)

    return out, grad


def _run_op(op, x, w, b, x_grad=True, **kw):
    """Forward output, upstream gradient and the (x, w, b) gradients."""
    xt = Tensor(x, requires_grad=x_grad)
    wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    out = op(xt, wt, bt, **kw)
    g = np.random.default_rng(7).standard_normal(out.shape).astype(np.float32)
    ch.sum(ch.mul(out, Tensor(g))).backward()
    return out.data, g, (xt.grad, wt.grad, bt.grad)


def _assert_float32_close(got, want):
    # reordered float32 sums: a few ulps of the largest magnitude involved
    scale = max(float(np.abs(want).max()), 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * scale)


# The desk-conv layers: (kind, cin, cout, k, size, stride, padding).
DESK_CONV_LAYERS = [
    ("conv2d", 1, 8, 3, 12, 1, 1),
    ("conv2d", 8, 16, 3, 6, 1, 1),
    ("conv2d", 16, 32, 3, 3, 1, 1),
    ("conv_transpose2d", 16, 8, 2, 3, 2, 0),
    ("conv_transpose2d", 8, 8, 2, 6, 2, 0),
    ("conv2d", 8, 1, 3, 12, 1, 1),
]


# Convs the model zoo does not run, around the channel rule: 8->2 is the
# widest output that still takes the kn2row form, 8->3 the narrowest that
# does not; padding 0 and 2 clip the shifted taps differently from 1.
NARROW_CONV_LAYERS = [
    ("conv2d", 8, 2, 3, 12, 1, 1),
    ("conv2d", 8, 3, 3, 12, 1, 1),
    ("conv2d", 16, 1, 3, 6, 1, 1),
    ("conv2d", 4, 1, 3, 12, 1, 0),
    ("conv2d", 4, 1, 3, 12, 1, 2),
]


def _layer_id(layer):
    return f"{layer[0]}-{layer[1]}to{layer[2]}-{layer[4]}px-pad{layer[6]}"


class TestKernelsMatchOracle:
    @staticmethod
    def _check_layer(layer, batch):
        kind, cin, cout, k, size, stride, padding = layer
        rng = np.random.default_rng(zlib.crc32(repr(layer).encode()) + batch)
        x = rng.standard_normal((batch, size, size, cin)).astype(np.float32)
        wshape = (cout, cin, k, k) if kind == "conv2d" else (cin, cout, k, k)
        bound = 1.0 / np.sqrt(cin * k * k)
        w = rng.uniform(-bound, bound, wshape).astype(np.float32)
        b = rng.uniform(-bound, bound, cout).astype(np.float32)
        op, oracle = (conv2d, _oracle_conv2d) if kind == "conv2d" else (conv_transpose2d, _oracle_conv_transpose2d)
        # the backbone's first layer reads the images, which need no gradient
        x_grad = cin != 1
        kw = {"padding": padding} if kind == "conv2d" else {}
        out, g, (dx, dw, db) = _run_op(op, x, w, b, x_grad=x_grad, **kw)
        want_out, want_grads = oracle(_nchw(x), w, b, stride=stride, padding=padding)
        want_out = _nhwc(want_out)
        want_dx, want_dw, want_db = want_grads(_nchw(g))
        want_dx = _nhwc(want_dx)
        assert out.dtype == dw.dtype == db.dtype == np.float32
        assert (out.shape, dw.shape) == (want_out.shape, want_dw.shape)
        _assert_float32_close(out, want_out)
        _assert_float32_close(dw, want_dw)
        _assert_float32_close(db, want_db)
        if x_grad:
            assert dx.dtype == np.float32
            _assert_float32_close(dx, want_dx)
        else:
            assert dx is None

    @pytest.mark.parametrize("batch", [64, 256])
    @pytest.mark.parametrize("layer", DESK_CONV_LAYERS, ids=lambda l: f"{l[0]}-{l[1]}to{l[2]}-{l[4]}px")
    def test_desk_conv_layers(self, layer, batch):
        self._check_layer(layer, batch)

    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("layer", NARROW_CONV_LAYERS, ids=_layer_id)
    def test_conv_layers_around_channel_rule(self, layer, batch):
        self._check_layer(layer, batch)

    @pytest.mark.parametrize("cin,cout,unfolds", [(8, 1, False), (8, 2, False), (16, 4, False),
                                                  (8, 3, True), (16, 8, True), (1, 8, True)])
    def test_channel_rule_picks_form(self, monkeypatch, cin, cout, unfolds):
        calls = []
        im2col = autodiff._im2col
        monkeypatch.setattr(autodiff, "_im2col", lambda *a: calls.append(a) or im2col(*a))
        conv2d(Tensor(np.ones((2, 6, 6, cin), np.float32)), Tensor(np.ones((cout, cin, 3, 3), np.float32)),
               Tensor(np.zeros(cout, np.float32)), padding=1)
        assert bool(calls) == unfolds

    @pytest.mark.parametrize("shape", [(64, 12, 12, 8), (256, 6, 6, 16), (3, 4, 6, 2)])
    @pytest.mark.parametrize("zeros", ["negative", "both signs"])
    def test_max_pool_byte_identical_with_ties(self, shape, zeros):
        rng = np.random.default_rng(zlib.crc32(repr(shape).encode()))
        # few distinct values, so most windows tie; relu gives -0.0 for
        # every negative input and +0.0 only for an exact +0.0
        values = [-1.0, -0.0, 0.5, 1.0] + ([0.0] if zeros == "both signs" else [])
        x = rng.choice(np.array(values, dtype=np.float32), size=shape)
        xt = Tensor(x, requires_grad=True)
        out = max_pool2d(xt, 2)
        # an upstream zero reaches its slot with its sign
        g = rng.standard_normal(out.shape).astype(np.float32)
        g[rng.random(out.shape) < 0.2] = -0.0
        g[rng.random(out.shape) < 0.2] = 0.0
        ch.sum(ch.mul(out, Tensor(g))).backward()
        want_out, want_grad = _oracle_max_pool2d(_nchw(x), 2)
        want_out = _nhwc(want_out)
        # tobytes() of a transposed view is its bytes in channels-last order
        assert xt.grad.tobytes() == _nhwc(want_grad(_nchw(g))).tobytes()
        assert np.signbit(xt.grad[xt.grad == 0]).any()
        if zeros == "negative":
            assert out.data.tobytes() == want_out.tobytes()
        else:
            # np.maximum may pick either zero of a -0.0/+0.0 tie
            np.testing.assert_array_equal(out.data, want_out)

    def test_max_pool_propagates_nan(self):
        x = np.array([[[1.0, np.nan], [3.0, 2.0]]], dtype=np.float32)[..., None]
        assert np.isnan(max_pool2d(Tensor(x), 2).data).all()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_max_pool_nan_window_passes_no_gradient(self, k):
        rng = np.random.default_rng(k)
        x = rng.standard_normal((3, 3 * k, 2 * k, 2)).astype(np.float32)
        x[rng.random(x.shape) < 0.3 / k**2] = np.nan
        nan_windows = np.isnan(x).reshape(3, 3, k, 2, k, 2).any(axis=(2, 4))
        assert nan_windows.any() and not nan_windows.all()
        xt = Tensor(x, requires_grad=True)
        out = max_pool2d(xt, k)
        g = rng.standard_normal(out.shape).astype(np.float32)
        ch.sum(ch.mul(out, Tensor(g))).backward()
        _, want_grad = _oracle_max_pool2d(_nchw(x), k)
        in_nan_window = np.repeat(np.repeat(nan_windows, k, axis=1), k, axis=2)
        assert (np.isnan(out.data) == nan_windows).all()
        assert xt.grad.tobytes() == np.where(in_nan_window, np.float32(0), _nhwc(want_grad(_nchw(g)))).tobytes()

    def test_max_pool_under_no_grad(self):
        x = np.random.default_rng(5).standard_normal((4, 6, 6, 3)).astype(np.float32)
        recorded = max_pool2d(Tensor(x, requires_grad=True), 2)
        with no_grad():
            out = max_pool2d(Tensor(x, requires_grad=True), 2)
        assert out._backward is None and not out.requires_grad
        assert out.data.tobytes() == recorded.data.tobytes()


# ---------------------------------------------------------------------------
# The chains of single ops that the fused nodes replaced, kept as the
# reference: a fused node must give their bytes, forward and backward.
# ---------------------------------------------------------------------------

def _oracle_relu(t):
    """Tensor.relu as it was."""
    mask = t.data > 0
    return Tensor._result(t.data * mask, (t,), lambda g, a=t: ((a, g * mask),), "relu")


def _oracle_linear(x, w, b, relu=False):
    z = x.matmul(w) + b
    return _oracle_relu(z) if relu else z


def _oracle_mean(t, axis=None, keepdims=False):
    """The fused mean node that Tensor.mean's sum-then-scale replaced."""
    n = t.data.size if axis is None else t.data.shape[axis]
    scale = np.asarray(1.0 / n, dtype=t.dtype)
    return Tensor._result(t.data.sum(axis=axis, keepdims=keepdims) * scale, (t,),
                          lambda g, a=t: ((a, autodiff._unreduce(g * scale, a, axis, keepdims)),),
                          "mean")


def _oracle_sub(a, b):
    """The fused sub node that Tensor.__sub__'s a + (-b) replaced."""
    def backward(g):
        grads = []
        if a.requires_grad:
            grads.append((a, autodiff._unbroadcast(g, a.shape)))
        if b.requires_grad:
            grads.append((b, -autodiff._unbroadcast(g, b.shape)))
        return grads

    return Tensor._result(a.data - b.data, (a, b), backward, "sub")


def _oracle_clamped_log(t):
    """Tensor.clamp(PROB_EPS, 1.0) and then Tensor.log(), as they were."""
    mask = (t.data >= PROB_EPS) & (t.data <= 1.0)
    clamped = Tensor._result(np.clip(t.data, PROB_EPS, 1.0), (t,),
                             lambda g, a=t: ((a, g * mask),), "clamp")
    return Tensor._result(np.log(clamped.data), (clamped,),
                          lambda g, a=clamped: ((a, g / a.data),), "log")


def _assert_same_bytes(fused, oracle, arrays, needs_grad):
    """Both builds from fresh leaves: the forward output and every leaf
    gradient under one random upstream gradient, byte for byte."""
    results = []
    for build in (fused, oracle):
        leaves = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, needs_grad)]
        out = build(*leaves)
        g = np.random.default_rng(11).standard_normal(out.shape).astype(out.dtype)
        ch.sum(ch.mul(out, Tensor(g))).backward()
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for i, (got, want) in enumerate(zip(*results)):
        if want is None:
            assert got is None, f"item {i}"
            continue
        assert (got.dtype, got.shape) == (want.dtype, want.shape), f"item {i}"
        assert got.tobytes() == want.tobytes(), f"item {i}"


class TestFusedNodesMatchOracle:
    # desk MLP layers: (fan_in, fan_out, relu, input needs a gradient)
    @pytest.mark.parametrize("fan_in,fan_out,relu,x_grad", [
        (144, 256, True, False),   # first backbone layer, on the images
        (256, 64, True, True),     # second backbone layer
        (64, 4, False, True),      # classifier and cluster heads
        (64, 256, True, True),     # first decoder layer
        (256, 144, False, True),   # decoder output, before its sigmoid
    ])
    def test_linear(self, fan_in, fan_out, relu, x_grad):
        rng = np.random.default_rng(fan_in * 1000 + fan_out)
        bound = 1.0 / np.sqrt(fan_in)
        arrays = [rng.standard_normal((64, fan_in)).astype(np.float32),
                  rng.uniform(-bound, bound, (fan_in, fan_out)).astype(np.float32),
                  rng.uniform(-bound, bound, fan_out).astype(np.float32)]
        _assert_same_bytes(lambda x, w, b: linear(x, w, b, relu=relu),
                           lambda x, w, b: _oracle_linear(x, w, b, relu=relu),
                           arrays, (x_grad, True, True))
        # eval passes run the same node without recording it
        recorded = linear(*[Tensor(a, requires_grad=True) for a in arrays], relu=relu)
        with no_grad():
            unrecorded = linear(*[Tensor(a) for a in arrays], relu=relu)
        assert unrecorded._backward is None
        assert unrecorded.data.tobytes() == recorded.data.tobytes()

    # the backbone's middle conv and the decoder's second upsampling, each
    # against the same op without relu followed by relu as a node of its own
    @pytest.mark.parametrize("kind", ["conv2d", "conv_transpose2d"])
    @pytest.mark.parametrize("values", ["floats", "integers"])
    def test_conv_relu(self, kind, values):
        if kind == "conv2d":
            op = functools.partial(conv2d, padding=1)
            xshape, wshape, cout = (64, 6, 6, 8), (16, 8, 3, 3), 16
        else:
            op = conv_transpose2d
            xshape, wshape, cout = (64, 6, 6, 8), (8, 8, 2, 2), 8
        rng = np.random.default_rng(len(kind) + len(values))
        shapes = (xshape, wshape, (cout,))
        if values == "integers":
            # sums of small integers are exact, so many pre-activations are
            # exactly 0, which the mask zeroes as linear(relu=True) does
            arrays = [rng.integers(-1, 2, shape).astype(np.float32) for shape in shapes]
            pre = op(*[Tensor(a) for a in arrays]).data
            assert (pre == 0).any() and (pre > 0).any()
        else:
            arrays = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
        _assert_same_bytes(lambda x, w, b: op(x, w, b, relu=True),
                           lambda x, w, b: _oracle_relu(op(x, w, b)),
                           arrays, (True, True, True))

    # mean and sub are compositions now; each must give the bytes of the
    # single node it replaced
    @pytest.mark.parametrize("shape", [(64, 4), (64, 12, 12)])
    @pytest.mark.parametrize("axis", [None, 0, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean(self, shape, axis, keepdims):
        x = np.random.default_rng(len(shape)).random(shape, dtype=np.float32)
        _assert_same_bytes(lambda t: ch.mean(t, axis=axis, keepdims=keepdims),
                           lambda t: _oracle_mean(t, axis=axis, keepdims=keepdims),
                           [x], (True,))

    @pytest.mark.parametrize("a_shape,b_shape,b_grad", [
        ((64, 8), (8,), True),              # bias-style broadcasting
        ((64, 4), (64, 1), True),
        ((64, 12, 12), (64, 12, 12), False),  # reconstruction error
    ])
    def test_sub(self, a_shape, b_shape, b_grad):
        rng = np.random.default_rng(len(b_shape))
        arrays = [rng.standard_normal(a_shape).astype(np.float32),
                  rng.standard_normal(b_shape).astype(np.float32)]
        _assert_same_bytes(ch.sub, _oracle_sub, arrays, (True, b_grad))

    def test_clamped_log_at_and_beyond_bounds(self):
        lo, hi = np.float32(PROB_EPS), np.float32(1.0)
        edges = [0.0, 1e-30, 1e-13, np.nextafter(lo, np.float32(0)), lo, np.nextafter(lo, hi),
                 0.25, np.nextafter(hi, lo), hi, np.nextafter(hi, np.float32(2)), 1.5, 3.0]
        probs = np.random.default_rng(3).dirichlet(np.ones(4), size=60).astype(np.float32)
        x = np.concatenate([np.array(edges, dtype=np.float32).reshape(3, 4), probs])
        _assert_same_bytes(ch.clamped_log, _oracle_clamped_log, [x], (True,))


class TestLeanGraph:
    def test_no_grad_records_nothing_and_is_restored(self):
        w = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                out = ch.sum(w.matmul(w))
                raise RuntimeError
        assert (out._parents, out._backward, out.requires_grad) == ((), None, False)
        assert ch.sum(w.matmul(w))._parents

    def test_eval_passes_build_no_graph(self, monkeypatch):
        exp = training.build_experiment(_small_config(**{"model.backbone": "conv"}))
        built = []
        result = Tensor._result

        def record(*args):
            built.append(result(*args))
            return built[-1]

        monkeypatch.setattr(Tensor, "_result", staticmethod(record))
        features = exp.dataset.features[:40]
        training.predict_classes(exp.models, features)
        export.compute_embeddings(exp.models, features)
        export.reconstruction_gallery(exp, num_samples=3)
        assert len(built) > 20
        assert all(t._parents == () and t._backward is None and not t.requires_grad for t in built)

    # Nodes built for one training batch, before its optimizer step. Each
    # training loss is one node, whatever alpha is; the two adds are
    # total_loss's.
    @pytest.mark.parametrize("row,want", [
        ("CE", {"reshape": 1, "linear": 3, "log_softmax": 1, "bootstrap_loss": 1}),
        ("+A+B+C", {"reshape": 3, "linear": 9, "log_softmax": 1, "softmax": 2, "sigmoid": 1,
                    "bootstrap_loss": 1, "reconstruction_loss": 1, "cluster_loss": 1, "add": 2}),
    ])
    def test_nodes_per_desk_batch(self, monkeypatch, row, want):
        exp = training.build_experiment(training.ablation_row_config(_small_config(), row))
        ops = []
        result = Tensor._result

        def record(*args):
            ops.append(args[3])
            return result(*args)

        def stop(lr):
            raise _FirstStep

        monkeypatch.setattr(Tensor, "_result", staticmethod(record))
        monkeypatch.setattr(exp.optimizer, "step", stop)
        with pytest.raises(_FirstStep):
            training.train_epoch(exp, 0)
        assert dict(Counter(ops)) == want
        assert len(ops) == {"CE": 6, "+A+B+C": 21}[row]


class _FirstStep(Exception):
    pass


def _small_config(**extra):
    """The desk layout (12x12 images, the MLP, classification on the clean
    view) at a small size, with the bootstrap mix fixed at alpha 0.5."""
    cfg = config_mod.default_config()
    cfg.update({"data.samples": 96, "model.hidden": 16, "model.feature_dim": 8,
                "losses.classification_view": "clean", "alpha.kind": "constant",
                "alpha.constant": 0.5, "data.separation": 4.0})
    cfg.update(extra)
    return config_mod.validate(cfg)
