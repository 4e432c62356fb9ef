"""Minimal reverse-mode automatic differentiation on numpy arrays.

Tensors wrap numpy arrays and record the operations that produced them as
a graph of parent links plus backward closures. Calling ``backward()`` on a
scalar tensor walks that graph in reverse topological order, accumulates
gradients into every reachable tensor with ``requires_grad=True`` and
consumes the graph as it goes, as PyTorch does by default: each op node,
once it has passed its gradient on, drops its parents and its closure, so
the activations, im2col rows, relu masks and pooling slots it held are
freed during the walk, and a second backward through a used graph raises
RuntimeError. A training step thus holds one batch graph at a time. Inside
``no_grad()`` no graph is recorded, for passes whose results are only read.

A leaf's gradient is its ``grad``: the first backward that reaches it sets
it, and a later one adds to it. Nothing here zeroes a gradient: the
optimizer's step sets each ``grad`` to None once it has used it.

The operator catalog is exactly what the small models and losses need:
matmul, broadcasting add/mul, neg, sigmoid, square, a log clamped to
probabilities, sum, softmax/log-softmax, reshape, transpose and max
pooling, plus fused nodes. Subtraction and mean are compositions of these
ops, not nodes of their own: ``a - b`` is ``a + (-b)`` and a mean is the
sum times ``1 / n``. The spatial operators take channels-last (N, H, W, C)
activations and only the shapes the models use; any other shape raises
ShapeError: a conv2d has stride 1, a square k x k kernel and padding below
k; a conv_transpose2d upsamples by its square kernel (stride k, no
padding, no overlap); max pooling is non-overlapping. Each direction of a
convolution is one matrix product over the whole batch (see the spatial
operators). Max pooling, when it records the graph, keeps each window's
first-max slot in one byte, and its backward scatters the gradient once.
No GPU, no broadcasting beyond bias-style shapes.

A fused node runs the same numpy operations, in the same order and dtype,
as the chain of single ops it stands for, so its outputs and gradients are
bit for bit theirs. The fused nodes are ``linear``, ``conv2d`` and
``conv_transpose2d`` (each a product, bias add and optional relu) and the
three training losses, one node per loss, built in ``losses`` with
``Tensor._result``; the losses module docstring gives the order in which
``cluster_loss`` sums the clean view's gradient terms. An operand that
needs no gradient gets none computed.

Default dtype is float32; pass float64 arrays for wide-precision work
(gradient checking needs it).
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

DEFAULT_DTYPE = np.float32

# Log arguments derived from probabilities are clamped to this range.
PROB_EPS = 1e-12

# False inside no_grad(): op results then record no parents and no closure.
_recording = True


class ShapeError(ValueError):
    """Operand shapes invalid for an operator."""


def _as_array(data):
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(DEFAULT_DTYPE)


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the graph: their results have no parents,
    no backward closure and no gradient, and hold nothing alive."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _spent(g):
    """The backward closure of an op node whose graph a backward used."""
    raise RuntimeError("this node's graph was freed by the backward that used it")


class Tensor:
    """A numpy array with an optional gradient and graph provenance."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None
        self.op = "leaf"

    # -- construction helper for op results -------------------------------
    @staticmethod
    def _result(data, parents, backward, op):
        # Built without __init__: op results are float arrays already, or
        # numpy scalars from full reductions and arithmetic on 0-d arrays.
        out = object.__new__(Tensor)
        out.data = data if type(data) is np.ndarray else np.asarray(data)
        out.grad = None
        out.op = op
        if _recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return self.data.item()

    def detach(self):
        """Same values, cut off from the graph (no gradient flows through)."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"

    # -- backward pass -----------------------------------------------------
    def backward(self):
        """Accumulate gradients of this scalar w.r.t. every reachable leaf,
        consuming the graph (see the module docstring); a backward through
        a used graph raises RuntimeError before any gradient changes."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _spent:
                raise RuntimeError(f"backward through a used graph: its {node.op} node was freed by an earlier backward")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        grads = {id(self): np.ones_like(self.data)}
        # popped in reverse topological order, so a node goes once used
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            if node._backward is None:
                if g is not None:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            pairs = () if g is None else node._backward(g)
            node._parents, node._backward = (), _spent
            for parent, pg in pairs:
                if parent.requires_grad:
                    key = id(parent)
                    grads[key] = grads[key] + pg if key in grads else pg

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        try:
            data = self.data + other.data
        except ValueError as exc:
            raise ShapeError(f"add: incompatible shapes {self.shape} and {other.shape}") from exc

        def backward(g, a=self, b=other):
            grads = []
            if a.requires_grad:
                grads.append((a, _unbroadcast(g, a.shape)))
            if b.requires_grad:
                grads.append((b, _unbroadcast(g, b.shape)))
            return grads

        return Tensor._result(data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self):
        def backward(g, a=self):
            return ((a, -g),)

        return Tensor._result(-self.data, (self,), backward, "neg")

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        try:
            data = self.data * other.data
        except ValueError as exc:
            raise ShapeError(f"multiply: incompatible shapes {self.shape} and {other.shape}") from exc

        def backward(g, a=self, b=other):
            grads = []
            if a.requires_grad:
                grads.append((a, _unbroadcast(g * b.data, a.shape)))
            if b.requires_grad:
                grads.append((b, _unbroadcast(g * a.data, b.shape)))
            return grads

        return Tensor._result(data, (self, other), backward, "multiply")

    __rmul__ = __mul__

    def matmul(self, other):
        other = self._coerce(other)
        _check_matmul("matmul", self, other)
        data = self.data @ other.data

        def backward(g, a=self, b=other):
            grads = []
            if a.requires_grad:
                grads.append((a, g @ b.data.T))
            if b.requires_grad:
                grads.append((b, a.data.T @ g))
            return grads

        return Tensor._result(data, (self, other), backward, "matmul")

    __matmul__ = matmul

    # -- elementwise nonlinearities ---------------------------------------
    def sigmoid(self):
        # exp overflow for very negative inputs saturates to exactly 0, which
        # is the correct limit; suppress the spurious warning.
        with np.errstate(over="ignore"):
            y = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g, a=self, y=y):
            return ((a, g * y * (1.0 - y)),)

        return Tensor._result(y, (self,), backward, "sigmoid")

    def clamped_log(self):
        """log of the values clipped to [PROB_EPS, 1]; the gradient passes
        only where a value lies inside that range."""
        mask = (self.data >= PROB_EPS) & (self.data <= 1.0)
        clipped = np.clip(self.data, PROB_EPS, 1.0)

        def backward(g, a=self, clipped=clipped, m=mask):
            return ((a, (g / clipped) * m),)

        return Tensor._result(np.log(clipped), (self,), backward, "clamped_log")

    def square(self):
        def backward(g, a=self):
            return ((a, g * 2.0 * a.data),)

        return Tensor._result(self.data * self.data, (self,), backward, "square")

    # -- reductions --------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g, a=self, axis=axis, keepdims=keepdims):
            return ((a, _unreduce(g, a, axis, keepdims)),)

        return Tensor._result(data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape -------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(g, a=self):
            return ((a, g.reshape(a.shape)),)

        return Tensor._result(data, (self,), backward, "reshape")

    def transpose(self, *axes):
        """The axes permuted as ``np.transpose`` does; every axis is named."""
        inverse = tuple(np.argsort(axes))

        def backward(g, a=self):
            return ((a, g.transpose(inverse)),)

        return Tensor._result(self.data.transpose(axes), (self,), backward, "transpose")

    # -- softmax family ----------------------------------------------------
    def softmax(self, axis=-1):
        z = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=axis, keepdims=True)

        def backward(g, a=self, y=y, axis=axis):
            dot = (g * y).sum(axis=axis, keepdims=True)
            return ((a, y * (g - dot)),)

        return Tensor._result(y, (self,), backward, "softmax")

    def log_softmax(self, axis=-1):
        z = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
        out = z - lse
        sm = np.exp(out)

        def backward(g, a=self, sm=sm, axis=axis):
            return ((a, g - sm * g.sum(axis=axis, keepdims=True)),)

        return Tensor._result(out, (self,), backward, "log_softmax")


def _unbroadcast(grad, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, (gdim, sdim) in enumerate(zip(grad.shape, shape)):
        if sdim == 1 and gdim != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


def _unreduce(g, a, axis, keepdims):
    """Gradient of a sum of ``a`` over ``axis``: g broadcast back to a."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, a.shape).astype(a.dtype, copy=False)


def _check_matmul(name, a, b):
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"{name}: expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{name}: inner dims differ, {a.shape} @ {b.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b``, then ``relu`` if asked, as one node. x: (N, fan_in),
    w: (fan_in, fan_out), b: (fan_out,)."""
    _check_matmul("linear", x, w)
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias shape {b.shape}, expected ({w.shape[1]},)")
    z = x.data @ w.data
    z += b.data
    mask = None
    if relu:
        # backward multiplies by the mask again, and numpy casts a bool mask
        # element by element: a float one gives the same bits (NaN and the
        # sign of zero included) about twice as fast, (64, 256) float32 ~3.5
        # against ~8 us, and costs no more to make under no_grad
        mask = (z > 0).astype(z.dtype)
        z *= mask

    def backward(g, x=x, w=w, b=b, mask=mask):
        if mask is not None:
            g = g * mask
        grads = []
        if b.requires_grad:
            grads.append((b, g.sum(axis=0)))
        if x.requires_grad:
            grads.append((x, g @ w.data.T))
        if w.requires_grad:
            grads.append((w, x.data.T @ g))
        return grads

    return Tensor._result(z, (x, w, b), backward, "linear")


# ---------------------------------------------------------------------------
# Spatial operators. Activations are channels-last, (N, H, W, C), so each
# pixel's channels are one contiguous vector; the weights keep their
# (Cout, Cin, k, k) layout, and (Cin, Cout, k, k) for a transposed conv.
# Each direction of a convolution (stride 1, square k x k kernel, padding
# below k) is one matrix product over the whole batch, in one of two forms
# chosen by its channel counts:
# - im2col: gather each output pixel's k*k input channel vectors into one
#   row, (N*Ho*Wo, k*k*C) for the batch, and multiply by the (k*k*C, Cout)
#   weights. Chellapilla, Puri and Simard, 2006; Georganas et al., "Anatomy
#   of High-Performance Deep Learning Convolutions on SIMD Architectures".
# - kn2row, for a conv with at most a quarter as many output as input
#   channels: multiply the input by every tap's weights first, then add the
#   k*k shifted products. Anderson, Vasudevan, Keane and Gregg, "Low-memory
#   GEMM-based convolution algorithms for deep neural networks", 2017. Its
#   product is k*k*Cout wide where im2col's is k*k*C, so it wins when Cout
#   is small (8->1 at 12x12, batch 64, forward and weight gradient: ~0.28
#   ms against ~0.37 ms) and loses as Cout nears C.
# A bias gradient is a ones-vector product with the (rows, Cout) output
# gradient, which BLAS runs about ten times as fast as numpy's sum over
# rows on the desk layers (18 against 224 us for the first one).
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _gather_index(hp, wp, k):
    """Flat pixel positions in an (hp, wp) image read by each (output
    pixel, kernel tap) pair: row ``p`` holds output pixel p's taps, tap
    (i, j) in column ``i * k + j``."""
    pixels = (np.arange(hp - k + 1)[:, None] * wp + np.arange(wp - k + 1)).reshape(-1, 1)
    taps = (np.arange(k)[:, None] * wp + np.arange(k)).reshape(1, -1)
    idx = (pixels + taps).astype(np.intp)
    idx.flags.writeable = False
    return idx


def _im2col(x, k, pad):
    """(N, H, W, C) -> (N*Ho*Wo, k*k*C) rows, one per output pixel, in the
    (i, j, c) order of the weights' (k, k, Cin) axes."""
    n, h, w, c = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    xp = x
    if pad:
        xp = np.zeros((n, hp, wp, c), dtype=x.dtype)
        xp[:, pad : pad + h, pad : pad + w] = x
    # np.take copies whole channel vectors into a contiguous (N, Ho*Wo,
    # k*k, C) array, so the reshape below is a view. Every index lies in
    # [0, hp*wp) by construction, so "wrap" never wraps; it only skips the
    # per-element bounds check of the default "raise".
    idx = _gather_index(hp, wp, k)
    cols = np.take(xp.reshape(n, hp * wp, c), idx, axis=1, mode="wrap")
    return cols.reshape(-1, k * k * c), hp - k + 1, wp - k + 1


def _tap_windows(size, out_size, k, pad):
    """For each tap offset ``i`` along one axis, the output slice it reaches
    and the input slice it reads there, clipped to the image: output ``o``
    reads input ``o + i - pad``."""
    windows = []
    for i in range(k):
        lo, hi = max(0, pad - i), min(out_size, size + pad - i)
        if lo < hi:
            windows.append((i, slice(lo, hi), slice(lo + i - pad, hi + i - pad)))
    return windows


def _conv_im2col(x, w, pad):
    """The conv output without bias, by im2col, and the weight gradient as
    a function of the output gradient."""
    cout, cin, k, _ = w.shape
    cols, ho, wo = _im2col(x, k, pad)
    out = (cols @ w.transpose(2, 3, 1, 0).reshape(-1, cout)).reshape(len(x), ho, wo, cout)

    def weight_grad(g):
        return (cols.T @ g.reshape(len(cols), cout)).reshape(k, k, cin, cout).transpose(3, 2, 0, 1)

    return out, weight_grad


def _conv_kn2row(x, w, pad):
    """As _conv_im2col, taps first: ``z = W_taps @ x.T`` has one (Cout,
    N*H*W) block per tap, and each tap adds its border-clipped shifted block
    into the output. The tap-major blocks keep those adds contiguous when
    Cout is 1."""
    n, h, wd, cin = x.shape
    cout, _, k, _ = w.shape
    ho, wo = h + 2 * pad - k + 1, wd + 2 * pad - k + 1
    rows, cols = _tap_windows(h, ho, k, pad), _tap_windows(wd, wo, k, pad)
    x2 = x.reshape(-1, cin)
    z = (w.transpose(2, 3, 0, 1).reshape(-1, cin) @ x2.T).reshape(k, k, cout, n, h, wd)
    out = np.zeros((cout, n, ho, wo), dtype=z.dtype)
    for i, yo, yi in rows:
        for j, xo, xi in cols:
            out[:, :, yo, xo] += z[i, j, :, :, yi, xi]

    def weight_grad(g):
        # each tap's copy of g, shifted onto the input pixels it read and
        # zero where it read padding, against x
        gt = g.transpose(3, 0, 1, 2)
        gs = np.zeros((k, k, cout, n, h, wd), dtype=g.dtype)
        for i, yo, yi in rows:
            for j, xo, xi in cols:
                gs[i, j, :, :, yi, xi] = gt[:, :, yo, xo]
        return (gs.reshape(k * k * cout, -1) @ x2).reshape(k, k, cout, cin).transpose(2, 3, 0, 1)

    return np.ascontiguousarray(out.transpose(1, 2, 3, 0)), weight_grad


def _bias_relu(z, b, relu):
    """Add the bias to a contiguous (N, H, W, C) ``z`` in place, then relu
    if asked, as ``linear`` does; returns the relu mask, or None. The bias
    is tiled along image rows, so numpy's inner loop runs over W*C elements
    rather than over the C channels alone."""
    z.reshape(z.shape[0], z.shape[1], -1)[...] += np.tile(b, z.shape[2])
    if not relu:
        return None
    mask = z > 0
    z *= mask
    return mask


def conv2d(x: Tensor, w: Tensor, b: Tensor, padding: int = 0, relu: bool = False) -> Tensor:
    """Stride-1 2-d convolution with a square k x k kernel, ``0 <= padding
    < k`` and an input that holds the kernel once padded, plus the bias and
    then ``relu`` if asked, as one node. x: (N,H,W,C), w: (Cout,Cin,k,k),
    b: (Cout,); the output is (N,Ho,Wo,Cout)."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expects 4-d x and w, got {x.shape} and {w.shape}")
    c = x.shape[3]
    cout, cin, k, kw = w.shape
    if cin != c:
        raise ShapeError(f"conv2d: channel mismatch, x has {c}, w expects {cin}")
    if kw != k or not 0 <= padding < k:
        raise ShapeError(f"conv2d: needs a square kernel and 0 <= padding < k, got {k}x{kw} and {padding}")
    if min(x.shape[1:3]) + 2 * padding < k:
        raise ShapeError(f"conv2d: a {k}x{k} kernel does not fit input {x.shape[1:3]} padded by {padding}")
    if b.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {b.shape}, expected ({cout},)")
    conv = _conv_kn2row if 4 * cout <= cin else _conv_im2col
    out, weight_grad = conv(x.data, w.data, padding)
    mask = _bias_relu(out, b.data, relu)

    def backward(g, x=x, w=w, b=b, mask=mask):
        if mask is not None:
            g = g * mask
        grads = []
        if b.requires_grad:
            grads.append((b, np.ones(g.size // cout, g.dtype) @ g.reshape(-1, cout)))
        if w.requires_grad:
            grads.append((w, weight_grad(g)))
        if x.requires_grad:
            # dx is the full correlation of g with the flipped kernel, whose
            # input and output channels swap: one more im2col and GEMM.
            gcols, _, _ = _im2col(g, k, k - 1 - padding)
            wf = w.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, cin)
            grads.append((x, (gcols @ wf).reshape(x.shape)))
        return grads

    return Tensor._result(out, (x, w, b), backward, "conv2d")


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """Transposed 2-d convolution that upsamples by its square kernel: each
    input pixel writes one k x k output block (stride k, no padding, no
    overlap), plus the bias and then ``relu`` if asked, as one node.
    x: (N,H,W,Cin), w: (Cin,Cout,k,k), b: (Cout,); the output is
    (N,H*k,W*k,Cout)."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv_transpose2d: expects 4-d x and w, got {x.shape} and {w.shape}")
    n, h, wd, cin = x.shape
    wcin, cout, k, kw = w.shape
    if wcin != cin:
        raise ShapeError(f"conv_transpose2d: channel mismatch, x has {cin}, w expects {wcin}")
    if kw != k:
        raise ShapeError(f"conv_transpose2d: needs a square kernel, got {k}x{kw}")
    if b.shape != (cout,):
        raise ShapeError(f"conv_transpose2d: bias shape {b.shape}, expected ({cout},)")
    # One GEMM gives every input pixel its (k, k, Cout) block. The blocks
    # tile the output, so one transposing copy puts them in place; the
    # backward undoes it with one more copy.
    x2 = x.data.reshape(-1, cin)
    wm = w.data.transpose(0, 2, 3, 1).reshape(cin, -1)
    blocks = (x2 @ wm).reshape(n, h, wd, k, k, cout).transpose(0, 1, 3, 2, 4, 5)
    z = blocks.copy().reshape(n, h * k, wd * k, cout)
    mask = _bias_relu(z, b.data, relu)

    def backward(g, x=x, w=w, b=b, mask=mask):
        if mask is not None:
            g = g * mask
        gcols = g.reshape(n, h, k, wd, k, cout).transpose(0, 1, 3, 2, 4, 5).reshape(len(x2), -1)
        grads = []
        if b.requires_grad:
            grads.append((b, np.ones(g.size // cout, g.dtype) @ g.reshape(-1, cout)))
        if w.requires_grad:
            grads.append((w, (x2.T @ gcols).reshape(cin, k, k, cout).transpose(0, 3, 1, 2)))
        if x.requires_grad:
            grads.append((x, (gcols @ wm.T).reshape(x.shape)))
        return grads

    return Tensor._result(z, (x, w, b), backward, "conv_transpose2d")


@functools.lru_cache(maxsize=64)
def _pool_index(h, w, c, k):
    """Flat positions in an (h, w, c) image: each k x k window's first
    element, in output order, and each slot's offset from it."""
    corners = np.arange(h // k)[:, None] * (k * w) + np.arange(w // k) * k
    base = (corners[..., None] * c + np.arange(c)).reshape(-1).astype(np.intp)
    offsets = np.array([(s // k * w + s % k) * c for s in range(k * k)], dtype=np.intp)
    base.flags.writeable = offsets.flags.writeable = False
    return base, offsets


def max_pool2d(x: Tensor, k: int = 2) -> Tensor:
    """Non-overlapping max pooling of an (N,H,W,C) input. The gradient of a
    window goes to its first maximal element in row-major order (argmax's
    tie rule), a slot the forward pass records; a window whose max is NaN
    passes none."""
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d: expects 4-d input, got {x.shape}")
    n, h, w, c = x.shape
    if h % k or w % k:
        raise ShapeError(f"max_pool2d: spatial dims {h}x{w} not divisible by {k}")
    views = [x.data[:, i::k, j::k] for i in range(k) for j in range(k)]
    # keep this chain as it is: it decides which zero a -0.0/+0.0 tie outputs
    out = views[0].copy()
    for v in views[1:]:
        np.maximum(out, v, out=out)
    if not (_recording and x.requires_grad):
        return Tensor._result(out, (x,), None, "max_pool2d")
    # The slot counts the window's leading elements that differ from its
    # max. One that matches none of its first k*k - 1 holds the max in its
    # last, unless the max is NaN, which equals no element: slot k*k.
    differs = np.ones(out.shape, dtype=bool)
    slot = np.zeros(out.shape, dtype=np.min_scalar_type(k * k))
    for v in views[:-1]:
        differs &= v != out
        slot += differs
    slot += np.isnan(out)

    def backward(g, x=x, slot=slot):
        # g scattered once into zeros, so the other slots stay +0.0 (g *
        # mask would give -0.0 where g < 0). Slot k*k is offset past the
        # end and clamped onto one spare cell.
        base, offsets = _pool_index(h, w, c, k)
        size = x.data.size
        pos = np.append(offsets, size).take(slot.reshape(n, -1))
        pos += base
        pos += np.arange(0, size, h * w * c)[:, None]
        np.minimum(pos, size, out=pos)
        dx = np.zeros(size + 1, dtype=g.dtype)
        dx[pos] = g.reshape(pos.shape)
        return ((x, dx[:-1].reshape(x.shape)),)

    return Tensor._result(out, (x,), backward, "max_pool2d")


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, point: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor. The point should be float64;
    the returned error is max over coordinates of
    |analytic - numeric| / max(1, |numeric|). NaN on either side counts as
    infinite error.
    """
    p = Tensor(point.data.astype(np.float64), requires_grad=True)
    out = f(p)
    out.backward()
    analytic = np.zeros_like(p.data) if p.grad is None else np.asarray(p.grad, dtype=np.float64)

    flat = p.data.reshape(-1)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(Tensor(p.data.copy())).item()
        flat[i] = orig - step
        lo = f(Tensor(p.data.copy())).item()
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * step)
    numeric = numeric.reshape(p.data.shape)

    if np.any(np.isnan(analytic)) or np.any(np.isnan(numeric)):
        return float("inf")
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(err.max()) if err.size else 0.0
