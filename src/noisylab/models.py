"""Desk-scale model zoo: feature backbone, classifier head, cluster head,
and reconstruction decoder.

Two backbone families: a two-hidden-layer perceptron (works on flat vectors
and on flattened images) and a three-block conv net for image-shaped data.
The decoder mirrors the backbone and ends in a sigmoid so reconstructions
stay in [0, 1]. Initialization is fan-in-scaled uniform, fully seeded.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, conv2d, conv_transpose2d, linear, max_pool2d


def _linear_init(rng, fan_in, fan_out, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype), requires_grad=True)
    b = Tensor(rng.uniform(-bound, bound, size=(fan_out,)).astype(dtype), requires_grad=True)
    return w, b


def _conv_init(rng, c_in, c_out, k, dtype, transposed=False):
    fan_in = c_in * k * k
    bound = 1.0 / np.sqrt(fan_in)
    shape = (c_in, c_out, k, k) if transposed else (c_out, c_in, k, k)
    w = Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)
    b = Tensor(rng.uniform(-bound, bound, size=(c_out,)).astype(dtype), requires_grad=True)
    return w, b


class Module:
    """Tiny base: named parameter registry."""

    def __init__(self):
        self._params = {}

    def _register(self, name, tensor):
        self._params[name] = tensor
        return tensor

    def parameters(self) -> dict:
        return dict(self._params)


class MlpBackbone(Module):
    """flatten -> linear -> relu -> linear -> relu, features of dim d."""

    def __init__(self, input_shape, hidden: int, feature_dim: int, rng, dtype=np.float32):
        super().__init__()
        self.input_shape = tuple(input_shape)
        self.feature_dim = feature_dim
        in_dim = int(np.prod(self.input_shape))
        w1, b1 = _linear_init(rng, in_dim, hidden, dtype)
        w2, b2 = _linear_init(rng, hidden, feature_dim, dtype)
        self.w1, self.b1 = self._register("w1", w1), self._register("b1", b1)
        self.w2, self.b2 = self._register("w2", w2), self._register("b2", b2)

    def __call__(self, x: Tensor) -> Tensor:
        flat = x.reshape(x.shape[0], -1) if x.ndim > 2 else x
        h = linear(flat, self.w1, self.b1, relu=True)
        return linear(h, self.w2, self.b2, relu=True)


class ConvBackbone(Module):
    """Three conv blocks with pooling, then a linear projection to d."""

    def __init__(self, input_shape, feature_dim: int, rng, dtype=np.float32, channels=(8, 16, 32)):
        super().__init__()
        if len(input_shape) != 2:
            raise ValueError(f"conv backbone needs (H, W) input, got {input_shape}")
        h, w = input_shape
        if h % 4 or w % 4:
            raise ValueError("conv backbone needs spatial dims divisible by 4")
        self.input_shape = tuple(input_shape)
        self.feature_dim = feature_dim
        self.channels = channels
        c1, c2, c3 = channels
        self.cw1, self.cb1 = (self._register(n, t) for n, t in zip(("cw1", "cb1"), _conv_init(rng, 1, c1, 3, dtype)))
        self.cw2, self.cb2 = (self._register(n, t) for n, t in zip(("cw2", "cb2"), _conv_init(rng, c1, c2, 3, dtype)))
        self.cw3, self.cb3 = (self._register(n, t) for n, t in zip(("cw3", "cb3"), _conv_init(rng, c2, c3, 3, dtype)))
        flat_dim = c3 * (h // 4) * (w // 4)
        w1, b1 = _linear_init(rng, flat_dim, feature_dim, dtype)
        self.fw, self.fb = self._register("fw", w1), self._register("fb", b1)

    def __call__(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        img = x.reshape(n, 1, *self.input_shape)
        h = max_pool2d(conv2d(img, self.cw1, self.cb1, padding=1).relu(), 2)
        h = max_pool2d(conv2d(h, self.cw2, self.cb2, padding=1).relu(), 2)
        h = conv2d(h, self.cw3, self.cb3, padding=1).relu()
        return linear(h.reshape(n, -1), self.fw, self.fb, relu=True)


class SoftmaxHead(Module):
    """Linear layer followed by softmax; used for classes and clusters."""

    def __init__(self, feature_dim: int, num_outputs: int, rng, dtype=np.float32):
        super().__init__()
        self.num_outputs = num_outputs
        w, b = _linear_init(rng, feature_dim, num_outputs, dtype)
        self.w, self.b = self._register("w", w), self._register("b", b)

    def logits(self, features: Tensor) -> Tensor:
        return linear(features, self.w, self.b)

    def __call__(self, features: Tensor) -> Tensor:
        return self.logits(features).softmax(axis=-1)

    def log_probs(self, features: Tensor) -> Tensor:
        return self.logits(features).log_softmax(axis=-1)


class MlpDecoder(Module):
    """linear -> relu -> linear -> sigmoid, reshaped to the input shape."""

    def __init__(self, feature_dim: int, output_shape, hidden: int, rng, dtype=np.float32):
        super().__init__()
        self.output_shape = tuple(output_shape)
        out_dim = int(np.prod(self.output_shape))
        w1, b1 = _linear_init(rng, feature_dim, hidden, dtype)
        w2, b2 = _linear_init(rng, hidden, out_dim, dtype)
        self.w1, self.b1 = self._register("w1", w1), self._register("b1", b1)
        self.w2, self.b2 = self._register("w2", w2), self._register("b2", b2)

    def __call__(self, features: Tensor) -> Tensor:
        h = linear(features, self.w1, self.b1, relu=True)
        out = linear(h, self.w2, self.b2).sigmoid()
        return out.reshape((features.shape[0],) + self.output_shape)


class ConvDecoder(Module):
    """Linear lift to a small spatial map, two transposed-conv upsamplings,
    then a 1-channel sigmoid projection."""

    def __init__(self, feature_dim: int, output_shape, rng, dtype=np.float32, channels=(16, 8)):
        super().__init__()
        h, w = output_shape
        if h % 4 or w % 4:
            raise ValueError("conv decoder needs spatial dims divisible by 4")
        self.output_shape = tuple(output_shape)
        c1, c2 = channels
        self.c1 = c1
        self.base = (h // 4, w // 4)
        w1, b1 = _linear_init(rng, feature_dim, c1 * (h // 4) * (w // 4), dtype)
        self.fw, self.fb = self._register("fw", w1), self._register("fb", b1)
        self.tw1, self.tb1 = (self._register(n, t) for n, t in zip(("tw1", "tb1"), _conv_init(rng, c1, c2, 2, dtype, transposed=True)))
        self.tw2, self.tb2 = (self._register(n, t) for n, t in zip(("tw2", "tb2"), _conv_init(rng, c2, c2, 2, dtype, transposed=True)))
        self.pw, self.pb = (self._register(n, t) for n, t in zip(("pw", "pb"), _conv_init(rng, c2, 1, 3, dtype)))

    def __call__(self, features: Tensor) -> Tensor:
        n = features.shape[0]
        h = linear(features, self.fw, self.fb, relu=True)
        h = h.reshape(n, self.c1, *self.base)
        h = conv_transpose2d(h, self.tw1, self.tb1, stride=2).relu()
        h = conv_transpose2d(h, self.tw2, self.tb2, stride=2).relu()
        out = conv2d(h, self.pw, self.pb, padding=1).sigmoid()
        return out.reshape((n,) + self.output_shape)


class ModelSet:
    """The four trainable functions, built from one init seed."""

    def __init__(self, input_shape, num_classes, num_clusters, feature_dim, hidden, backbone_kind, init_seed, dtype=np.float32):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(init_seed), 0xB0DE))))
        input_shape = tuple(input_shape)
        if backbone_kind == "mlp":
            self.backbone = MlpBackbone(input_shape, hidden, feature_dim, rng, dtype)
            self.decoder = MlpDecoder(feature_dim, input_shape, hidden, rng, dtype)
        elif backbone_kind == "conv":
            self.backbone = ConvBackbone(input_shape, feature_dim, rng, dtype)
            self.decoder = ConvDecoder(feature_dim, input_shape, rng, dtype)
        else:
            raise ValueError(f"unknown backbone kind: {backbone_kind!r}")
        self.classifier = SoftmaxHead(feature_dim, num_classes, rng, dtype)
        self.cluster_head = SoftmaxHead(feature_dim, num_clusters, rng, dtype)

    def named_modules(self):
        return {
            "backbone": self.backbone,
            "classifier": self.classifier,
            "cluster": self.cluster_head,
            "decoder": self.decoder,
        }

    def parameters(self) -> dict:
        params = {}
        for prefix, module in self.named_modules().items():
            for name, tensor in module.parameters().items():
                params[f"{prefix}.{name}"] = tensor
        return params

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()

    def state_arrays(self) -> dict:
        return {name: p.data for name, p in self.parameters().items()}

    def load_state_arrays(self, arrays: dict):
        """Copy ``arrays`` into the parameter arrays once every name and shape matches."""
        params = self.parameters()
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for name, p in params.items():
            if p.data.shape != arrays[name].shape:
                raise ValueError(f"shape mismatch for {name}: {p.data.shape} vs {arrays[name].shape}")
        for name, p in params.items():
            p.data[...] = arrays[name]

