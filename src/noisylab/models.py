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

# conv channels: the backbone's three blocks; the decoder's lift and upsamplings
BACKBONE_CHANNELS = (8, 16, 32)
DECODER_CHANNELS = (16, 8)


class Module:
    """Tiny base: named parameters. Each is declared with its shape and init
    bound into ``specs``, a list the modules of one ``ModelSet`` share, which
    gives every parameter its memory and draws it."""

    def __init__(self, specs: list):
        self._params = {}
        self._specs = specs

    def _param(self, name, shape, fan_in):
        tensor = self._params[name] = Tensor(np.empty(shape, np.float32), requires_grad=True)
        self._specs.append((tensor, 1.0 / np.sqrt(fan_in)))
        return tensor

    def _linear(self, w, b, fan_in, fan_out):
        return self._param(w, (fan_in, fan_out), fan_in), self._param(b, (fan_out,), fan_in)

    def _conv(self, w, b, c_in, c_out, k, transposed=False):
        shape = (c_in, c_out, k, k) if transposed else (c_out, c_in, k, k)
        return self._param(w, shape, c_in * k * k), self._param(b, (c_out,), c_in * k * k)

    def parameters(self) -> dict:
        return dict(self._params)


class MlpBackbone(Module):
    """flatten -> linear -> relu -> linear -> relu, features of dim d."""

    def __init__(self, input_shape, hidden: int, feature_dim: int, specs: list):
        super().__init__(specs)
        self.input_shape = tuple(input_shape)
        self.feature_dim = feature_dim
        in_dim = int(np.prod(self.input_shape))
        self.w1, self.b1 = self._linear("w1", "b1", in_dim, hidden)
        self.w2, self.b2 = self._linear("w2", "b2", hidden, feature_dim)

    def __call__(self, x: Tensor) -> Tensor:
        flat = x.reshape(x.shape[0], -1) if x.ndim > 2 else x
        h = linear(flat, self.w1, self.b1, relu=True)
        return linear(h, self.w2, self.b2, relu=True)


class ConvBackbone(Module):
    """Three conv blocks with pooling, channels last, then a linear
    projection to d."""

    def __init__(self, input_shape, feature_dim: int, specs: list):
        super().__init__(specs)
        if len(input_shape) != 2:
            raise ValueError(f"conv backbone needs (H, W) input, got {input_shape}")
        h, w = input_shape
        if h % 4 or w % 4:
            raise ValueError("conv backbone needs spatial dims divisible by 4")
        self.input_shape = tuple(input_shape)
        self.feature_dim = feature_dim
        c1, c2, c3 = BACKBONE_CHANNELS
        self.cw1, self.cb1 = self._conv("cw1", "cb1", 1, c1, 3)
        self.cw2, self.cb2 = self._conv("cw2", "cb2", c1, c2, 3)
        self.cw3, self.cb3 = self._conv("cw3", "cb3", c2, c3, 3)
        self.fw, self.fb = self._linear("fw", "fb", c3 * (h // 4) * (w // 4), feature_dim)

    def __call__(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        img = x.reshape(n, *self.input_shape, 1)
        h = max_pool2d(conv2d(img, self.cw1, self.cb1, padding=1, relu=True), 2)
        h = max_pool2d(conv2d(h, self.cw2, self.cb2, padding=1, relu=True), 2)
        h = conv2d(h, self.cw3, self.cb3, padding=1, relu=True)
        # flattened channels first, the order fw's rows were trained in
        return linear(h.transpose(0, 3, 1, 2).reshape(n, -1), self.fw, self.fb, relu=True)


class SoftmaxHead(Module):
    """Linear layer followed by softmax; used for classes and clusters."""

    def __init__(self, feature_dim: int, num_outputs: int, specs: list):
        super().__init__(specs)
        self.num_outputs = num_outputs
        self.w, self.b = self._linear("w", "b", feature_dim, num_outputs)

    def logits(self, features: Tensor) -> Tensor:
        return linear(features, self.w, self.b)

    def __call__(self, features: Tensor) -> Tensor:
        return self.logits(features).softmax(axis=-1)

    def log_probs(self, features: Tensor) -> Tensor:
        return self.logits(features).log_softmax(axis=-1)


class MlpDecoder(Module):
    """linear -> relu -> linear -> sigmoid, reshaped to the input shape."""

    def __init__(self, feature_dim: int, output_shape, hidden: int, specs: list):
        super().__init__(specs)
        self.output_shape = tuple(output_shape)
        self.w1, self.b1 = self._linear("w1", "b1", feature_dim, hidden)
        self.w2, self.b2 = self._linear("w2", "b2", hidden, int(np.prod(self.output_shape)))

    def __call__(self, features: Tensor) -> Tensor:
        h = linear(features, self.w1, self.b1, relu=True)
        out = linear(h, self.w2, self.b2).sigmoid()
        return out.reshape((features.shape[0],) + self.output_shape)


class ConvDecoder(Module):
    """Linear lift to a small spatial map, two transposed-conv upsamplings,
    then a 1-channel sigmoid projection."""

    def __init__(self, feature_dim: int, output_shape, specs: list):
        super().__init__(specs)
        h, w = output_shape
        if h % 4 or w % 4:
            raise ValueError("conv decoder needs spatial dims divisible by 4")
        self.output_shape = tuple(output_shape)
        c1, c2 = DECODER_CHANNELS
        self.base = (h // 4, w // 4)
        self.fw, self.fb = self._linear("fw", "fb", feature_dim, c1 * (h // 4) * (w // 4))
        self.tw1, self.tb1 = self._conv("tw1", "tb1", c1, c2, 2, transposed=True)
        self.tw2, self.tb2 = self._conv("tw2", "tb2", c2, c2, 2, transposed=True)
        self.pw, self.pb = self._conv("pw", "pb", c2, 1, 3)

    def __call__(self, features: Tensor) -> Tensor:
        n = features.shape[0]
        h = linear(features, self.fw, self.fb, relu=True)
        # fw's columns lift channels first; the convs read channels last
        h = h.reshape(n, -1, *self.base).transpose(0, 2, 3, 1)
        h = conv_transpose2d(h, self.tw1, self.tb1, relu=True)
        h = conv_transpose2d(h, self.tw2, self.tb2, relu=True)
        out = conv2d(h, self.pw, self.pb, padding=1).sigmoid()
        return out.reshape((n,) + self.output_shape)


class ModelSet:
    """The four trainable functions. Every parameter is a view into one flat
    float32 buffer, ``flat``, laid out in ``parameters()`` order. Given an
    ``init_seed``, each parameter is drawn from it in that order; with None
    nothing is drawn and ``flat`` waits for a checkpoint to fill it."""

    def __init__(self, input_shape, num_classes, num_clusters, feature_dim, hidden, backbone_kind, init_seed):
        specs = []
        input_shape = tuple(input_shape)
        if backbone_kind == "mlp":
            self.backbone = MlpBackbone(input_shape, hidden, feature_dim, specs)
            self.decoder = MlpDecoder(feature_dim, input_shape, hidden, specs)
        elif backbone_kind == "conv":
            self.backbone = ConvBackbone(input_shape, feature_dim, specs)
            self.decoder = ConvDecoder(feature_dim, input_shape, specs)
        else:
            raise ValueError(f"unknown backbone kind: {backbone_kind!r}")
        self.classifier = SoftmaxHead(feature_dim, num_classes, specs)
        self.cluster_head = SoftmaxHead(feature_dim, num_clusters, specs)
        self.flat = np.empty(sum(t.data.size for t, _ in specs), np.float32)
        rng = None if init_seed is None else np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((int(init_seed), 0xB0DE))))
        lo = 0
        for tensor, bound in specs:
            view = self.flat[lo : lo + tensor.data.size].reshape(tensor.data.shape)
            lo += view.size
            if rng is not None:
                view[...] = rng.uniform(-bound, bound, size=view.shape)
            tensor.data = view

    def named_modules(self):
        """In construction order, which is the order of ``flat`` and of the
        init draw."""
        return {
            "backbone": self.backbone,
            "decoder": self.decoder,
            "classifier": self.classifier,
            "cluster": self.cluster_head,
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
