import numpy as np
import pytest

from noisylab.autodiff import Tensor
from noisylab.training import SgdOptimizer
from noisylab.models import (
    ConvBackbone,
    ConvDecoder,
    MlpBackbone,
    MlpDecoder,
    ModelSet,
    SoftmaxHead,
)

import chains as ch


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _models(backbone="mlp", shape=(8, 8), seed=1, classes=4, feature_dim=16, hidden=32):
    return ModelSet(input_shape=shape, num_classes=classes, num_clusters=3,
                    feature_dim=feature_dim, hidden=hidden, backbone_kind=backbone, init_seed=seed)


class TestBackbones:
    def test_mlp_output_shape_flat(self):
        bb = _models(shape=(5,), hidden=16, feature_dim=8).backbone
        assert isinstance(bb, MlpBackbone)
        out = bb(Tensor(np.zeros((3, 5), dtype=np.float32)))
        assert out.shape == (3, 8)

    def test_mlp_flattens_images(self):
        bb = _models(shape=(6, 6), hidden=16, feature_dim=8).backbone
        out = bb(Tensor(np.zeros((3, 6, 6), dtype=np.float32)))
        assert out.shape == (3, 8)

    def test_conv_output_shape(self):
        bb = _models("conv", feature_dim=10).backbone
        assert isinstance(bb, ConvBackbone)
        out = bb(Tensor(np.zeros((2, 8, 8), dtype=np.float32)))
        assert out.shape == (2, 10)

    def test_conv_rejects_bad_spatial_dims(self):
        with pytest.raises(ValueError):
            ConvBackbone((6, 6), feature_dim=8, specs=[])

    def test_features_nonnegative(self):
        bb = _models(shape=(4,), hidden=8, feature_dim=6).backbone
        out = bb(Tensor(_rng(1).standard_normal((10, 4)).astype(np.float32)))
        assert out.data.min() >= 0.0  # relu output


class TestHeadsAndDecoders:
    def test_softmax_head_rows_normalized(self):
        head = _models(classes=5, feature_dim=8).classifier
        assert isinstance(head, SoftmaxHead)
        probs = head(Tensor(_rng(1).standard_normal((6, 8)).astype(np.float32)))
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_log_probs_consistent_with_probs(self):
        head = _models(classes=5, feature_dim=8).classifier
        feats = Tensor(_rng(1).standard_normal((6, 8)).astype(np.float32))
        np.testing.assert_allclose(np.exp(head.log_probs(feats).data), head(feats).data,
                                   atol=1e-5)

    def test_mlp_decoder_output_shape_and_range(self):
        dec = _models(shape=(5, 5), hidden=16, feature_dim=8).decoder
        assert isinstance(dec, MlpDecoder)
        out = dec(Tensor(np.zeros((3, 8), dtype=np.float32)))
        assert out.shape == (3, 5, 5)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_conv_decoder_output_shape_and_range(self):
        dec = _models("conv", feature_dim=8).decoder
        assert isinstance(dec, ConvDecoder)
        out = dec(Tensor(_rng(1).standard_normal((2, 8)).astype(np.float32)))
        assert out.shape == (2, 8, 8)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_conv_decoder_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            ConvDecoder(8, (6, 6), specs=[])


class TestModelSet:
    def test_parameter_names_prefixed(self):
        ms = _models()
        names = set(ms.parameters())
        assert {"backbone.w1", "classifier.w", "cluster.w", "decoder.w1"} <= names

    def test_init_deterministic(self):
        a, b = _models(seed=7), _models(seed=7)
        for name, p in a.parameters().items():
            np.testing.assert_array_equal(p.data, b.parameters()[name].data)

    def test_init_seed_changes_weights(self):
        a, b = _models(seed=7), _models(seed=8)
        assert any(not np.array_equal(p.data, b.parameters()[name].data)
                   for name, p in a.parameters().items())

    def test_unknown_backbone_rejected(self):
        with pytest.raises(ValueError):
            _models(backbone="transformer")

    @pytest.mark.parametrize("backbone", ["mlp", "conv"])
    def test_parameters_tile_one_flat_buffer(self, backbone):
        ms = _models(backbone)
        assert ms.flat.dtype == np.float32
        pieces = [p.data for p in ms.parameters().values()]
        assert all(np.shares_memory(p, ms.flat) for p in pieces)
        assert np.concatenate(pieces, axis=None).tobytes() == ms.flat.tobytes()

    def test_conv_model_set_end_to_end(self):
        ms = _models(backbone="conv")
        x = Tensor(_rng(3).uniform(0, 1, (2, 8, 8)).astype(np.float32))
        feats = ms.backbone(x)
        assert ms.classifier(feats).shape == (2, 4)
        assert ms.cluster_head(feats).shape == (2, 3)
        assert ms.decoder(feats).shape == (2, 8, 8)


# ---------------------------------------------------------------------------
# A float64 numpy forward of the whole conv model on (N, C, H, W) arrays,
# from the model's parameter arrays, written out layer by layer. The model
# computes channels last; the flatten before the backbone's projection and
# the unflatten after the decoder's lift are channels first here, the order
# conv checkpoints have always been written in.
# ---------------------------------------------------------------------------

def _ref_relu(x):
    return np.maximum(x, 0.0)


def _ref_conv3x3(x, w, b):
    """Stride-1, padding-1 convolution. x: (N, C, H, W), w: (O, C, 3, 3)."""
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    return np.einsum("nchwij,ocij->nohw", windows, w) + b[None, :, None, None]


def _ref_upsample2(x, w, b):
    """Stride-2 transposed convolution, 2x2 kernel. w: (C, O, 2, 2)."""
    n, _, h, wd = x.shape
    out = np.einsum("ncyx,coij->noyixj", x, w).reshape(n, w.shape[1], 2 * h, 2 * wd)
    return out + b[None, :, None, None]


def _ref_pool2(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def _ref_forward(ms, images):
    """(features, classifier logits, reconstruction) in float64."""
    p = {name: t.data.astype(np.float64) for name, t in ms.parameters().items()}
    n = len(images)
    h = images[:, None].astype(np.float64)
    h = _ref_pool2(_ref_relu(_ref_conv3x3(h, p["backbone.cw1"], p["backbone.cb1"])))
    h = _ref_pool2(_ref_relu(_ref_conv3x3(h, p["backbone.cw2"], p["backbone.cb2"])))
    h = _ref_relu(_ref_conv3x3(h, p["backbone.cw3"], p["backbone.cb3"]))
    feats = _ref_relu(h.reshape(n, -1) @ p["backbone.fw"] + p["backbone.fb"])
    logits = feats @ p["classifier.w"] + p["classifier.b"]
    h = _ref_relu(feats @ p["decoder.fw"] + p["decoder.fb"])
    side = images.shape[1] // 4
    h = h.reshape(n, -1, side, side)
    h = _ref_relu(_ref_upsample2(h, p["decoder.tw1"], p["decoder.tb1"]))
    h = _ref_relu(_ref_upsample2(h, p["decoder.tw2"], p["decoder.tb2"]))
    recon = 1.0 / (1.0 + np.exp(-_ref_conv3x3(h, p["decoder.pw"], p["decoder.pb"])))
    return feats, logits, recon[:, 0]


class TestConvMatchesReference:
    @staticmethod
    def _assert_close(got, want):
        # float32 against float64 through a few layers
        scale = max(float(np.abs(want).max()), 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5 * scale)

    def _check(self, ms, images):
        feats = ms.backbone(Tensor(images))
        want_feats, want_logits, want_recon = _ref_forward(ms, images)
        assert (want_feats > 0).mean() > 0.2
        self._assert_close(feats.data, want_feats)
        self._assert_close(ms.classifier.logits(feats).data, want_logits)
        self._assert_close(ms.decoder(feats).data, want_recon)

    @pytest.mark.parametrize("steps", [0, 3])
    def test_conv_model_set(self, steps):
        ms = _models("conv", shape=(12, 12), seed=4, feature_dim=16)
        rng = _rng(5)
        images = rng.uniform(0, 1, (32, 12, 12)).astype(np.float32)
        onehot = np.eye(4, dtype=np.float32)[rng.integers(0, 4, 32)]
        opt = SgdOptimizer(ms.parameters(), ms.flat, 0.9, 1e-4)
        before = {name: t.data.copy() for name, t in ms.parameters().items()}
        for _ in range(steps):
            for p in ms.parameters().values():
                p.grad = None
            feats = ms.backbone(Tensor(images))
            ce = ch.neg(ch.mean(ch.sum(ch.mul(ms.classifier.log_probs(feats), Tensor(onehot)), axis=-1)))
            (ce + ch.mean(ch.square(ch.sub(ms.decoder(feats), Tensor(images))))).backward()
            opt.step(0.1)
        if steps:
            # every backbone, decoder and classifier parameter has moved
            still = [name for name, t in ms.parameters().items()
                     if not name.startswith("cluster.") and np.array_equal(t.data, before[name])]
            assert still == []
        self._check(ms, images)
