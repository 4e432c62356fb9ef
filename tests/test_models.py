import numpy as np
import pytest

from noisylab.autodiff import Tensor
from noisylab.models import (
    ConvBackbone,
    ConvDecoder,
    MlpBackbone,
    MlpDecoder,
    ModelSet,
    SoftmaxHead,
)


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

    def test_zero_grad_clears(self):
        ms = _models()
        x = Tensor(np.zeros((2, 8, 8), dtype=np.float32))
        probs = ms.classifier(ms.backbone(x))
        probs.square().sum().backward()
        assert any(p.grad is not None for p in ms.parameters().values())
        ms.zero_grad()
        assert all(p.grad is None for p in ms.parameters().values())

    def test_conv_model_set_end_to_end(self):
        ms = _models(backbone="conv")
        x = Tensor(_rng(3).uniform(0, 1, (2, 8, 8)).astype(np.float32))
        feats = ms.backbone(x)
        assert ms.classifier(feats).shape == (2, 4)
        assert ms.cluster_head(feats).shape == (2, 3)
        assert ms.decoder(feats).shape == (2, 8, 8)
