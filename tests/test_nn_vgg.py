"""Tests for the VGG-16 feature extractor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import VGG16, MaxPool2d, VGGConfig
from repro.nn.vgg import VGG16_BLOCKS, VGG16_CHANNELS


class TestArchitecture:
    def test_vgg16_topology_constants(self):
        assert VGG16_BLOCKS == (2, 2, 3, 3, 3)  # 13 conv layers
        assert sum(VGG16_BLOCKS) == 13
        assert VGG16_CHANNELS == (64, 128, 256, 512, 512)

    def test_pool_shapes_halve(self, vgg, tiny_images):
        pools = vgg.forward_pools(tiny_images)
        assert len(pools) == 5
        sizes = [p.shape[2] for p in pools]
        assert sizes == [16, 8, 4, 2, 1]
        channels = [p.shape[1] for p in pools]
        assert channels == list(vgg.pool_channels())

    def test_full_width_channels(self):
        cfg = VGGConfig(width_multiplier=1.0)
        assert cfg.block_channels() == (64, 128, 256, 512, 512)

    def test_describe_mentions_all_convs(self, vgg):
        text = vgg.describe()
        assert text.count("conv") == 13
        assert text.count("max pool") == 5

    def test_n_parameters_positive(self, vgg, tiny_images):
        vgg.logits(tiny_images)  # materialise fc1
        assert vgg.n_parameters() > 10_000


class TestChannelsLastForward:
    def test_matches_layer_by_layer_stack(self, vgg):
        """The fused channels-last forward equals running the NCHW layer
        objects one by one (same conv kernel, same GEMM rows)."""
        x = np.random.default_rng(1).random((3, 3, 40, 36))
        reference = []
        y = x
        for layer in vgg.features:
            y = layer(y)
            if isinstance(layer, MaxPool2d):
                reference.append(y)
        for pool, expected in zip(vgg.forward_pools(x), reference):
            np.testing.assert_array_equal(pool, expected)

    def test_float32_forward_stays_float32(self, vgg, tiny_images):
        pools32 = vgg.forward_pools(tiny_images.astype(np.float32))
        pools64 = vgg.forward_pools(tiny_images)
        for pool32, pool64 in zip(pools32, pools64):
            assert pool32.dtype == np.float32
            np.testing.assert_allclose(pool32, pool64, rtol=1e-4, atol=1e-4)

    def test_image_too_small_for_five_pools(self, vgg):
        with pytest.raises(ValueError, match="does not fit"):
            vgg.forward_pools(np.zeros((1, 3, 16, 16)))


class TestDeterminism:
    def test_same_seed_same_outputs(self, tiny_images):
        a = VGG16(VGGConfig(seed=11)).forward_pools(tiny_images)
        b = VGG16(VGGConfig(seed=11)).forward_pools(tiny_images)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_different_outputs(self, tiny_images):
        a = VGG16(VGGConfig(seed=11)).forward_pools(tiny_images)[2]
        b = VGG16(VGGConfig(seed=12)).forward_pools(tiny_images)[2]
        assert not np.array_equal(a, b)


class TestFeatures:
    def test_logits_shape(self, vgg, tiny_images):
        assert vgg.logits(tiny_images).shape == (4, vgg.config.n_logits)

    def test_embed_shape_and_nonnegative(self, vgg, tiny_images):
        emb = vgg.embed(tiny_images)
        pools = vgg.forward_pools(tiny_images)
        expected = sum(p.shape[1] for p in pools[2:]) + pools[-1][0].size
        assert emb.shape == (4, expected)
        assert emb.min() >= 0  # ReLU outputs pooled/flattened

    def test_pool_features_layer_selection(self, vgg, tiny_images):
        pools = vgg.forward_pools(tiny_images)
        for layer in range(5):
            np.testing.assert_array_equal(vgg.pool_features(tiny_images, layer), pools[layer])

    def test_pool_features_bad_layer(self, vgg, tiny_images):
        with pytest.raises(ValueError, match="layer"):
            vgg.pool_features(tiny_images, 5)

    def test_activations_do_not_collapse(self, vgg):
        rng = np.random.default_rng(3)
        images = rng.random((3, 3, 64, 64))
        pools = vgg.forward_pools(images)
        for i, pool in enumerate(pools):
            assert pool.std() > 1e-3, f"pool {i} activations collapsed"

    def test_different_images_different_features(self, vgg):
        rng = np.random.default_rng(4)
        images = rng.random((2, 3, 32, 32))
        pools = vgg.forward_pools(images)
        assert not np.allclose(pools[-1][0], pools[-1][1])


class TestCalibration:
    def test_calibrated_sparsity_in_range(self, vgg):
        rng = np.random.default_rng(5)
        images = rng.random((4, 3, 64, 64))
        pools = vgg.forward_pools(images)
        # Max-pool keeps window maxima, so post-pool sparsity is lower
        # than the conv-level target; it must still be substantial.
        sparsity = np.mean([(p == 0).mean() for p in pools])
        assert 0.05 < sparsity < 0.9

    def test_calibration_decorrelates_features(self):
        # The point of calibration: without it, deep location vectors
        # are so uniformly positive that all cosine similarities
        # saturate near 1 (measured 0.98 +/- 0.01); calibration restores
        # spread.  Compare mean pairwise cosine at pool4.
        rng = np.random.default_rng(9)
        images = rng.random((6, 3, 64, 64))

        def mean_cosine(model):
            feats = model.forward_pools(images)[3]
            vectors = feats.reshape(feats.shape[0], feats.shape[1], -1).mean(axis=2)
            norms = np.linalg.norm(vectors, axis=1, keepdims=True)
            unit = vectors / np.maximum(norms, 1e-12)
            gram = unit @ unit.T
            return gram[~np.eye(len(images), dtype=bool)].mean()

        calibrated = mean_cosine(VGG16(VGGConfig(seed=0)))
        uncalibrated = mean_cosine(VGG16(VGGConfig(seed=0, calibration_sparsity=0.0)))
        assert calibrated < uncalibrated

    def test_calibration_biases_nonzero(self, vgg):
        from repro.nn.layers import Conv2d

        biases = [layer.bias for layer in vgg.features if isinstance(layer, Conv2d)]
        assert all(np.abs(b).max() > 0 for b in biases)
