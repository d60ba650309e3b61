"""Patching and MCPS flattening: layout, padding, and round trips."""

import math

import numpy as np
import pytest

from lorm.sequence import build_mcps, num_patches


def unflatten(rows, context_len, channels):
    """The inverse of build_mcps, stripping the zero padding: (S, C) context."""
    per_channel = rows.reshape(channels, -1)
    return per_channel[:, :context_len].T


class TestNumPatches:
    def test_ceil_formula_oracle(self):
        for s in range(1, 70):
            for h in range(1, 25):
                assert num_patches(s, h) == math.ceil(s / h)

    def test_reference_geometry(self):
        # 320-sample context in patches of 16 -> 20 patches per channel
        assert num_patches(320, 16) == 20


class TestPatchChannel:
    """One channel's context becomes N = ceil(S/h) patches of h samples."""

    def test_exact_division_no_padding(self):
        col = np.arange(12, dtype=np.float64)
        patches = build_mcps(col[:, None], 4)
        assert patches.shape == (3, 4)
        assert np.array_equal(patches.reshape(-1), col)

    def test_final_patch_zero_padded(self):
        col = np.arange(10, dtype=np.float64)
        patches = build_mcps(col[:, None], 4)
        assert patches.shape == (3, 4)
        assert np.array_equal(patches[2], [8.0, 9.0, 0.0, 0.0])


class TestBuildMcps:
    def test_channel_major_layout_oracle(self):
        # row c*N + j must hold patch j of channel c, checked elementwise
        rng = np.random.default_rng(0)
        s, c, h = 23, 3, 5
        context = rng.normal(size=(s, c))
        rows = build_mcps(context, h)
        n = math.ceil(s / h)
        assert rows.shape == (n * c, h)
        for ch in range(c):
            padded = np.zeros(n * h)
            padded[:s] = context[:, ch]
            for j in range(n):
                assert np.array_equal(rows[ch * n + j], padded[j * h : (j + 1) * h])

    def test_round_trip_identity_sweep(self):
        # 200 random (S, C, h) combinations
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = int(rng.integers(1, 80))
            c = int(rng.integers(1, 6))
            h = int(rng.integers(1, 25))
            context = rng.normal(size=(s, c))
            restored = unflatten(build_mcps(context, h), s, c)
            assert restored.shape == (s, c)
            assert np.array_equal(restored, context)

    def test_sequence_metadata(self):
        # leading batch dimensions pass through; each batch entry is the
        # MCPS of its own context
        contexts = np.random.default_rng(1).normal(size=(4, 2, 320, 3))
        rows = build_mcps(contexts, 16)
        assert rows.shape == (4, 2, 60, 16)
        for i in range(4):
            for j in range(2):
                assert np.array_equal(rows[i, j], build_mcps(contexts[i, j], 16))


class TestConfig:
    def test_reference_sequence_len(self):
        # 20 patches per channel, 3 channels: the model's sequence length
        assert num_patches(320, 16) * 3 == build_mcps(np.zeros((320, 3)), 16).shape[0] == 60

    @pytest.mark.parametrize("context_len, patch_len", [(320, 0), (320, -1), (0, 16)])
    def test_num_patches_rejects_non_positive(self, context_len, patch_len):
        with pytest.raises(ValueError):
            num_patches(context_len, patch_len)

    def test_patch_sequence_shape_checked(self):
        with pytest.raises(ValueError, match="context must be"):
            build_mcps(np.zeros(8), 4)
        with pytest.raises(ValueError):
            build_mcps(np.zeros((8, 3)), 0)
