"""Patching and MCPS flattening: layout, padding, and round trips."""

import math

import numpy as np
import pytest

from lorm.sequence import (
    PatchSequence,
    build_mcps,
    num_patches,
    patch_channel,
    unflatten_mcps,
)


class TestNumPatches:
    def test_ceil_formula_oracle(self):
        for s in range(1, 70):
            for h in range(1, 25):
                assert num_patches(s, h) == math.ceil(s / h)

    def test_reference_geometry(self):
        # 320-sample context in patches of 16 -> 20 patches per channel
        assert num_patches(320, 16) == 20


class TestPatchChannel:
    def test_exact_division_no_padding(self):
        col = np.arange(12, dtype=np.float64)
        patches = patch_channel(col, 4)
        assert patches.shape == (3, 4)
        assert np.array_equal(patches.reshape(-1), col)

    def test_final_patch_zero_padded(self):
        col = np.arange(10, dtype=np.float64)
        patches = patch_channel(col, 4)
        assert patches.shape == (3, 4)
        assert np.array_equal(patches[2], [8.0, 9.0, 0.0, 0.0])


class TestBuildMcps:
    def test_channel_major_layout_oracle(self):
        # row c*N + j must hold patch j of channel c, checked elementwise
        rng = np.random.default_rng(0)
        s, c, h = 23, 3, 5
        context = rng.normal(size=(s, c))
        ps = build_mcps(context, h)
        n = math.ceil(s / h)
        assert ps.rows.shape == (n * c, h)
        for ch in range(c):
            padded = np.zeros(n * h)
            padded[:s] = context[:, ch]
            for j in range(n):
                assert np.array_equal(ps.rows[ch * n + j], padded[j * h : (j + 1) * h])

    def test_round_trip_identity_sweep(self):
        # 200 random (S, C, h) combinations
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = int(rng.integers(1, 80))
            c = int(rng.integers(1, 6))
            h = int(rng.integers(1, 25))
            context = rng.normal(size=(s, c))
            restored = unflatten_mcps(build_mcps(context, h))
            assert restored.shape == (s, c)
            assert np.array_equal(restored, context)

    def test_sequence_metadata(self):
        context = np.zeros((320, 3))
        ps = build_mcps(context, 16)
        assert ps.patches_per_channel == 20
        assert ps.channel_count == 3
        assert ps.sequence_len == 60
        assert ps.context_len == 320


class TestConfig:
    def test_reference_sequence_len(self):
        # 20 patches per channel, 3 channels: the model's sequence length
        assert num_patches(320, 16) * 3 == build_mcps(np.zeros((320, 3)), 16).sequence_len == 60

    @pytest.mark.parametrize("context_len, patch_len", [(320, 0), (320, -1), (0, 16)])
    def test_num_patches_rejects_non_positive(self, context_len, patch_len):
        with pytest.raises(ValueError):
            num_patches(context_len, patch_len)

    def test_patch_sequence_shape_checked(self):
        with pytest.raises(ValueError):
            PatchSequence(
                rows=np.zeros((5, 4)),
                patch_len=4,
                patches_per_channel=2,
                channel_count=3,  # needs 6 rows
                context_len=8,
            )
