"""Context patching and channel-major flattening into the model input sequence.

A context segment of S samples per channel is cut into N = ceil(S/h)
non-overlapping patches of length h (final patch zero-padded when h does not
divide S), and all channels' patches are stacked channel-major into one
(N*C) x h matrix: the multi-sensor context patch sequence (MCPS).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "num_patches",
    "build_mcps",
]


def num_patches(context_len: int, patch_len: int) -> int:
    """N = ceil(S/h): no samples are discarded, the last patch is padded."""
    if context_len < 1 or patch_len < 1:
        raise ValueError("context_len and patch_len must be >= 1")
    return math.ceil(context_len / patch_len)


def build_mcps(context: np.ndarray, patch_len: int) -> np.ndarray:
    """Flatten (..., S, C) contexts into (..., N*C, h) channel-major MCPS rows.

    Row order is [p1_ch0 .. pN_ch0, p1_ch1 .. pN_ch1, ...] with channel
    order equal to the input column order; the final patch of each channel
    is right-padded with zeros.
    """
    context = np.asarray(context, dtype=np.float64)
    if context.ndim < 2:
        raise ValueError(f"context must be (..., S, C), got shape {context.shape}")
    *lead, s, c = context.shape
    n = num_patches(s, patch_len)
    rows = np.zeros((*lead, c, n * patch_len), dtype=np.float64)
    rows[..., :s] = np.swapaxes(context, -1, -2)
    return rows.reshape(*lead, c * n, patch_len)
