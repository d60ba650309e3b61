"""Context patching and channel-major flattening into the model input sequence.

A context segment of S samples per channel is cut into N = ceil(S/h)
non-overlapping patches of length h (final patch zero-padded when h does not
divide S), and all channels' patches are stacked channel-major into one
(N*C) x h matrix: the multi-sensor context patch sequence (MCPS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchSequence",
    "patch_channel",
    "build_mcps",
    "unflatten_mcps",
]


@dataclass
class PatchSequence:
    """The (N*C) x h MCPS matrix; channel c occupies rows c*N .. c*N+N-1."""

    rows: np.ndarray
    patch_len: int
    patches_per_channel: int
    channel_count: int
    context_len: int

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64)
        expected = (self.patches_per_channel * self.channel_count, self.patch_len)
        if self.rows.shape != expected:
            raise ValueError(f"MCPS rows have shape {self.rows.shape}, expected {expected}")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("MCPS contains non-finite values")

    @property
    def sequence_len(self) -> int:
        return self.rows.shape[0]


def num_patches(context_len: int, patch_len: int) -> int:
    """N = ceil(S/h): no samples are discarded, the last patch is padded."""
    if context_len < 1 or patch_len < 1:
        raise ValueError("context_len and patch_len must be >= 1")
    return math.ceil(context_len / patch_len)


def patch_channel(context_column: np.ndarray, patch_len: int) -> np.ndarray:
    """Cut one channel's context into N x h non-overlapping patches.

    When h does not divide S the final patch holds the remaining samples
    right-padded with zeros.
    """
    col = np.asarray(context_column, dtype=np.float64).reshape(-1)
    s = col.shape[0]
    if patch_len < 1 or s < 1:
        raise ValueError("patch_len and context length must be >= 1")
    n = num_patches(s, patch_len)
    padded = np.zeros(n * patch_len, dtype=np.float64)
    padded[:s] = col
    return padded.reshape(n, patch_len)


def build_mcps(context: np.ndarray, patch_len: int) -> PatchSequence:
    """Flatten an S x C context into the channel-major MCPS.

    Row order is [p1_ch0 .. pN_ch0, p1_ch1 .. pN_ch1, ...] with channel
    order equal to the input column order.
    """
    context = np.atleast_2d(np.asarray(context, dtype=np.float64))
    s, c = context.shape
    blocks = [patch_channel(context[:, ch], patch_len) for ch in range(c)]
    rows = np.concatenate(blocks, axis=0)
    return PatchSequence(
        rows=rows,
        patch_len=patch_len,
        patches_per_channel=num_patches(s, patch_len),
        channel_count=c,
        context_len=s,
    )


def unflatten_mcps(ps: PatchSequence) -> np.ndarray:
    """Invert build_mcps, stripping the zero padding: returns the S x C context."""
    n, h, c, s = ps.patches_per_channel, ps.patch_len, ps.channel_count, ps.context_len
    out = np.empty((s, c), dtype=np.float64)
    for ch in range(c):
        flat = ps.rows[ch * n : (ch + 1) * n].reshape(-1)
        out[:, ch] = flat[:s]
    return out
