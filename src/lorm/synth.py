"""Deterministic synthetic rotating-machinery signals with ground-truth wear.

Each channel is a sum of sinusoidal harmonics plus gaussian noise. From the
degradation onset onwards, the first harmonic of the designated fault channel
grows linearly in amplitude and a sideband at 1.5x its frequency fades in, so
the signal drifts away from its healthy dynamics at a controlled rate.

The run is divided into equal pseudo ring cuts. Synthetic wear rises linearly
from 150 um towards 400 um over the post-onset span (constant 150 um when the
degradation rate is zero), which places the 300 um limit crossing inside the
degraded region.

Pure given a config; the same seed always yields byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_int, check_real
from .evaluation import WearTable
from .signal_io import MultiChannelSeries, WindowingConfig

__all__ = ["SynthConfig", "SynthRun", "generate_run"]

WEAR_START_UM = 150.0
WEAR_END_UM = 400.0


@dataclass
class SynthConfig:
    """Generator settings."""

    channels: int = 3
    sample_rate_hz: float = 1000.0
    duration_samples: int = 200_000
    noise_sigma: float = 0.1
    degradation_onset: int = 120_000
    degradation_rate: float = 0.0
    cuts: int = 40
    fault_channel: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("channels", "duration_samples", "cuts"):
            check_int(name, getattr(self, name))
        for name in ("degradation_onset", "fault_channel", "seed"):
            check_int(name, getattr(self, name), low=0)
        check_real("sample_rate_hz", self.sample_rate_hz)
        for name in ("noise_sigma", "degradation_rate"):
            check_real(name, getattr(self, name), "a number >= 0", lambda x: 0 <= x < math.inf)
        if self.degradation_onset > self.duration_samples:
            raise ValueError("degradation_onset must lie within the run")
        if self.fault_channel >= self.channels:
            raise ValueError("fault_channel must name one of the channels")


@dataclass
class SynthRun:
    """Generated series plus its ground truth."""

    series: MultiChannelSeries
    wear: WearTable


def _wear_curve(cfg: SynthConfig, cut_mid_samples: np.ndarray) -> np.ndarray:
    """Linear 150 -> 400 um over the post-onset span; constant when rate = 0."""
    if cfg.degradation_rate == 0.0 or cfg.degradation_onset >= cfg.duration_samples:
        return np.full(len(cut_mid_samples), WEAR_START_UM)
    progress = (cut_mid_samples - cfg.degradation_onset) / (
        cfg.duration_samples - cfg.degradation_onset
    )
    progress = np.clip(progress, 0.0, 1.0)
    return WEAR_START_UM + (WEAR_END_UM - WEAR_START_UM) * progress


def generate_run(cfg: SynthConfig, windowing: WindowingConfig) -> SynthRun:
    """Generate the signal and the wear table of its cuts.

    Cuts split the sample axis into equal spans; a window belongs to the cut
    containing its midpoint sample. Window indices in the wear table are
    1-based to match monitoring records.
    """
    t = np.arange(cfg.duration_samples, dtype=np.float64) / cfg.sample_rate_hz

    rng = np.random.default_rng(cfg.seed)
    data = rng.normal(0.0, cfg.noise_sigma, size=(cfg.duration_samples, cfg.channels))

    # (t - onset)+ in samples, the linear degradation driver
    after = np.maximum(np.arange(cfg.duration_samples, dtype=np.float64) - cfg.degradation_onset, 0.0)
    growth = cfg.degradation_rate * after

    for c in range(cfg.channels):
        base = 30.0 + 17.0 * c
        # (frequency_hz, amplitude, phase) of the channel's three harmonics
        harmonics = [(base, 1.0, 0.37 * c), (2 * base, 0.5, 1.1 + 0.2 * c), (3.3 * base, 0.25, 2.0)]
        for j, (frequency_hz, amplitude, phase) in enumerate(harmonics):
            amp = amplitude * (1.0 + growth) if c == cfg.fault_channel and j == 0 else amplitude
            data[:, c] += amp * np.sin(2.0 * np.pi * frequency_hz * t + phase)
        if c == cfg.fault_channel:
            data[:, c] += growth * np.sin(2.0 * np.pi * 1.5 * base * t)

    series = MultiChannelSeries(
        samples=data, channel_names=[f"ch{c}" for c in range(cfg.channels)]
    )

    # window midpoints decide cut membership; cut_index is 0-based and
    # nondecreasing along the windows
    w, stride = windowing.window_len, windowing.stride
    span = cfg.duration_samples / cfg.cuts
    mids = np.arange(0, cfg.duration_samples - w + 1, stride) + w // 2
    cut_index = np.minimum(cfg.cuts - 1, (mids / span).astype(np.int64))
    present, first, count = np.unique(cut_index, return_index=True, return_counts=True)

    # cuts without a window (more cuts than windows) get no row; ids and
    # window indices are 1-based
    wear_values = _wear_curve(cfg, (present + 0.5) * span)
    wear = WearTable(present + 1, wear_values, first + 1, first + count)
    return SynthRun(series=series, wear=wear)
