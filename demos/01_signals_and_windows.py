"""
Signals, windows, and the context/target split
===============================================

Generate a small synthetic vibration run, write it to CSV, read it back,
and cut it into fixed-length windows. Windows are plain (W, C) arrays. Each
keeps its first S samples continuous (the context) and reserves the tail for
discretisation (the target).
"""

import os
import tempfile

import numpy as np

from lorm import (
    SynthConfig,
    WindowingConfig,
    compute_channel_stats,
    generate_run,
    normalize_window,
    read_signal_csv,
    segment_windows,
    stream_windows,
    write_signal_csv,
)

workdir = tempfile.mkdtemp(prefix="lorm_demo_")

# a 20-second, 2-channel healthy recording at 1 kHz
windowing = WindowingConfig(window_len=61, context_len=60, stride=30)
run = generate_run(
    SynthConfig(
        channels=2,
        duration_samples=20_000,
        degradation_onset=10_000,
        degradation_rate=0.0,
        seed=1,
    ),
    windowing,
)
print(f"series: {run.series.num_samples} samples x {run.series.num_channels} channels")

# CSV round trip: the on-disk format is one header line plus one row per sample
path = os.path.join(workdir, "signal.csv")
write_signal_csv(run.series, path)
again = read_signal_csv(path)
print(f"csv round trip exact: {np.array_equal(run.series.samples, again.samples)}")

# windowing: 61-sample windows every 30 samples, as one read-only
# (n, W, C) view of the series, so no sample is copied
windows = segment_windows(again, windowing)
print(f"windows {windows.shape}, a view of the series: {np.shares_memory(windows, again.samples)}")

# channel statistics come from the data you train on, never from the stream
stats = compute_channel_stats(again)
print(f"per-channel mean {np.round(stats.mean, 3)}, std {np.round(stats.std, 3)}")

# each normalised window splits into a 60x2 context and a 1x2 target
norm = normalize_window(windows[0], stats)
context, target = norm[:60], norm[60:]
print(f"context {context.shape}, target {target.shape}, target values {np.round(target[0], 3)}")

# the same windows fall out of a sample-at-a-time stream (e.g. a socket feed)
streamed = list(stream_windows(iter(again.samples), windowing, channel_count=2))
match = all(np.array_equal(a, b) for a, b in zip(windows, streamed))
print(f"stream produced {len(streamed)} windows, identical to batch: {match}")
