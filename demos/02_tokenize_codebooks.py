"""
Per-channel codebooks: targets become tokens
============================================

The target samples of many windows, clustered with k-means channel by
channel, give each channel a codebook of K centroids. A window's target is
then described by one token per channel: the index of its nearest centroid.
"""

import os
import tempfile

import numpy as np

from lorm import (
    SynthConfig,
    WindowingConfig,
    compute_channel_stats,
    fit_codebook_set,
    generate_run,
    load_codebooks,
    normalize_window,
    save_codebooks,
    segment_windows,
    tokenize_window,
)

windowing = WindowingConfig(window_len=61, context_len=60, stride=30)
run = generate_run(
    SynthConfig(
        channels=2,
        duration_samples=20_000,
        degradation_onset=10_000,
        degradation_rate=0.0,
        seed=2,
    ),
    windowing,
)
windows = segment_windows(run.series, windowing)
stats = compute_channel_stats(run.series)

# every window's normalised target block, one (n, target_len, C) array
targets = normalize_window(windows[:, windowing.context_len :], stats)

K = 6
books = fit_codebook_set(targets, k=K, seed=0, channel_names=run.series.channel_names)
# one read-only (C, K, target_len) array holds every channel's centroids
for c in range(books.num_channels):
    print(f"channel {c}: centroids {np.round(books.centroids[c].ravel(), 3)}")

# tokenising a window picks the nearest centroid per channel
print(f"first window tokens: {tokenize_window(targets[0], books)}")

# token usage across the run (all windows in one call): every centroid
# should earn its keep
tokens = tokenize_window(targets, books)
print("token histogram per channel:")
for c in range(books.num_channels):
    print(f"  ch{c}: {np.bincount(tokens[:, c], minlength=K)}")

# the JSON file round-trips exactly
path = os.path.join(tempfile.mkdtemp(prefix="lorm_demo_"), "codebooks.json")
save_codebooks(books, path)
loaded = load_codebooks(path)
same = np.array_equal(books.centroids, loaded.centroids)
print(f"saved to {path}, reload exact: {same}")
