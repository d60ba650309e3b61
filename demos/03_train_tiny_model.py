"""
Training the token predictor
============================

A compact Transformer reads the flattened multi-channel context patches and
predicts each channel's target token. Phase one trains everything on a
pretraining corpus; phase two freezes the attention and feed-forward blocks
and adapts only embeddings, positional table, layer norms, and the head to
the monitored machine's own healthy data.
"""

import hashlib
import math
import os
import tempfile

import numpy as np

from lorm import (
    BackboneConfig,
    Checkpoint,
    SynthConfig,
    TrainConfig,
    WindowingConfig,
    build_examples,
    codebook_file_hash,
    compute_channel_stats,
    dataset_loss,
    fit_codebook_set,
    generate_run,
    gradient_check,
    init_model,
    normalize_window,
    num_patches,
    partition_parameters,
    save_checkpoint,
    save_codebooks,
    segment_windows,
    train_model,
    train_val_split,
)

windowing = WindowingConfig(window_len=61, context_len=60, stride=30)
K = 4
PATCH = 12


def prepare(seed):
    run = generate_run(
        SynthConfig(
            channels=2,
            duration_samples=15_000,
            degradation_onset=10_000,
            degradation_rate=0.0,
            seed=seed,
        ),
        windowing,
    )
    windows = segment_windows(run.series, windowing)
    train_w, val_w = train_val_split(windows, 0.2, seed=seed)
    stats = compute_channel_stats(np.concatenate(train_w))
    return run, train_w, val_w, stats


corpus_run, corpus_train, corpus_val, corpus_stats = prepare(seed=3)
target_run, target_train, target_val, target_stats = prepare(seed=4)

books = fit_codebook_set(
    normalize_window(np.stack(target_train)[:, 60:], target_stats),
    k=K,
    seed=4,
    channel_names=target_run.series.channel_names,
)

backbone = BackboneConfig(
    hidden_dim=16,
    num_layers=1,
    num_heads=2,
    ffn_dim=32,
    max_seq_len=num_patches(60, PATCH) * 2,
    num_tokens=K,
    num_channels=2,
    patch_len=PATCH,
)
params = init_model(backbone, seed=0)
print(f"model: {params.flat.size} parameters in {len(params.names())} tensors")

# sanity-check the hand-written backward pass before spending any epochs
cfg64 = backbone
check = gradient_check(
    np.random.default_rng(0).normal(size=(2, backbone.max_seq_len, PATCH)),
    np.random.default_rng(1).integers(0, K, size=(2, 2)),
    init_model(backbone, seed=7, dtype=np.float64),
    cfg64,
)
print(f"gradient check, max relative error: {check:.2e}")

# phase one: everything trainable
p, y = build_examples(corpus_train, corpus_stats, 60, books, PATCH)
pv, yv = build_examples(corpus_val, corpus_stats, 60, books, PATCH)
report = train_model(
    p, y, pv, yv, params, backbone,
    TrainConfig(learning_rate=3e-3, max_epochs=8, patience=8, seed=3),
)
print(
    f"phase one: val loss {report.best_val_loss:.4f} after {len(report.epochs)} epochs "
    f"(uniform would be {math.log(K):.4f})"
)

# phase two: attention and FFN frozen bit-exact
frozen = partition_parameters(params).frozen
digest = hashlib.sha256(b"".join(params[n].tobytes() for n in frozen)).hexdigest()

p, y = build_examples(target_train, target_stats, 60, books, PATCH)
pv, yv = build_examples(target_val, target_stats, 60, books, PATCH)
phase_two = TrainConfig(learning_rate=1e-3, max_epochs=5, patience=5, seed=4)
report = train_model(p, y, pv, yv, params, backbone, phase_two, freeze=True)
after = hashlib.sha256(b"".join(params[n].tobytes() for n in frozen)).hexdigest()
print(f"phase two: val loss {report.best_val_loss:.4f}, frozen block unchanged: {digest == after}")
final = dataset_loss(pv, yv, params, backbone, phase_two.batch_size)
print(f"final val loss (recomputed): {final:.4f}")

# persist the deployment pair: checkpoint + the codebooks it expects
workdir = tempfile.mkdtemp(prefix="lorm_demo_")
books_path = os.path.join(workdir, "codebooks.json")
save_codebooks(books, books_path)
checkpoint = Checkpoint(
    params=params,
    config=backbone,
    stats=target_stats,
    window_len=61,
    context_len=60,
    channel_names=target_run.series.channel_names,
    codebook_hash=codebook_file_hash(books_path),
)
save_checkpoint(os.path.join(workdir, "checkpoint.lorm"), checkpoint)
print(f"wrote checkpoint + codebooks under {workdir}")
