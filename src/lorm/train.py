"""Training: token cross-entropy, Adam, the epoch loop, and gradient checks.

The objective for one window is the mean negative log-probability of the
observed target token across channels:

    loss = -(1/C) * sum_c log(max(pi_c[y_c], 1e-12))

computed in float64. A batch averages window losses. Fine-tuning freezes the
attention and feed-forward tensors and adapts only embeddings, norms, and the
head; pre-training updates everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._checks import check_int, check_real
from .model import (
    BackboneConfig,
    ModelParameters,
    backward_from_scores,
    forward_batch,
    partition_parameters,
)
from .sequence import build_mcps
from .signal_io import ChannelStats, normalize_window
from .tokenizer import CodebookSet, tokenize_window

__all__ = [
    "PROB_FLOOR",
    "TrainConfig",
    "TrainReport",
    "Adam",
    "token_loss",
    "build_examples",
    "loss_and_grad",
    "dataset_loss",
    "train_model",
    "write_train_report_csv",
    "gradient_check",
]

# probabilities are clamped here before the log so the loss stays finite
PROB_FLOOR = 1e-12


@dataclass
class TrainConfig:
    """Optimiser and loop settings, and the share of windows held out for
    validation."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("batch_size", "max_epochs", "patience"):
            check_int(name, getattr(self, name))
        check_int("seed", self.seed, low=0)
        check_real("learning_rate", self.learning_rate)
        check_real("epsilon", self.epsilon)
        for name in ("beta1", "beta2"):
            check_real(name, getattr(self, name), "in [0, 1)", lambda x: 0 <= x < 1)
        check_real("val_fraction", self.val_fraction, "in (0, 1)", lambda x: 0 < x < 1)


@dataclass
class TrainReport:
    """Per-epoch losses plus where early stopping landed. Epochs are 1-based."""

    epochs: list[int] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    stopped_early: bool = False


class Adam(object):
    """Adam with bias correction: theta -= lr * m_hat / (sqrt(v_hat) + eps).

    The moments are two vectors in the parameters' layout, updated in place
    as a whole; of the parameters only the entries of ``names`` are ever
    written, whatever the gradient holds elsewhere.
    """

    def __init__(self, params: ModelParameters, names: Sequence[str], cfg: TrainConfig) -> None:
        self.names = list(names)
        self.lr = cfg.learning_rate
        self.beta1 = cfg.beta1
        self.beta2 = cfg.beta2
        self.eps = cfg.epsilon
        self.t = 0
        self.m, self.v = np.zeros_like(params.flat), np.zeros_like(params.flat)
        self._step, self._scratch = np.empty_like(params.flat), np.empty_like(params.flat)
        mask = ModelParameters(params.shapes, np.zeros(params.flat.shape, bool))
        for n in self.names:
            mask[n][...] = True
        self._where = True if mask.flat.all() else mask.flat

    def step(self, params: ModelParameters, grads: ModelParameters) -> None:
        """One update from the gradient vector ``grads``, in place, with the
        float operations of the textbook formula in its order."""
        self.t += 1
        g, m, v, step, scratch = grads.flat, self.m, self.v, self._step, self._scratch
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=scratch)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=scratch)
        scratch *= g
        v += scratch
        np.divide(m, 1.0 - self.beta1**self.t, out=step)  # m_hat
        step *= self.lr
        np.sqrt(np.divide(v, 1.0 - self.beta2**self.t, out=scratch), out=scratch)
        scratch += self.eps
        step /= scratch
        np.subtract(params.flat, step, out=params.flat, where=self._where)


def build_examples(
    windows: Sequence[np.ndarray] | np.ndarray,
    stats: ChannelStats,
    context_len: int,
    codebooks: CodebookSet,
    patch_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Turn n raw windows, an (n, W, C) array or n (W, C) arrays, into
    model inputs.

    z-scores every window with the training stats, flattens each context
    into channel-major MCPS rows (:func:`lorm.sequence.build_mcps`) and
    tokenizes each target per channel (:func:`lorm.tokenizer.tokenize_window`).
    Returns p of shape (n, N*C, patch_len) and y of shape (n, C).
    """
    if not len(windows):
        raise ValueError("training set is empty")
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"windows must be (n, W, C), got shape {windows.shape}")
    w = windows.shape[1]
    if not 0 < context_len < w:
        raise ValueError(f"context_len must satisfy 0 < S < W, got S={context_len} W={w}")
    norm = normalize_window(windows, stats)
    if not np.isfinite(norm).all():
        raise ValueError("normalised window contains non-finite values")
    p = build_mcps(norm[:, :context_len, :], patch_len)
    return p, tokenize_window(norm[:, context_len:, :], codebooks)


def token_loss(dists: np.ndarray, tokens: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of (B, C) tokens under (B, C, K) distributions, the
    loss of training and (at B=1) monitoring, plus the (B, C) clamp mask."""
    b, c, _ = dists.shape
    if tokens.shape != (b, c):
        raise ValueError("need one token per channel distribution")
    picked = dists[np.arange(b)[:, None], np.arange(c)[None, :], tokens]
    clamped = picked < PROB_FLOOR
    loss = float(-np.mean(np.log(np.maximum(picked, PROB_FLOOR))))
    return loss, clamped


def loss_and_grad(
    p_batch: np.ndarray,
    y_batch: np.ndarray,
    params: ModelParameters,
    cfg: BackboneConfig,
    trainable: Sequence[str] | None = None,
    work: dict | None = None,
) -> tuple[float, ModelParameters]:
    """Batch loss and the gradient vector of the names in ``trainable``
    (every parameter when None; the other entries are 0).

    The gradient at the scores is (pi - onehot(y)) / (B * C); channels whose
    picked probability sits below the clamp floor contribute no gradient.
    ``work`` is an optional workspace for the large activations and the
    gradient vector, see :func:`lorm.model.forward_batch` and
    :func:`lorm.model.backward_from_scores`.
    """
    y = np.asarray(y_batch, dtype=np.int64)
    dists, cache = forward_batch(p_batch, params, cfg, want_cache=True, work=work)
    b, c, _ = dists.shape
    loss, clamped = token_loss(dists, y)
    dv = dists.copy()
    dv[np.arange(b)[:, None], np.arange(c)[None, :], y] -= 1.0
    dv /= float(b * c)
    dv[clamped] = 0.0
    return loss, backward_from_scores(cache, dv, trainable)


def dataset_loss(
    p: np.ndarray,
    y: np.ndarray,
    params: ModelParameters,
    cfg: BackboneConfig,
    batch_size: int,
    work: dict | None = None,
) -> float:
    """Mean window loss over a whole dataset, evaluated without gradients."""
    n = p.shape[0]
    if n == 0:
        raise ValueError("empty input")
    total = 0.0
    y = np.asarray(y, dtype=np.int64)
    for start in range(0, n, batch_size):
        chunk = slice(start, min(start + batch_size, n))
        dists, _ = forward_batch(p[chunk], params, cfg, work=work)
        loss, _ = token_loss(dists, y[chunk])
        total += loss * (chunk.stop - chunk.start)
    return total / n


def train_model(
    p_train: np.ndarray,
    y_train: np.ndarray,
    p_val: np.ndarray,
    y_val: np.ndarray,
    params: ModelParameters,
    cfg: BackboneConfig,
    train_cfg: TrainConfig,
    freeze: bool = False,
) -> TrainReport:
    """Mini-batch Adam with per-epoch shuffling and early stopping.

    Mutates params in place and leaves them at the best-validation epoch.
    With freeze=True only the embedding, position, norm, and head tensors are
    updated, and the weight gradients of the frozen attention and
    feed-forward tensors are not computed. Every step and validation pass
    reuses one workspace of activation buffers for the length of the call.
    """
    n = p_train.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    if p_val.shape[0] == 0:
        raise ValueError("validation set is empty")

    trainable = sorted(partition_parameters(params).trainable) if freeze else params.names()
    adam = Adam(params, trainable, train_cfg)

    rng = np.random.default_rng(train_cfg.seed)
    work: dict[str, np.ndarray] = {}
    report = TrainReport()
    best_state = np.empty_like(params.flat)  # epoch 1 always improves on inf
    since_best = 0
    y_train = np.asarray(y_train, dtype=np.int64)

    for epoch in range(1, train_cfg.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, train_cfg.batch_size):
            idx = order[start : start + train_cfg.batch_size]
            loss, grads = loss_and_grad(p_train[idx], y_train[idx], params, cfg, trainable, work)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite training loss {loss} at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            adam.step(params, grads)
            epoch_loss += loss * len(idx)
        epoch_loss /= n

        val_loss = dataset_loss(p_val, y_val, params, cfg, train_cfg.batch_size, work)
        if not np.isfinite(val_loss):
            raise RuntimeError(f"non-finite validation loss {val_loss} at epoch {epoch}")
        report.epochs.append(epoch)
        report.train_losses.append(epoch_loss)
        report.val_losses.append(val_loss)

        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best_state[...] = params.flat
            since_best = 0
        else:
            since_best += 1
            if since_best >= train_cfg.patience:
                report.stopped_early = True
                break

    params.flat[...] = best_state
    return report


def write_train_report_csv(report: TrainReport, path: str) -> None:
    """epoch,train_loss,val_loss with one row per completed epoch."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for e, tr, va in zip(report.epochs, report.train_losses, report.val_losses):
            fh.write(f"{e},{tr!r},{va!r}\n")


def gradient_check(
    p_batch: np.ndarray,
    y_batch: np.ndarray,
    params: ModelParameters,
    cfg: BackboneConfig,
    max_coords_per_tensor: int = 16,
) -> float:
    """Largest relative error between analytic and central-difference gradients.

    Runs entirely in float64 with a step of 1e-5. Checks every coordinate of
    small tensors and a seeded sample of larger ones.
    """
    work = ModelParameters(params.shapes, params.flat.astype(np.float64))
    y = np.asarray(y_batch, dtype=np.int64)
    p64 = np.asarray(p_batch, dtype=np.float64)

    def loss_at() -> float:
        dists, _ = forward_batch(p64, work, cfg)
        loss, _ = token_loss(dists, y)
        return loss

    _, grads = loss_and_grad(p64, y, work, cfg)
    rng, step = np.random.default_rng(0), 1e-5
    worst, start, flat = 0.0, 0, work.flat
    for _, shape in work.shapes:
        size = math.prod(shape)
        if size <= max_coords_per_tensor:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords_per_tensor, replace=False)
        for i in start + coords:
            keep = flat[i]
            flat[i] = keep + step
            up = loss_at()
            flat[i] = keep - step
            down = loss_at()
            flat[i] = keep
            fd = (up - down) / (2.0 * step)
            a = float(grads.flat[i])
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        start += size
    return worst
