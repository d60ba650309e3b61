"""Per-channel k-means codebooks over target segments, and token assignment.

Each sensing channel gets its own codebook of K centroids in target-segment
space; a target waveform's token is the index of its nearest centroid.
Codebooks are immutable once fitted, so assignment is safe from any thread;
fitting different channels may run in parallel.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Codebook",
    "CodebookSet",
    "KMeansResult",
    "kmeans_plusplus_init",
    "lloyd_kmeans",
    "fit_codebook",
    "fit_codebook_set",
    "tokenize_window",
    "save_codebooks",
    "load_codebooks",
    "codebook_file_hash",
]

CODEBOOK_FORMAT_VERSION = 1

MAX_KMEANS_ITER = 100


@dataclass
class Codebook:
    """K centroids for one channel; tokens are 0-based centroid indices."""

    channel_index: int
    centroids: np.ndarray  # (K, target_dim)

    def __post_init__(self) -> None:
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 2:
            raise ValueError(f"centroids must be 2-D (K, dim), got {self.centroids.shape}")
        if self.centroids.shape[0] < 1:
            raise ValueError("codebook needs K >= 1 centroids")
        if not np.all(np.isfinite(self.centroids)):
            raise ValueError("centroids contain non-finite values")

    @property
    def K(self) -> int:
        return self.centroids.shape[0]

    @property
    def target_dim(self) -> int:
        return self.centroids.shape[1]


@dataclass
class CodebookSet:
    """One codebook per channel, all sharing K and the target dimension."""

    codebooks: list[Codebook]
    channel_names: list[str] = field(default_factory=list)
    # (C, K, target_dim) stack of every channel's centroids, read-only
    centroids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.codebooks:
            raise ValueError("codebook set is empty")
        k0 = self.codebooks[0].K
        d0 = self.codebooks[0].target_dim
        for cb in self.codebooks:
            if cb.K != k0 or cb.target_dim != d0:
                raise ValueError("all codebooks must share K and target_dim")
        if not self.channel_names:
            self.channel_names = [f"ch{i}" for i in range(len(self.codebooks))]
        if len(self.channel_names) != len(self.codebooks):
            raise ValueError("one channel name per codebook required")
        self.centroids = np.stack([cb.centroids for cb in self.codebooks])
        self.centroids.flags.writeable = False

    @property
    def num_channels(self) -> int:
        return len(self.codebooks)

    @property
    def K(self) -> int:
        return self.codebooks[0].K

    @property
    def target_dim(self) -> int:
        return self.codebooks[0].target_dim


@dataclass
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int
    inertia_history: list[float]


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, K) squared Euclidean distances."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def kmeans_plusplus_init(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded k-means++ seeding: first centre uniform, then D^2 sampling."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining mass on duplicates of chosen centres: pick uniformly
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), r, side="right"))
            idx = min(idx, n - 1)
        centroids[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def lloyd_kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 100,
    rel_tol: float = 1e-6,
    init_centroids: np.ndarray | None = None,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Runs until the relative inertia change drops below ``rel_tol`` or
    ``max_iter`` iterations. An empty cluster is repaired by reassigning the
    point currently farthest from its own centroid. Deterministic for a
    fixed seed.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be 2-D (n, dim)")
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError("insufficient samples")

    if init_centroids is None:
        centroids = kmeans_plusplus_init(points, k, seed)
    else:
        centroids = np.array(init_centroids, dtype=np.float64, copy=True)
        if centroids.shape != (k, points.shape[1]):
            raise ValueError("init_centroids shape mismatch")

    prev_inertia = np.inf
    history: list[float] = []
    labels = np.zeros(n, dtype=np.int64)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        d2 = _sq_distances(points, centroids)
        labels = np.argmin(d2, axis=1)  # argmin breaks ties toward lower index
        point_d2 = d2[np.arange(n), labels]

        for j in range(k):
            if not np.any(labels == j):
                # steal the globally farthest point into the empty cluster
                far = int(np.argmax(point_d2))
                labels[far] = j
                point_d2[far] = 0.0

        for j in range(k):
            centroids[j] = points[labels == j].mean(axis=0)

        d2 = _sq_distances(points, centroids)
        inertia = float(d2[np.arange(n), labels].sum())
        history.append(inertia)
        if prev_inertia < np.inf:
            denom = max(prev_inertia, np.finfo(np.float64).tiny)
            if abs(prev_inertia - inertia) / denom < rel_tol:
                break
        prev_inertia = inertia

    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=history[-1],
        n_iter=n_iter,
        inertia_history=history,
    )


def fit_codebook(
    targets: Sequence[np.ndarray] | np.ndarray,
    k: int,
    seed: int,
    channel_index: int = 0,
) -> Codebook:
    """Cluster a channel's target segments into K centroids.

    Raises ValueError("insufficient samples") when fewer than K points are
    given. Deterministic: identical (targets, k, seed) give identical
    centroid bytes.
    """
    points = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if points.shape[0] < k:
        raise ValueError("insufficient samples")
    result = lloyd_kmeans(points, k, seed, max_iter=MAX_KMEANS_ITER)
    return Codebook(channel_index=channel_index, centroids=result.centroids)


def fit_codebook_set(
    targets: Sequence[np.ndarray] | np.ndarray,
    k: int,
    seed: int,
    channel_names: Sequence[str] | None = None,
) -> CodebookSet:
    """Fit one codebook per channel from per-window target segments.

    Args:
        targets: an (n, target_dim, C) array, or n (target_dim, C) arrays.
        k: clusters per channel.
        seed: shared k-means seed (channels differ by their data).
    """
    if not len(targets):
        raise ValueError("insufficient samples")
    stacked = np.asarray(targets, dtype=np.float64)
    if stacked.ndim != 3:
        raise ValueError(f"targets must be (n, target_dim, C), got shape {stacked.shape}")
    books = [
        fit_codebook(stacked[:, :, ch], k, seed, channel_index=ch)
        for ch in range(stacked.shape[2])
    ]
    names = list(channel_names) if channel_names else []
    return CodebookSet(codebooks=books, channel_names=names)


def tokenize_window(targets: np.ndarray, codebooks: CodebookSet) -> np.ndarray:
    """Tokens (..., C) for target segments of shape (..., target_dim, C).

    Channel c's token is the index of the centroid of codebook c nearest
    to its target by squared Euclidean distance; ties go to the lowest index.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim < 2:
        raise ValueError(f"targets must be (..., target_dim, C), got shape {targets.shape}")
    dim, c = targets.shape[-2:]
    if c != codebooks.num_channels:
        raise ValueError(
            f"target has {c} channels, codebooks have {codebooks.num_channels}"
        )
    if dim != codebooks.target_dim:
        raise ValueError(
            f"target has dimension {dim}, codebook expects {codebooks.target_dim}"
        )
    # (..., C, K, dim) differences against the (C, K, dim) centroid stack
    diff = codebooks.centroids - np.swapaxes(targets, -1, -2)[..., :, None, :]
    return np.add.reduce(np.square(diff, out=diff), axis=-1).argmin(axis=-1)


def save_codebooks(codebooks: CodebookSet, path: str) -> None:
    """Write the codebook JSON document with round-trip float precision."""
    doc = {
        "version": CODEBOOK_FORMAT_VERSION,
        "K": codebooks.K,
        "target_dim": codebooks.target_dim,
        "channels": [
            {
                "name": codebooks.channel_names[i],
                "centroids": [[float(v) for v in row] for row in cb.centroids],
            }
            for i, cb in enumerate(codebooks.codebooks)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_codebooks(path: str) -> CodebookSet:
    """Read a codebook JSON document.

    Raises:
        ValueError: naming ``path``, for malformed JSON, an unsupported
            version, a missing field, or centroids of the wrong shape.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deeply
            raise ValueError(f"{path}: not a codebooks JSON document ({exc})") from None
    try:
        return _codebooks_from_doc(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: codebooks file lacks the {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _codebooks_from_doc(doc) -> CodebookSet:
    if not isinstance(doc, dict):
        raise ValueError("codebooks file must hold a JSON object")
    if doc.get("version") != CODEBOOK_FORMAT_VERSION:
        raise ValueError(f"unsupported codebook file version: {doc.get('version')}")
    shape = (doc["K"], doc["target_dim"])
    if not all(type(n) is int for n in shape):
        raise ValueError(f"K and target_dim must be integers, got {shape[0]!r} and {shape[1]!r}")
    books = []
    names = []
    for i, ch in enumerate(doc["channels"]):
        centroids = np.asarray(ch["centroids"], dtype=np.float64)
        if centroids.shape != shape:
            raise ValueError(
                f"channel {i}: centroid shape mismatch, {centroids.shape} != {shape}"
            )
        if not isinstance(ch["name"], str):
            raise ValueError(f"channel {i}: name must be a string, got {ch['name']!r}")
        books.append(Codebook(channel_index=i, centroids=centroids))
        names.append(ch["name"])
    return CodebookSet(codebooks=books, channel_names=names)


def codebook_file_hash(path: str) -> str:
    """SHA-256 of the codebook file bytes, for checkpoint compatibility checks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
