"""Per-channel k-means codebooks over target segments, and token assignment.

Each sensing channel gets its own codebook of K centroids in target-segment
space; a target waveform's token is the index of its nearest centroid.
Codebooks are immutable once fitted, so assignment is safe from any thread;
fitting different channels may run in parallel.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CodebookSet",
    "KMeansResult",
    "kmeans_plusplus_init",
    "lloyd_kmeans",
    "fit_codebook_set",
    "tokenize_window",
    "save_codebooks",
    "load_codebooks",
    "codebook_file_hash",
]

CODEBOOK_FORMAT_VERSION = 1

MAX_KMEANS_ITER = 100
KMEANS_REL_TOL = 1e-6


class CodebookSet:
    """Every channel's codebook in one read-only (C, K, target_dim) array:
    channel c's tokens are 0-based indices into ``centroids[c]``.

    The constructor copies ``centroids`` and keeps the names as a tuple of
    str, so later edits to the caller's array or list change neither tokens
    nor saved files. ``file_hash`` is the SHA-256 of the file the set was
    read from, "" for a set built in memory.
    """

    def __init__(
        self, centroids: np.ndarray, channel_names: Sequence[str], file_hash: str = ""
    ) -> None:
        stack = np.array(centroids, dtype=np.float64)
        if stack.ndim != 3:
            raise ValueError(f"centroids must be 3-D (C, K, target_dim), got shape {stack.shape}")
        if stack.shape[0] < 1 or stack.shape[1] < 1:
            raise ValueError(f"codebook set needs C >= 1 and K >= 1, got shape {stack.shape}")
        if not np.isfinite(stack).all():
            raise ValueError("centroids contain non-finite values")
        names = tuple(channel_names)
        if len(names) != len(stack):
            raise ValueError(f"one channel name per codebook required, got {len(names)} names")
        for i, name in enumerate(names):
            if not isinstance(name, str):
                raise ValueError(f"channel {i}: name must be a string, got {name!r}")
        stack.flags.writeable = False
        self.centroids = stack
        self.channel_names = names
        self.file_hash = file_hash

    @property
    def num_channels(self) -> int:
        return self.centroids.shape[0]

    @property
    def K(self) -> int:
        return self.centroids.shape[1]

    @property
    def target_dim(self) -> int:
        return self.centroids.shape[2]

    def check_fits(self, k: int, target_dim: int, names: Sequence[str], other: str) -> None:
        """Raise ValueError unless these codebooks give ``other`` (a model or
        a run) its K, target length and channel names, checked in that order;
        the message gives both sides."""
        for what, mine, theirs in (
            ("K", self.K, k),
            ("target_dim", self.target_dim, target_dim),
            ("channel_names", list(self.channel_names), list(names)),
        ):
            if mine != theirs:
                raise ValueError(f"codebooks have {what}={mine}, {other} {theirs}")


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


def lloyd_kmeans(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Runs until the relative inertia change drops below ``KMEANS_REL_TOL`` or
    for ``MAX_KMEANS_ITER`` iterations. An empty cluster is repaired by
    reassigning the point currently farthest from its own centroid.
    Deterministic for a fixed seed.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be 2-D (n, dim)")
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError(f"insufficient samples: {n} points for k={k}")

    centroids = kmeans_plusplus_init(points, k, seed)
    prev_inertia = np.inf
    history: list[float] = []
    d2 = _sq_distances(points, centroids)
    for n_iter in range(1, MAX_KMEANS_ITER + 1):
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

        d2 = _sq_distances(points, centroids)  # also the next iteration's assignment
        inertia = float(d2[np.arange(n), labels].sum())
        history.append(inertia)
        if prev_inertia < np.inf:
            denom = max(prev_inertia, np.finfo(np.float64).tiny)
            if abs(prev_inertia - inertia) / denom < KMEANS_REL_TOL:
                break
        prev_inertia = inertia

    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=history[-1],
        n_iter=n_iter,
        inertia_history=history,
    )


def fit_codebook_set(
    targets: Sequence[np.ndarray] | np.ndarray,
    k: int,
    seed: int,
    channel_names: Sequence[str],
) -> CodebookSet:
    """Fit one codebook per channel from per-window target segments.

    Args:
        targets: an (n, target_dim, C) array, or n (target_dim, C) arrays.
        k: clusters per channel.
        seed: shared k-means seed (channels differ by their data).
        channel_names: one name per channel.

    Raises ValueError("insufficient samples: ...") when n < k. Deterministic:
    identical (targets, k, seed) give identical centroid bytes.
    """
    stacked = np.asarray(targets, dtype=np.float64)
    if stacked.ndim != 3:
        raise ValueError(f"targets must be (n, target_dim, C), got shape {stacked.shape}")
    centroids = [
        lloyd_kmeans(stacked[:, :, ch], k, seed).centroids
        for ch in range(stacked.shape[2])
    ]
    return CodebookSet(np.stack(centroids), channel_names)


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
                "name": name,
                "centroids": codebooks.centroids[c].tolist(),
            }
            for c, name in enumerate(codebooks.channel_names)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_codebooks(path: str) -> CodebookSet:
    """Read a codebook JSON document from ``path``. The file is read once:
    the set's ``file_hash`` is the SHA-256 of the bytes it was parsed from.

    Raises:
        ValueError: naming ``path``, for malformed JSON, an unsupported
            version, a missing field, or a malformed channel (naming its
            index and field).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deeply
        raise ValueError(f"{path}: not a codebooks JSON document ({exc})") from None
    try:
        return _codebooks_from_doc(doc, codebook_file_hash(path, data))
    except KeyError as exc:
        raise ValueError(f"{path}: codebooks file lacks the {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _codebooks_from_doc(doc, file_hash: str) -> CodebookSet:
    if not isinstance(doc, dict):
        raise ValueError("codebooks file must hold a JSON object")
    if doc.get("version") != CODEBOOK_FORMAT_VERSION:
        raise ValueError(f"unsupported codebook file version: {doc.get('version')}")
    shape = (doc["K"], doc["target_dim"])
    if not all(type(n) is int for n in shape):
        raise ValueError(f"K and target_dim must be integers, got {shape[0]!r} and {shape[1]!r}")
    channels = doc["channels"]
    if not isinstance(channels, list) or not channels:
        raise ValueError("channels must be a non-empty list of channel objects")
    stack = []
    for i, ch in enumerate(channels):
        if not isinstance(ch, dict):
            raise ValueError(f"channel {i}: must be an object, got {type(ch).__name__}")
        rows = ch["centroids"]
        try:
            centroids = np.asarray(rows, dtype=np.float64)
            if centroids.shape == shape and {type(v) for row in rows for v in row} & {bool, str}:
                raise TypeError  # numpy would read true and "1.5" as numbers
        except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
            raise ValueError(
                f"channel {i}: centroids must be a {shape[0]} x {shape[1]} array of numbers"
            ) from None
        if centroids.shape != shape:
            raise ValueError(
                f"channel {i}: centroid shape mismatch, {centroids.shape} != {shape}"
            )
        stack.append(centroids)
    return CodebookSet(np.stack(stack), [ch["name"] for ch in channels], file_hash)


def codebook_file_hash(path: str, data: bytes | None = None) -> str:
    """SHA-256 of the codebook file bytes, for checkpoint compatibility
    checks; ``data`` holds those bytes where a caller already read them."""
    import hashlib  # only pretrain, train and monitor hash codebooks

    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest()
