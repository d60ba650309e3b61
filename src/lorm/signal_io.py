"""Loading, normalisation, windowing, and streaming of multivariate sensor signals.

Batch functions are pure; ``stream_windows`` is single-consumer (one reader
per source) but its output windows may be handed to another thread in FIFO
order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from ._checks import check_int, quote

__all__ = [
    "MultiChannelSeries",
    "ChannelStats",
    "WindowingConfig",
    "StreamFormatError",
    "compute_channel_stats",
    "normalize_window",
    "segment_windows",
    "split_context_target",
    "stream_windows",
    "train_val_split",
    "stack_windows",
    "read_signal_csv",
    "write_signal_csv",
    "csv_sample_source",
    "socket_sample_source",
]

_BLOCK_CHARS = 1 << 16  # most bytes the CSV parser reads per block, so memory stays bounded
_TEXT_TYPES = frozenset({str, bytes, np.str_, np.bytes_})


@dataclass
class MultiChannelSeries:
    """A T x C matrix of raw measurements plus channel names that a signal CSV
    header carries back: UTF-8 text, no comma or line break, no outer spaces."""

    samples: np.ndarray
    channel_names: list[str]

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be 2-D (T, C), got shape {self.samples.shape}")
        t, c = self.samples.shape
        if t < 1 or c < 1:
            raise ValueError("series needs at least one sample and one channel")
        if len(self.channel_names) != c:
            raise ValueError(
                f"channel_names has {len(self.channel_names)} entries for {c} channels"
            )
        for i, name in enumerate(self.channel_names):
            if (not isinstance(name, str) or {",", "\n", "\r"} & set(name)
                    or name.encode("utf-8", "ignore").decode().strip() != name):
                raise ValueError(f"channel {i}: name {quote(name)} does not survive a CSV header")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def num_channels(self) -> int:
        return self.samples.shape[1]


@dataclass
class ChannelStats:
    """Per-channel mean/std used for z-scoring, with a stability epsilon."""

    mean: np.ndarray
    std: np.ndarray
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.std = np.asarray(self.std, dtype=np.float64).reshape(-1)
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std must have matching length")
        if not (np.isfinite([self.mean, self.std]).all() and (self.std >= 0).all()):
            raise ValueError("mean and std must be finite, std non-negative")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")

    @property
    def num_channels(self) -> int:
        return self.mean.shape[0]


@dataclass
class WindowingConfig:
    """Window length W, context length S, and hop between window starts."""

    window_len: int
    context_len: int
    stride: int

    def __post_init__(self) -> None:
        for name in ("window_len", "context_len", "stride"):
            check_int(name, getattr(self, name))
        if not self.context_len < self.window_len:
            raise ValueError(
                f"context_len must satisfy 0 < S < W, got S={self.context_len} W={self.window_len}"
            )


class StreamFormatError(ValueError):
    """A malformed record was encountered while streaming samples.

    ``record_index`` is the 0-based position of the record among the
    non-blank data records of the source (a CSV header is not a record).
    ``source``, when given, names the file at the head of the message.
    """

    def __init__(self, record_index: int, message: str, source: str | None = None):
        self.record_index = record_index
        where = f"{source}: " if source else ""
        super().__init__(f"{where}record {record_index}: {message}")


def compute_channel_stats(series: "MultiChannelSeries | np.ndarray") -> ChannelStats:
    """Column mean and population standard deviation (divide by T).

    Accepts either a series or a raw (T, C) sample matrix.
    """
    samples = series.samples if isinstance(series, MultiChannelSeries) else np.asarray(series)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValueError("empty input")
    mean = samples.mean(axis=0)
    std = samples.std(axis=0)  # ddof=0: population std
    return ChannelStats(mean=mean, std=std)


def normalize_window(data: np.ndarray, stats: ChannelStats) -> np.ndarray:
    """Channel-wise z-score of any (..., C) array: (x - mean) / (std + epsilon)."""
    if stats.num_channels != data.shape[-1]:
        raise ValueError(f"stats cover {stats.num_channels} channels but data has {data.shape[-1]}")
    out = data - stats.mean
    out /= stats.std + stats.epsilon
    return out


def segment_windows(series: MultiChannelSeries, cfg: WindowingConfig) -> np.ndarray:
    """Cut the series into complete windows at offsets 0, stride, 2*stride, ...

    Returns a read-only (n, W, C) view of the series samples; window k
    starts at sample k*stride. n is 0 when the series is shorter than one
    window.
    """
    samples = series.samples
    w = cfg.window_len
    if samples.shape[0] < w:
        return np.empty((0, w, samples.shape[1]), dtype=np.float64)
    view = np.lib.stride_tricks.sliding_window_view(samples, w, axis=0)[:: cfg.stride]
    return view.transpose(0, 2, 1)


def split_context_target(window: np.ndarray, context_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a (W, C) window into (context, target) = (rows <= S, rows > S)."""
    w = window.shape[0]
    if not 0 < context_len < w:
        raise ValueError(f"context_len must satisfy 0 < S < W, got S={context_len} W={w}")
    return window[:context_len], window[context_len:]


def stack_windows(windows: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate window rows into one (n*W, C) matrix."""
    if not len(windows):
        raise ValueError("empty input")
    return np.concatenate(windows, axis=0)


def train_val_split(
    windows: Sequence[np.ndarray], val_fraction: float, seed: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Seeded window-level random split; validation gets round(n * val_fraction).

    Both lists keep the windows' original order and hold the windows
    themselves (views of an (n, W, C) array stay views), not copies.
    """
    n = len(windows)
    if n < 2:
        raise ValueError("need at least two windows to split")
    if not 0 < val_fraction < 1:
        raise ValueError("val_fraction must lie in (0, 1)")
    n_val = min(n - 1, max(1, int(round(n * val_fraction))))
    order = np.random.default_rng(seed).permutation(n)
    val_idx = set(order[:n_val].tolist())
    train = [windows[i] for i in range(n) if i not in val_idx]
    val = [windows[i] for i in sorted(val_idx)]
    return train, val


def stream_windows(
    samples: Iterable[Sequence[float]],
    cfg: WindowingConfig,
    channel_count: int,
    source: str | None = None,
) -> Iterator[np.ndarray]:
    """Assemble (W, C) windows from an ordered sample stream.

    Yields the same window sequence as :func:`segment_windows` on the fully
    loaded series, regardless of how the source chunks its samples. A
    trailing partial window is never emitted. Each row is copied once, into
    the window being filled, and checked for finiteness when that window
    completes (rows skipped when stride > W and trailing rows are checked
    too). Each yielded window is its own array, which the consumer may keep
    or edit.

    Args:
        samples: iterable of per-sample rows, each with C values.
        cfg: windowing parameters; monitoring normally uses stride = W.
        channel_count: C, the number of values in every row.
        source: the name of the sample source (a file or tcp://host:port),
            put at the head of every error message when given.

    Raises:
        StreamFormatError: on a row with the wrong field count or a
            non-numeric value, when it arrives, or on a non-finite value,
            when its window completes, reporting the offending record index.
    """
    w, stride = cfg.window_len, cfg.stride
    keep, gap = max(w - stride, 0), max(stride - w, 0)  # rows shared by / between windows
    window, expected = np.empty((w, channel_count)), channel_count
    filled = checked = skip = 0  # rows in window, rows of them checked, gap rows to drop
    end = w  # the fill count at which the unchecked rows of window are checked
    for index, row in enumerate(samples):
        try:
            # numpy would read a text row as one value for all channels, and a
            # nested one-channel row (shape (1, 1)) as a flat one
            if (len(row) != expected or type(row) in _TEXT_TYPES
                    or expected == 1 and getattr(row, "ndim", 1) != 1):
                raise ValueError
            window[filled] = row
        except (TypeError, ValueError):  # a bad row: the per-row checks say which
            # a non-finite row before this one is named first, as if checked on arrival
            _check_finite(window[checked:filled], index - filled + checked, source)
            try:
                vec = np.asarray(row, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise StreamFormatError(index, f"non-numeric value ({exc})", source) from None
            if vec.ndim != 1:
                raise StreamFormatError(index, f"expected a flat row, got shape {vec.shape}", source)
            if len(vec) != expected:
                raise StreamFormatError(index, f"expected {expected} fields, got {len(vec)}", source)
            window[filled] = vec
        filled += 1
        if filled == end:
            _check_finite(window[checked:end], index + 1 - end + checked, source)
            if skip:  # rows between two windows (stride > W): checked, then dropped
                skip -= end
                filled = checked = 0
            else:
                yield window.copy()  # the consumer owns it; window stays private
                window[:keep] = window[stride:]  # the next window's first rows
                filled, checked, skip = keep, keep, gap
            end = min(skip, w) or w
    if filled:  # the rows of a trailing partial window
        _check_finite(window[checked:filled], index + 1 - filled + checked, source)


def _check_finite(rows: np.ndarray, first: int, source: str | None) -> None:
    """Raise StreamFormatError naming the first of ``rows`` (record ``first``
    on) that holds a non-finite value."""
    finite = np.isfinite(rows)
    if not finite.all():
        raise StreamFormatError(first + int(finite.all(axis=1).argmin()), "non-finite value", source)


def read_signal_csv(path: str) -> MultiChannelSeries:
    """Read the signal CSV format: header of channel names, one sample per row."""
    with open(path, "rb") as fh:
        names = _read_csv_header(fh, path)
        blocks = list(_csv_blocks(fh, path, len(names)))
    if not blocks:
        raise ValueError(f"{path}: no samples after header")
    return MultiChannelSeries(samples=np.concatenate(blocks), channel_names=names)


def write_signal_csv(series: MultiChannelSeries, path: str) -> None:
    """Write the signal CSV format with full round-trip float precision (repr):
    one ``%r`` row template, repeated per row, formats the flat sample list."""
    n, c = series.samples.shape
    rows = (",".join(["%r"] * c) + "\n") * n % tuple(series.samples.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(series.channel_names) + "\n" + rows)


def csv_sample_source(path: str) -> Iterator[np.ndarray]:
    """Replay a signal CSV file one sample row at a time (header skipped).

    Rows come from the same block parser as :func:`read_signal_csv`; the
    rows before a malformed record are yielded, then it raises.
    """
    with open(path, "rb") as fh:
        for block in _csv_blocks(fh, path, len(_read_csv_header(fh, path))):
            yield from block


def _read_csv_header(fh: IO[bytes], path: str) -> list[str]:
    line = fh.readline()
    if not line:
        raise ValueError(f"{path}: empty file")
    header = line.splitlines()[0]
    fh.seek(len(header) + 1 - len(line), os.SEEK_CUR)  # back to a first \r ending
    try:
        return [n.strip() for n in header.decode("utf-8").split(",")]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: header is not UTF-8 text ({exc.reason})") from None


def _csv_blocks(fh: IO[bytes], source: str, n_fields: int | None = None) -> Iterator[np.ndarray]:
    """Parse a binary stream one ``read1(_BLOCK_CHARS)`` at a time, cut at its
    last line ending (\\n, \\r\\n or \\r; the partial line waits for the next
    read), so a feed's records are parsed as they arrive. A read's k non-blank
    records become one (k, n_fields) block: one ``float`` pass straight from
    the bytes and one finiteness check; a block that fails goes to
    :func:`_parse_records`. n_fields comes from the first record when None.
    """
    index, tail = 0, b""  # index counts non-blank records
    while True:
        chunk = fh.read1(_BLOCK_CHARS)
        data = tail + chunk
        if chunk:
            cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
            data, tail = data[:cut], data[cut:]
        records = [line for line in map(bytes.strip, data.splitlines()) if line]
        if records:
            n_fields = n_fields or records[0].count(b",") + 1
            fields = b",".join(records).split(b",")
            commas = list(map(bytes.count, records, repeat(b",")))
            try:
                block = np.fromiter(map(float, fields), np.float64, len(fields))
                ok = commas.count(n_fields - 1) == len(records) and np.isfinite(block).all()
            except ValueError:
                ok = False
            if ok:
                yield block.reshape(len(records), n_fields)
            else:
                yield from _parse_records(records, n_fields, index, source)
            index += len(records)
        if not chunk:
            return


def _parse_records(records: list[bytes], n_fields: int, first: int, source: str) -> Iterator:
    """Parse records one by one: yield the rows before the first bad record
    as one block, then raise StreamFormatError naming that record."""
    rows = []
    for index, record in enumerate(records, first):
        try:
            rows.append(_parse_record(record, n_fields))
        except ValueError as exc:
            if rows:
                yield np.array(rows, dtype=np.float64)
            raise StreamFormatError(index, str(exc), source) from None
    yield np.array(rows, dtype=np.float64)


def _parse_record(record: bytes, n_fields: int) -> list[float]:
    """The values of one record; a ValueError says what is wrong with it."""
    try:
        fields = record.decode("utf-8").split(",")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 text ({exc.reason})") from None
    if len(fields) != n_fields:
        raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
    try:
        row = [float(f) for f in fields]
    except ValueError as exc:
        raise ValueError(f"non-numeric value ({exc})") from None
    if not all(map(math.isfinite, row)):
        raise ValueError("non-finite value")
    return row


def socket_sample_source(
    host: str, port: int, timeout_s: float | None = None
) -> Iterator[np.ndarray]:
    """Connect to a line-oriented TCP feed: one sample per line, C floats each,
    parsed like a signal file with C taken from the first record.

    The stream ends when the peer closes the connection. Errors name the
    source as tcp://host:port. With ``timeout_s``, connecting, and each wait
    for more data, give up after that many seconds with a TimeoutError. A
    port outside 1..65535 raises ValueError here, before any connection.
    """
    check_int("port", port)  # the resolver would take 99999 as 99999 mod 65536
    if port > 65535:
        raise ValueError(f"port must be an integer <= 65535, got {port}")
    return _socket_rows(host, port, timeout_s)


def _socket_rows(host: str, port: int, timeout_s: float | None) -> Iterator[np.ndarray]:
    import socket  # only monitor on a tcp:// feed pays for loading it

    source = f"tcp://{host}:{port}"
    try:
        conn = socket.create_connection((host, port), timeout=timeout_s)
    except OSError as exc:
        raise OSError(f"{source}: cannot connect ({exc})") from None
    with conn, conn.makefile("rb") as fh:
        try:
            for block in _csv_blocks(fh, source):
                yield from block
        except TimeoutError:
            raise TimeoutError(f"{source}: no data for {timeout_s} s") from None
        except OSError as exc:
            raise OSError(f"{source}: read failed ({exc})") from None
