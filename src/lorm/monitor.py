"""Online condition monitoring: WLF scoring, health index, alarms, calibration.

Each incoming window is scored by its window-level fit (WLF), the mean of
its row of :func:`lorm.train.token_errors` under the deployed model. The
first buffer_len windows form a baseline; afterwards the health index is

    hi(k) = wlf(k) - mean(wlf(1..buffer_len))

and an alarm fires strictly when hi > threshold. HI is absent (None), not
zero, while the baseline accumulates (NaN once read back from hi.csv), so
downstream metrics can skip those windows.

One tracker per stream, single writer. Model parameters are read-only here,
so many streams may share one checkpoint.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._checks import check_int, check_real
from .evaluation import WearTable
from .model import Checkpoint, forward_batch, load_checkpoint
from .tokenizer import CodebookSet, codebook_file_hash, load_codebooks
from .train import build_examples, token_errors

__all__ = [
    "MonitorConfig",
    "HealthRecord",
    "HealthColumns",
    "HealthTracker",
    "DeployedModel",
    "ThresholdCalibration",
    "score_window",
    "monitor_stream",
    "calibrate_threshold",
    "write_health_csv",
    "read_health_csv",
    "format_alarm_line",
]


@dataclass
class MonitorConfig:
    """Baseline length, alarm threshold (any number but NaN; inf never
    alarms), and how long a tcp:// feed may stay silent (None: forever)."""

    buffer_len: int = 20000
    threshold: float = 0.20
    read_timeout_s: float | None = 60.0

    def __post_init__(self) -> None:
        check_int("buffer_len", self.buffer_len)
        self.threshold = check_real(
            "threshold", self.threshold, "a number other than NaN", lambda x: True
        )
        if self.read_timeout_s is not None:
            self.read_timeout_s = check_real("read_timeout_s", self.read_timeout_s, "> 0 or None")


@dataclass
class HealthRecord:
    """Outcome for one monitored window; window_index is 1-based."""

    window_index: int
    wlf: float
    hi: float | None
    alarm: bool


# hi.csv as four read-only columns, as read_health_csv returns them
HealthColumns = namedtuple("HealthColumns", "window_index wlf hi alarm")


class HealthTracker(object):
    """Stateful per-stream HI computation. Feed WLF values in arrival order.

    The first buffer_len WLF values are kept in ``buffer``; once it is full
    the baseline is their mean and the buffer is emptied. A non-finite WLF,
    which would turn the baseline or the HI into NaN, raises ValueError.
    """

    def __init__(self, cfg: MonitorConfig) -> None:
        self.cfg = cfg
        self.buffer: list[float] = []
        self.baseline: float | None = None
        self._count = 0

    def update(self, wlf: float) -> HealthRecord:
        self._count, wlf = self._count + 1, float(wlf)
        if not math.isfinite(wlf):
            raise ValueError(f"window {self._count}: wlf is {wlf!r}, not finite")
        if self.baseline is None:
            self.buffer.append(wlf)
            if len(self.buffer) == self.cfg.buffer_len:
                self.baseline, self.buffer = float(np.mean(self.buffer)), []
            return HealthRecord(self._count, wlf, None, False)
        hi = wlf - self.baseline
        return HealthRecord(self._count, wlf, hi, hi > self.cfg.threshold)


@dataclass
class DeployedModel:
    """A trained checkpoint plus the codebooks it was trained against."""

    checkpoint: Checkpoint
    codebooks: CodebookSet

    def __post_init__(self) -> None:
        cfg, books, names = self.checkpoint.config, self.codebooks, self.checkpoint.channel_names
        if books.K != cfg.num_tokens or list(books.channel_names) != names:
            raise ValueError(
                f"codebooks (K={books.K}, channels {list(books.channel_names)}) are "
                f"incompatible with the checkpoint (K={cfg.num_tokens}, channels {names})"
            )

    @classmethod
    def from_files(cls, checkpoint_path: str, codebooks_path: str) -> "DeployedModel":
        """Load a pair; codebooks that do not hash as the checkpoint recorded
        are rejected. The codebooks file is read once, and the bytes hashed
        are the bytes parsed."""
        ckpt = load_checkpoint(checkpoint_path)
        with open(codebooks_path, "rb") as fh:
            data = fh.read()
        if ckpt.codebook_hash:
            actual = codebook_file_hash(codebooks_path, data)
            if actual != ckpt.codebook_hash:
                raise ValueError(
                    f"{codebooks_path}: codebooks file does not match the checkpoint "
                    f"(hash {actual[:12]}.. != {ckpt.codebook_hash[:12]}..)"
                )
        return cls(checkpoint=ckpt, codebooks=load_codebooks(codebooks_path, data))


def score_window(window: np.ndarray, deployed: DeployedModel) -> float:
    """WLF for one raw (W, C) window: normalise with the stored training
    stats, split, flatten, predict, and take the mean of the true target
    tokens' per-channel cross-entropy."""
    ckpt = deployed.checkpoint
    window = np.asarray(window, dtype=np.float64)
    expected = (ckpt.window_len, len(ckpt.channel_names))
    if window.shape != expected:
        raise ValueError(
            f"window has shape {window.shape} (W, channels); the model expects {expected}"
        )
    p, y = build_examples(
        window[None], ckpt.stats, ckpt.context_len, deployed.codebooks, ckpt.config.patch_len
    )
    dists, _ = forward_batch(p, ckpt.params, ckpt.config)
    return float(token_errors(dists, y)[0].mean())


def monitor_stream(
    deployed: DeployedModel,
    windows: Iterable[np.ndarray],
    cfg: MonitorConfig,
) -> Iterator[HealthRecord]:
    """Score windows in arrival order and yield one HealthRecord each.

    Strictly causal: the record for window k depends only on windows <= k.
    A window that cannot be scored raises ValueError naming it.
    """
    tracker = HealthTracker(cfg)
    for k, window in enumerate(windows, 1):
        try:
            wlf = score_window(window, deployed)
        except ValueError as exc:
            raise ValueError(f"window {k}: {exc}") from exc
        yield tracker.update(wlf)


@dataclass
class ThresholdCalibration:
    """Calibrated threshold and the cut it was read from."""

    tau: float
    cut_id: int
    wear_um: float


def calibrate_threshold(
    hi: Sequence[float], positions: Sequence[int], wear: WearTable, wear_limit_um: float
) -> ThresholdCalibration:
    """Threshold read at the wear limit: hi[i] is window i's health index and
    positions[i] the row of its cut in ``wear``, -1 for a window left out.
    Of the cuts holding a window, the one whose wear is nearest the limit
    (ties: lowest cut id) gives tau, its windows' mean HI in the order given.
    """
    hi = np.asarray(hi, dtype=np.float64)
    positions = np.asarray(positions)
    if hi.shape != positions.shape:
        raise ValueError("hi and positions must have equal length")
    held = np.sort(positions[positions >= 0])
    if held.size == 0:
        raise ValueError("no cut with a defined health index")
    # np.unique's ascending rows, without its masked-array check: numpy.ma
    # would add about 10 ms to calibrate's start
    held = held[np.r_[True, held[1:] != held[:-1]]]
    gap = np.abs(wear.wear_um[held] - wear_limit_um)
    row = held[np.lexsort((wear.cut_id[held], gap))[0]]
    return ThresholdCalibration(
        tau=float(np.mean(hi[positions == row])),
        cut_id=int(wear.cut_id[row]),
        wear_um=float(wear.wear_um[row]),
    )


def write_health_csv(records: Iterable[HealthRecord], path: str) -> None:
    """window_index,wlf,hi,alarm rows; hi is empty during the baseline buffer.
    ``path`` is truncated before the first record is asked for, and each row
    reaches the file as its record arrives: records that fail midway leave
    the rows before the failure, and none of an earlier file."""
    with open(path, "w", encoding="utf-8", newline="", buffering=1) as fh:
        fh.write("window_index,wlf,hi,alarm\n")
        for rec in records:
            hi = "" if rec.hi is None else repr(rec.hi)
            fh.write(f"{rec.window_index},{rec.wlf!r},{hi},{'1' if rec.alarm else '0'}\n")


def read_health_csv(path: str) -> HealthColumns:
    """Parse a health CSV into read-only columns: window_index (int64), wlf
    (float64), hi (float64, NaN in the baseline) and alarm (bool). Columns
    after alarm are ignored.

    Raises:
        ValueError: naming ``path`` and the 1-based line for a malformed row.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0][1].split(",")
    required = ["window_index", "wlf", "hi", "alarm"]
    if header[: len(required)] != required:
        raise ValueError(f"{path}: unexpected header {lines[0][1]!r}")
    columns: tuple[list, ...] = ([], [], [], [])
    for n, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(parts)}")
            if parts[3] not in ("0", "1"):
                raise ValueError(f"alarm must be 0 or 1, got {parts[3]!r}")
            wlf, hi = float(parts[1]), float(parts[2] or "nan")
            if not math.isfinite(wlf) or parts[2] and not math.isfinite(hi):
                raise ValueError("wlf and hi must be finite")
            row = (int(parts[0]), wlf, hi, parts[3] == "1")
            if row[3] and not parts[2]:
                raise ValueError("alarm requires a defined health index")
            if not -(2**63) <= row[0] < 2**63:
                raise ValueError("window index must fit in 64 bits")
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
        for column, value in zip(columns, row):
            column.append(value)
    arrays = [np.array(c, dtype=t) for c, t in zip(columns, (np.int64, float, float, bool))]
    for array in arrays:
        array.setflags(write=False)
    return HealthColumns(*arrays)


def format_alarm_line(record: HealthRecord, tau: float) -> str:
    """The log line emitted once per alarmed window."""
    if not record.alarm or record.hi is None:
        raise ValueError("record is not an alarm")
    return f"ALARM window={record.window_index} hi={record.hi!r} tau={tau!r}"
