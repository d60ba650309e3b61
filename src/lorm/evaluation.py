"""Wear tables, window labelling, classification metrics.

A wear table maps each monitored window (1-based index, matching the
window_index column of hi.csv) to a ring cut and each cut to a measured wear
in micrometres. A window is abnormal when its cut's wear strictly exceeds the
limit. Alarm flags against those labels give the usual confusion-matrix
metrics.

Everything here is pure and safe to call from any thread.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "WearTable",
    "ConfusionCounts",
    "MetricReport",
    "label_windows",
    "compute_metrics",
    "format_metrics_table",
    "write_metrics_json",
]


def _check_cut(cut_id: int, wear_um: float, first_window: int, last_window: int) -> None:
    """Reject a cut whose wear is not finite or negative, or whose span is empty."""
    if not math.isfinite(wear_um):
        raise ValueError(f"cut {cut_id}: wear must be finite")
    if wear_um < 0:
        raise ValueError(f"cut {cut_id}: wear must be >= 0")
    if first_window > last_window:
        raise ValueError(f"cut {cut_id}: empty window span")


class WearTable:
    """Ring cuts as four read-only columns sorted by first_window: cut_id,
    wear_um and the inclusive window span first_window..last_window. Spans
    are disjoint, so a covered window maps to one cut."""

    def __init__(self, cut_id, wear_um, first_window, last_window) -> None:
        values = (cut_id, wear_um, first_window, last_window)
        dtypes = (np.int64, np.float64, np.int64, np.int64)
        try:
            columns = [np.array(v, dtype=t) for v, t in zip(values, dtypes)]
        except OverflowError:
            raise ValueError("cut ids and window indices must fit in 64 bits") from None
        if any(c.shape != columns[0].shape or c.ndim != 1 for c in columns):
            raise ValueError("the four columns must be 1-D and of one length")
        if columns[0].size == 0:
            raise ValueError("empty input")
        for row in zip(*(c.tolist() for c in columns)):
            _check_cut(*row)
        order = np.argsort(columns[2], kind="stable")
        for column in columns:
            column[:] = column[order]
            column.setflags(write=False)
        self.cut_id, self.wear_um, self.first_window, self.last_window = columns
        # in span order, a cut id seen before, or a span that starts inside the
        # previous one; the first such row is reported
        repeat = np.ones(order.size, dtype=bool)
        repeat[np.unique(self.cut_id, return_index=True)[1]] = False
        overlap = np.r_[False, self.first_window[1:] <= self.last_window[:-1]]
        bad = np.flatnonzero(repeat | overlap)
        if bad.size and repeat[bad[0]]:
            raise ValueError(f"duplicate cut id {self.cut_id[bad[0]]}")
        if bad.size:
            raise ValueError(f"cut {self.cut_id[bad[0]]}: window span overlaps the previous cut")

    def locate(self, window_indices: Sequence[int]) -> np.ndarray:
        """Row of the cut covering each window; -1 where no cut does."""
        windows = np.asarray(window_indices)
        pos = np.searchsorted(self.first_window, windows, side="right") - 1
        covered = (pos >= 0) & (windows <= self.last_window[np.maximum(pos, 0)])
        return np.where(covered, pos, -1)

    def to_csv(self, path: str) -> None:
        columns = (self.cut_id, self.wear_um, self.first_window, self.last_window)
        rows = zip(*(c.tolist() for c in columns))  # Python numbers: repr is the literal
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("cut_id,wear_um,first_window,last_window\n")
            fh.write("".join(f"{c},{w!r},{a},{b}\n" for c, w, a, b in rows))

    @classmethod
    def from_csv(cls, path: str) -> "WearTable":
        """Read a wear CSV; errors name ``path`` and, for a bad row, its 1-based line."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
        if not lines or lines[0][1] != "cut_id,wear_um,first_window,last_window":
            raise ValueError(f"{path}: expected wear-table header")
        columns: tuple[list, ...] = ([], [], [], [])
        for n, ln in lines[1:]:
            parts = ln.split(",")
            try:
                if len(parts) != 4:
                    raise ValueError(f"expected 4 fields, got {len(parts)}")
                row = (int(parts[0]), float(parts[1]), int(parts[2]), int(parts[3]))
                _check_cut(*row)  # here as well, so that the message names the line
            except ValueError as exc:
                raise ValueError(f"{path}: line {n}: {exc}") from None
            for column, value in zip(columns, row):
                column.append(value)
        try:
            return cls(*columns)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass
class ConfusionCounts:
    """tp/tn/fp/fn over the labelled windows."""

    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @classmethod
    def from_pairs(cls, predictions: Sequence[bool], labels: Sequence[bool]) -> "ConfusionCounts":
        if len(predictions) != len(labels):
            raise ValueError("predictions and labels must have equal length")
        pred = np.asarray(predictions, dtype=bool)
        lab = np.asarray(labels, dtype=bool)
        return cls(
            tp=int(np.sum(pred & lab)),
            tn=int(np.sum(~pred & ~lab)),
            fp=int(np.sum(pred & ~lab)),
            fn=int(np.sum(~pred & lab)),
        )


@dataclass
class MetricReport:
    """Classification metrics; degenerate lists metrics whose denominator was 0
    (those are reported as 0)."""

    counts: ConfusionCounts
    accuracy: float
    precision: float
    recall: float
    f1: float
    fpr: float
    degenerate: list[str] = field(default_factory=list)


def label_windows(wear: WearTable, limit_um: float, positions: Sequence[int]) -> np.ndarray:
    """Boolean abnormal labels: the wear of each window's cut, given as its
    row in ``wear`` (as ``WearTable.locate`` returns it), strictly above limit."""
    rows = np.asarray(positions, dtype=np.int64)
    if (rows < 0).any():
        raise ValueError(f"row {rows.min()} names no cut: its window is outside the wear table")
    return wear.wear_um[rows] > limit_um


def _ratio(num: int, den: int, name: str, degenerate: list[str]) -> float:
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def compute_metrics(predictions: Sequence[bool], labels: Sequence[bool]) -> MetricReport:
    """Accuracy, precision, recall, F1, and false-positive rate.

    acc = (tp+tn)/total, p = tp/(tp+fp), r = tp/(tp+fn),
    f1 = 2pr/(p+r), fpr = fp/(fp+tn); any zero denominator yields 0 and the
    metric's name in the degenerate list.
    """
    c = ConfusionCounts.from_pairs(predictions, labels)
    degenerate: list[str] = []
    accuracy = _ratio(c.tp + c.tn, c.total, "accuracy", degenerate)
    precision = _ratio(c.tp, c.tp + c.fp, "precision", degenerate)
    recall = _ratio(c.tp, c.tp + c.fn, "recall", degenerate)
    if precision + recall == 0.0:
        degenerate.append("f1")
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    fpr = _ratio(c.fp, c.fp + c.tn, "fpr", degenerate)
    return MetricReport(
        counts=c,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        fpr=fpr,
        degenerate=degenerate,
    )


def format_metrics_table(report: MetricReport, deviation_um: float | None = None) -> str:
    """Aligned plain-text rendering of a metric report."""
    rows = [
        ("accuracy", f"{report.accuracy:.6f}"),
        ("precision", f"{report.precision:.6f}"),
        ("recall", f"{report.recall:.6f}"),
        ("f1", f"{report.f1:.6f}"),
        ("fpr", f"{report.fpr:.6f}"),
        ("tp/tn/fp/fn", f"{report.counts.tp}/{report.counts.tn}/{report.counts.fp}/{report.counts.fn}"),
    ]
    if deviation_um is not None:
        rows.append(("detection_deviation_um", f"{deviation_um:.6f}"))
    width = max(len(name) for name, _ in rows)
    lines = []
    for name, value in rows:
        flag = "  (zero denominator)" if name in report.degenerate else ""
        lines.append(f"{name.ljust(width)}  {value}{flag}")
    return "\n".join(lines)


def write_metrics_json(payload: dict, path: str) -> None:
    """Write (or update) a JSON metrics file; existing top-level keys survive."""
    doc: dict = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deeply
                raise ValueError(f"{path}: not a JSON document ({exc})") from None
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected a JSON object")
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
