"""Wear tables, labelling, confusion metrics, detection deviation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorm.evaluation import (
    ConfusionCounts,
    WearEntry,
    WearTable,
    compute_metrics,
    detection_deviation,
    format_metrics_table,
    label_windows,
    write_metrics_json,
)


def three_cut_table():
    return WearTable(
        entries=[
            WearEntry(cut_id=1, wear_um=285.61, first_window=1, last_window=10),
            WearEntry(cut_id=2, wear_um=301.21, first_window=11, last_window=20),
            WearEntry(cut_id=3, wear_um=335.18, first_window=21, last_window=30),
        ]
    )


class TestWearTable:
    def test_lookups(self):
        table = three_cut_table()
        assert list(table.wear_by_cut()) == [1, 2, 3]
        assert table.locate([1, 10, 11, 25, 30]).tolist() == [0, 0, 1, 2, 2]
        assert table.wear_by_cut() == {1: 285.61, 2: 301.21, 3: 335.18}

    def test_uncovered_windows_locate_to_minus_one(self):
        table = three_cut_table()
        assert table.locate([0, 31, -5, 10**30]).tolist() == [-1, -1, -1, -1]
        assert table.locate([]).tolist() == []

    @settings(max_examples=100, deadline=None)
    @given(
        spans=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=6),
        windows=st.lists(st.integers(-2, 30), max_size=20),
    )
    def test_locate_matches_a_scan(self, spans, windows):
        """Spans laid end to end with gaps of 0-3 windows and lengths of 1-4."""
        entries, start = [], 1
        for cut_id, (gap, extra) in enumerate(spans, start=1):
            entries.append(WearEntry(cut_id, 100.0, start + gap, start + gap + extra))
            start += gap + extra + 1
        table = WearTable(entries=entries[::-1])
        bounds = [(e.first_window, e.last_window) for e in table.entries]
        expected = [next((i for i, (a, b) in enumerate(bounds) if a <= w <= b), -1) for w in windows]
        assert table.locate(windows).tolist() == expected

    def test_uncovered_window_rejected(self):
        with pytest.raises(ValueError, match="window 31 is not covered"):
            label_windows(three_cut_table(), 300.0, [5, 31])
        with pytest.raises(ValueError, match="window 0 is not covered"):
            detection_deviation(0, three_cut_table(), 300.0)

    def test_entries_sorted_by_span(self):
        table = WearTable(
            entries=[
                WearEntry(cut_id=2, wear_um=200.0, first_window=6, last_window=9),
                WearEntry(cut_id=1, wear_um=100.0, first_window=1, last_window=5),
            ]
        )
        assert list(table.wear_by_cut()) == [1, 2]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            WearTable(
                entries=[
                    WearEntry(cut_id=1, wear_um=1.0, first_window=1, last_window=5),
                    WearEntry(cut_id=2, wear_um=2.0, first_window=5, last_window=8),
                ]
            )

    def test_duplicate_cut_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WearTable(
                entries=[
                    WearEntry(cut_id=1, wear_um=1.0, first_window=1, last_window=2),
                    WearEntry(cut_id=1, wear_um=2.0, first_window=3, last_window=4),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WearTable(entries=[])

    def test_negative_wear_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            WearEntry(cut_id=1, wear_um=-0.1, first_window=1, last_window=2)

    def test_inverted_span_rejected(self):
        with pytest.raises(ValueError, match="empty window span"):
            WearEntry(cut_id=1, wear_um=1.0, first_window=5, last_window=4)

    def test_csv_round_trip(self, tmp_path):
        table = three_cut_table()
        path = tmp_path / "wear.csv"
        table.to_csv(str(path))
        loaded = WearTable.from_csv(str(path))
        assert loaded.wear_by_cut() == table.wear_by_cut()
        for e_in, e_out in zip(table.entries, loaded.entries):
            assert (e_in.first_window, e_in.last_window) == (
                e_out.first_window,
                e_out.last_window,
            )

    def test_from_csv_bad_header(self, tmp_path):
        path = tmp_path / "wear.csv"
        path.write_text("cut,wear\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            WearTable.from_csv(str(path))


class TestLabelWindows:
    def test_strictly_above_limit(self):
        table = three_cut_table()
        labels = label_windows(table, 300.0, [5, 15, 25])
        # 285.61 <= 300 healthy, 301.21 > 300 abnormal, 335.18 > 300 abnormal
        assert labels.tolist() == [False, True, True]

    def test_exact_limit_is_healthy(self):
        table = WearTable(
            entries=[WearEntry(cut_id=1, wear_um=300.0, first_window=1, last_window=4)]
        )
        assert label_windows(table, 300.0, [1, 2, 3, 4]).tolist() == [False] * 4


class TestConfusionCounts:
    def test_from_pairs(self):
        pred = [True, True, False, False, True]
        lab = [True, False, True, False, True]
        c = ConfusionCounts.from_pairs(pred, lab)
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 1, 1)
        assert c.total == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ConfusionCounts.from_pairs([True], [True, False])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, tn=0, fp=0, fn=0)


class TestComputeMetrics:
    def test_worked_example(self):
        # tp=5 tn=12 fp=1 fn=2 over 20 windows
        pred = [True] * 5 + [False] * 12 + [True] + [False] * 2
        lab = [True] * 5 + [False] * 12 + [False] + [True] * 2
        report = compute_metrics(pred, lab)
        assert report.accuracy == pytest.approx(0.85, abs=1e-6)
        assert report.precision == pytest.approx(0.833333, abs=1e-6)
        assert report.recall == pytest.approx(0.714286, abs=1e-6)
        assert report.f1 == pytest.approx(0.769231, abs=1e-6)
        assert report.fpr == pytest.approx(0.076923, abs=1e-6)
        assert report.degenerate == []

    def test_all_correct(self):
        lab = [True, False, True, False]
        report = compute_metrics(lab, lab)
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
        assert report.fpr == 0.0

    def test_no_positive_predictions_flags_precision(self):
        report = compute_metrics([False, False], [True, False])
        assert report.precision == 0.0
        assert "precision" in report.degenerate
        assert "f1" in report.degenerate

    def test_no_positive_labels_flags_recall(self):
        report = compute_metrics([False, True], [False, False])
        assert report.recall == 0.0
        assert "recall" in report.degenerate

    def test_all_positive_labels_flags_fpr(self):
        report = compute_metrics([True, False], [True, True])
        assert report.fpr == 0.0
        assert "fpr" in report.degenerate

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pred = rng.random(50) > 0.5
        lab = rng.random(50) > 0.5
        base = compute_metrics(pred, lab)
        order = rng.permutation(50)
        shuffled = compute_metrics(pred[order], lab[order])
        assert shuffled.to_dict() == base.to_dict()

    def test_metrics_recompute_from_counts(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            pred = rng.random(30) > 0.4
            lab = rng.random(30) > 0.6
            r = compute_metrics(pred, lab)
            c = r.counts
            assert r.accuracy == pytest.approx((c.tp + c.tn) / c.total, abs=1e-12)
            if c.tp + c.fp:
                assert r.precision == pytest.approx(c.tp / (c.tp + c.fp), abs=1e-12)
            if c.tp + c.fn:
                assert r.recall == pytest.approx(c.tp / (c.tp + c.fn), abs=1e-12)
            if c.fp + c.tn:
                assert r.fpr == pytest.approx(c.fp / (c.fp + c.tn), abs=1e-12)

    def test_f1_is_harmonic_mean(self):
        report = compute_metrics(
            [True, True, True, False], [True, False, True, True]
        )
        p, r = report.precision, report.recall
        assert report.f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)


class TestDetectionDeviation:
    def test_above_limit_crossing(self):
        # first alarm lands on the 335.18 um cut: deviation 35.18
        table = three_cut_table()
        dev = detection_deviation(21, table, 300.0)
        assert dev == pytest.approx(35.18, abs=1e-12)

    def test_early_alarm_below_limit(self):
        # alarm during the 285.61 um cut: deviation 14.39
        table = three_cut_table()
        dev = detection_deviation(3, table, 300.0)
        assert dev == pytest.approx(14.39, abs=1e-12)

    def test_no_alarm_gives_none(self):
        assert detection_deviation(None, three_cut_table(), 300.0) is None


class TestFormatting:
    def test_table_alignment_and_flags(self):
        report = compute_metrics([False, False], [False, False])
        text = format_metrics_table(report)
        lines = text.split("\n")
        assert lines[0].startswith("accuracy")
        assert any("(zero denominator)" in ln for ln in lines)
        # names are padded to a common width: the value column lines up
        width = max(len(n) for n in ["accuracy", "precision", "recall", "f1", "fpr", "tp/tn/fp/fn"])
        for ln in lines:
            assert ln[width : width + 2] == "  "
            assert ln[width + 2] != " "

    def test_deviation_row(self):
        report = compute_metrics([True], [True])
        text = format_metrics_table(report, deviation_um=35.18)
        assert "detection_deviation_um" in text
        assert "35.180000" in text


class TestMetricsJson:
    def test_merge_preserves_existing_keys(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json({"calibration": {"tau": 0.2}}, str(path))
        write_metrics_json({"classification": {"accuracy": 1.0}}, str(path))
        doc = json.loads(path.read_text())
        assert doc["calibration"] == {"tau": 0.2}
        assert doc["classification"] == {"accuracy": 1.0}

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            write_metrics_json({"a": 1}, str(path))

    @pytest.mark.parametrize(
        "text, message",
        [("{nope", "Expecting property name"),
         ("[" * 100_000 + "]" * 100_000, "maximum recursion")],
    )
    def test_unreadable_file_names_path(self, tmp_path, text, message):
        path = tmp_path / "metrics.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            write_metrics_json({"a": 1}, str(path))
        assert str(exc.value).startswith(f"{path}: not a JSON document (")
        assert message in str(exc.value)

    def test_sorted_keys(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json({"zeta": 1, "alpha": 2}, str(path))
        text = path.read_text()
        assert text.index("alpha") < text.index("zeta")
