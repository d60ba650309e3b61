"""Wear tables, labelling, confusion metrics, metric output."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorm.evaluation import (
    ConfusionCounts,
    WearTable,
    compute_metrics,
    format_metrics_table,
    label_windows,
    write_metrics_json,
)


def three_cut_table():
    return WearTable(
        cut_id=[1, 2, 3],
        wear_um=[285.61, 301.21, 335.18],
        first_window=[1, 11, 21],
        last_window=[10, 20, 30],
    )


def columns(table):
    return [
        c.tolist() for c in (table.cut_id, table.wear_um, table.first_window, table.last_window)
    ]


class TestWearTable:
    def test_lookups(self):
        table = three_cut_table()
        assert table.locate([1, 10, 11, 25, 30]).tolist() == [0, 0, 1, 2, 2]
        assert columns(table) == [
            [1, 2, 3], [285.61, 301.21, 335.18], [1, 11, 21], [10, 20, 30]
        ]

    def test_columns_are_read_only_arrays(self):
        table = three_cut_table()
        assert [c.dtype for c in (table.cut_id, table.wear_um, table.first_window)] == [
            np.int64, np.float64, np.int64
        ]
        with pytest.raises(ValueError, match="read-only"):
            table.wear_um[0] = 0.0

    def test_columns_of_other_lengths_rejected(self):
        with pytest.raises(ValueError, match="1-D and of one length"):
            WearTable([1, 2], [1.0], [1, 3], [2, 4])

    def test_ids_beyond_64_bits_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="64 bits"):
            WearTable([2**63], [1.0], [1], [2])
        path = tmp_path / "wear.csv"
        path.write_text("cut_id,wear_um,first_window,last_window\n1,1.0,1,1" + "0" * 30 + "\n")
        with pytest.raises(ValueError, match=f"^{path}: cut ids and window indices must fit"):
            WearTable.from_csv(str(path))

    def test_uncovered_windows_locate_to_minus_one(self):
        table = three_cut_table()
        assert table.locate([0, 31, -5, 10**30]).tolist() == [-1, -1, -1, -1]
        assert table.locate([]).tolist() == []

    @settings(max_examples=100, deadline=None)
    @given(
        spans=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=6),
        windows=st.lists(st.integers(-2, 30), max_size=20),
        data=st.data(),
    )
    def test_locate_matches_a_scan(self, spans, windows, data):
        """Spans laid end to end with gaps of 0-3 windows and lengths of 1-4,
        given in any order; the table holds them sorted by span."""
        rows, start = [], 1
        for cut_id, (gap, extra) in enumerate(spans, start=1):
            rows.append((cut_id, 100.0 + cut_id, start + gap, start + gap + extra))
            start += gap + extra + 1
        table = WearTable(*zip(*data.draw(st.permutations(rows))))
        assert columns(table) == [list(c) for c in zip(*rows)]
        expected = [next((i for i, r in enumerate(rows) if r[2] <= w <= r[3]), -1) for w in windows]
        assert table.locate(windows).tolist() == expected

    def test_rows_sorted_by_span(self):
        table = WearTable(cut_id=[2, 1], wear_um=[200.0, 100.0], first_window=[6, 1],
                          last_window=[9, 5])
        assert columns(table) == [[1, 2], [100.0, 200.0], [1, 6], [5, 9]]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="^cut 2: window span overlaps the previous cut$"):
            WearTable([1, 2], [1.0, 2.0], [1, 5], [5, 8])

    def test_duplicate_cut_rejected(self):
        with pytest.raises(ValueError, match="^duplicate cut id 1$"):
            WearTable([1, 1], [1.0, 2.0], [1, 3], [2, 4])

    def test_first_problem_in_span_order_is_reported(self):
        """Cut 5 repeats cut 5 and cut 7 overlaps it; the repeat comes first
        in span order, whatever the order of the rows given."""
        with pytest.raises(ValueError, match="^duplicate cut id 5$"):
            WearTable([7, 5, 5], [1.0, 1.0, 1.0], [9, 1, 4], [9, 3, 9])
        with pytest.raises(ValueError, match="^cut 7: window span overlaps"):
            WearTable([7, 5, 5], [1.0, 1.0, 1.0], [2, 1, 4], [2, 3, 9])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^empty input$"):
            WearTable([], [], [], [])

    @pytest.mark.parametrize(
        "wear, first, message",
        [(float("nan"), 1, "wear must be finite"), (float("inf"), 1, "wear must be finite"),
         (-0.1, 1, "wear must be >= 0"), (1.0, 5, "empty window span")],
    )
    def test_bad_row_rejected(self, wear, first, message):
        with pytest.raises(ValueError, match=f"^cut 3: {message}$"):
            WearTable([2, 3], [1.0, wear], [10, first], [12, 4])

    def test_csv_round_trip(self, tmp_path):
        table = three_cut_table()
        path = tmp_path / "wear.csv"
        table.to_csv(str(path))
        assert path.read_text() == (
            "cut_id,wear_um,first_window,last_window\n"
            "1,285.61,1,10\n2,301.21,11,20\n3,335.18,21,30\n"
        )
        assert columns(WearTable.from_csv(str(path))) == columns(table)

    def test_from_csv_bad_header(self, tmp_path):
        path = tmp_path / "wear.csv"
        path.write_text("cut,wear\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            WearTable.from_csv(str(path))


class TestLabelWindows:
    def test_strictly_above_limit(self):
        table = three_cut_table()
        labels = label_windows(table, 300.0, table.locate([5, 15, 25]))
        # 285.61 <= 300 healthy, 301.21 > 300 abnormal, 335.18 > 300 abnormal
        assert labels.tolist() == [False, True, True]

    def test_exact_limit_is_healthy(self):
        table = WearTable(cut_id=[1], wear_um=[300.0], first_window=[1], last_window=[4])
        assert label_windows(table, 300.0, [0, 0, 0, 0]).tolist() == [False] * 4

    def test_row_outside_the_table_refused(self):
        """-1, locate's row for a window outside every cut, would otherwise
        label it with the last cut's wear."""
        table = three_cut_table()
        with pytest.raises(ValueError, match="^row -1 names no cut: its window is outside"):
            label_windows(table, 300.0, table.locate([5, 31]))


class TestConfusionCounts:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, tn=0, fp=0, fn=0)


class TestComputeMetrics:
    def test_counts(self):
        pred = [True, True, False, False, True]
        lab = [True, False, True, False, True]
        report = compute_metrics(pred, lab)
        assert report.counts == ConfusionCounts(tp=2, tn=1, fp=1, fn=1)
        assert report.accuracy == 3 / 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            compute_metrics([True], [True, False])

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
        assert asdict(shuffled) == asdict(base)

    def test_metrics_recompute_from_counts(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            pred = rng.random(30) > 0.4
            lab = rng.random(30) > 0.6
            r = compute_metrics(pred, lab)
            c = r.counts
            assert c.tp + c.tn + c.fp + c.fn == len(lab)
            assert r.accuracy == pytest.approx((c.tp + c.tn) / len(lab), abs=1e-12)
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
