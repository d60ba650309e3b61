"""Health tracking, alarms, threshold calibration, and deployment plumbing."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorm.evaluation import WearTable
from lorm.model import BackboneConfig, Checkpoint, forward_batch, init_model, save_checkpoint
from lorm.monitor import (
    DeployedModel,
    HealthRecord,
    HealthTracker,
    MonitorConfig,
    ThresholdCalibration,
    calibrate_threshold,
    format_alarm_line,
    monitor_stream,
    read_health_csv,
    score_window,
    write_health_csv,
)
from lorm.sequence import build_mcps
from lorm.signal_io import ChannelStats, normalize_window, split_context_target
from lorm.tokenizer import CodebookSet, load_codebooks, save_codebooks, tokenize_window
from lorm.train import PROB_FLOOR


def tiny_cfg(**kw):
    base = dict(
        hidden_dim=8,
        num_layers=1,
        num_heads=2,
        ffn_dim=16,
        max_seq_len=8,
        num_tokens=4,
        num_channels=2,
        patch_len=5,
    )
    base.update(kw)
    return BackboneConfig(**base)


def tiny_deployed(seed=0, zero_head=False, num_tokens=4):
    cfg = tiny_cfg(num_tokens=num_tokens)
    params = init_model(cfg, seed=seed)
    if zero_head:
        params["head.w_c"][...] = 0.0
    stats = ChannelStats(mean=np.zeros(2), std=np.ones(2))
    books = CodebookSet(
        np.tile(np.linspace(-1, 1, num_tokens)[:, None], (2, 1, 1)), channel_names=["a", "b"]
    )
    ckpt = Checkpoint(
        params=params,
        config=cfg,
        stats=stats,
        window_len=21,
        context_len=20,
        channel_names=["a", "b"],
        codebook_hash="",
    )
    return DeployedModel(checkpoint=ckpt, codebooks=books)


def make_window(seed=0, rows=21, cols=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols))


class TestBaselineBuffer:
    """The tracker's baseline: the first buffer_len WLF values and their mean."""

    def test_mean_matches_numpy(self):
        tracker = HealthTracker(MonitorConfig(buffer_len=4))
        vals = [0.3, 1.7, -0.2, 0.9]
        for v in vals[:-1]:
            tracker.update(v)
        assert tracker.buffer == vals[:-1]
        tracker.update(vals[-1])
        assert tracker.baseline == np.mean(vals)
        assert tracker.buffer == []  # the mean is all the tracker keeps of them
        assert tracker.update(2.0).hi == 2.0 - np.mean(vals)

    def test_overfull_rejected(self):
        # values after the buffer fills are scored, never added to it
        tracker = HealthTracker(MonitorConfig(buffer_len=1))
        tracker.update(1.0)
        tracker.update(2.0)
        tracker.update(3.0)
        assert tracker.buffer == []
        assert tracker.baseline == 1.0

    def test_mean_on_empty_rejected(self):
        # no baseline, and so no hi, until the buffer is full
        tracker = HealthTracker(MonitorConfig(buffer_len=2))
        assert tracker.baseline is None
        assert tracker.update(1.0).hi is None
        assert tracker.baseline is None


class TestHealthTracker:
    def test_worked_example(self):
        # buffer 3, threshold 0.2: baseline mean(1,1,1)=1, fourth wlf 1.5 -> hi 0.5
        tracker = HealthTracker(MonitorConfig(buffer_len=3, threshold=0.2))
        records = [tracker.update(w) for w in [1.0, 1.0, 1.0, 1.5]]
        assert [r.hi for r in records] == [None, None, None, 0.5]
        assert [r.alarm for r in records] == [False, False, False, True]
        assert records[3].window_index == 4

    def test_indices_are_one_based(self):
        tracker = HealthTracker(MonitorConfig(buffer_len=1, threshold=10.0))
        assert tracker.update(0.5).window_index == 1
        assert tracker.update(0.5).window_index == 2

    def test_alarm_is_strictly_greater(self):
        # hi exactly equal to tau must stay quiet
        tracker = HealthTracker(MonitorConfig(buffer_len=2, threshold=0.25))
        tracker.update(1.0)
        tracker.update(1.0)
        rec = tracker.update(1.25)
        assert rec.hi == 0.25
        assert not rec.alarm

    def test_float_boundary_near_point_two(self):
        # 1.2 - 1.0 lands just below 0.2 in binary, so no alarm either way
        tracker = HealthTracker(MonitorConfig(buffer_len=1, threshold=0.2))
        tracker.update(1.0)
        rec = tracker.update(1.2)
        assert rec.hi < 0.2
        assert not rec.alarm
        rec = tracker.update(1.21)
        assert rec.alarm

    def test_constant_stream_stays_quiet(self):
        tracker = HealthTracker(MonitorConfig(buffer_len=5, threshold=0.0))
        records = [tracker.update(2.2) for _ in range(20)]
        for r in records[5:]:
            assert r.hi == 0.0
            assert not r.alarm

    def test_hi_is_wlf_minus_baseline_mean(self):
        rng = np.random.default_rng(3)
        wlfs = rng.uniform(0.5, 2.5, size=40)
        cfg = MonitorConfig(buffer_len=12, threshold=0.1)
        tracker = HealthTracker(cfg)
        records = [tracker.update(float(w)) for w in wlfs]
        base = np.mean(wlfs[:12])
        for r, w in zip(records[12:], wlfs[12:]):
            assert r.hi == float(w) - base
            assert r.alarm == (r.hi > 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [1, 2, 4])  # in the buffer, filling it, after it
    def test_non_finite_wlf_names_its_window(self, bad, position):
        tracker = HealthTracker(MonitorConfig(buffer_len=2, threshold=0.2))
        for _ in range(position - 1):
            tracker.update(1.0)
        with pytest.raises(ValueError, match=f"^window {position}: wlf is {bad!r}, not finite$"):
            tracker.update(bad)

    def test_replay_determinism(self):
        rng = np.random.default_rng(4)
        wlfs = [float(v) for v in rng.uniform(0, 3, size=30)]
        runs = []
        for _ in range(2):
            tracker = HealthTracker(MonitorConfig(buffer_len=7, threshold=0.5))
            runs.append([(r.hi, r.alarm) for r in map(tracker.update, wlfs)])
        assert runs[0] == runs[1]


class TestScoreWindow:
    def test_zero_head_gives_ln_k(self):
        deployed = tiny_deployed(zero_head=True)
        wlf = score_window(make_window(), deployed)
        assert wlf == pytest.approx(np.log(4), abs=1e-12)

    def test_single_token_vocab_gives_zero(self):
        deployed = tiny_deployed(num_tokens=1)
        assert score_window(make_window(seed=1), deployed) == 0.0

    def test_channel_mismatch(self):
        deployed = tiny_deployed()
        with pytest.raises(ValueError, match="channel"):
            score_window(make_window(cols=3), deployed)

    def test_window_len_mismatch(self):
        deployed = tiny_deployed()
        with pytest.raises(ValueError, match="window"):
            score_window(make_window(rows=20), deployed)

    def test_deterministic(self):
        deployed = tiny_deployed(seed=5)
        w = make_window(seed=6)
        assert score_window(w, deployed) == score_window(w, deployed)


def reference_score(window, deployed):
    """The per-window composition score_window replaced."""
    ckpt = deployed.checkpoint
    norm = normalize_window(window, ckpt.stats)
    context, target = split_context_target(norm, ckpt.context_len)
    rows = build_mcps(context, ckpt.config.patch_len)
    dists, _ = forward_batch(rows[None, :, :], ckpt.params, ckpt.config)
    tokens = tokenize_window(target, deployed.codebooks)
    picked = dists[0][np.arange(len(tokens)), tokens]
    # the per-window loss score_window took before token_loss
    return -float(np.add.reduce(np.log(np.maximum(picked, PROB_FLOOR)))) / len(tokens)


def geometry_deployed(context_len, target_len, patch_len, seed=0):
    """A deployed model for any window geometry, with non-trivial stats."""
    channels, num_tokens = 3, 5
    patches = -(-context_len // patch_len)
    cfg = tiny_cfg(
        max_seq_len=patches * channels,
        num_channels=channels,
        num_tokens=num_tokens,
        patch_len=patch_len,
    )
    rng = np.random.default_rng(seed)
    books = CodebookSet(rng.normal(size=(channels, num_tokens, target_len)), ["a", "b", "c"])
    ckpt = Checkpoint(
        params=init_model(cfg, seed=seed),
        config=cfg,
        stats=ChannelStats(mean=rng.normal(size=channels), std=rng.uniform(0.5, 2.0, channels)),
        window_len=context_len + target_len,
        context_len=context_len,
        channel_names=["a", "b", "c"],
        codebook_hash="",
    )
    return DeployedModel(checkpoint=ckpt, codebooks=books)


class TestScoreWindowReference:
    """score_window's array path gives bit for bit the WLF of the old
    normalise -> split -> build_mcps -> forward -> tokenize -> loss chain."""

    @pytest.mark.parametrize(
        "context_len, target_len, patch_len",
        [(20, 1, 5), (18, 1, 5), (17, 3, 4), (30, 4, 7), (9, 2, 16)],
    )
    def test_bitwise_equal_to_reference(self, context_len, target_len, patch_len):
        deployed = geometry_deployed(context_len, target_len, patch_len, seed=context_len)
        for seed in range(6):
            window = make_window(seed=seed, rows=context_len + target_len, cols=3)
            got = score_window(window, deployed)
            assert got.hex() == reference_score(window, deployed).hex()

    def test_does_not_modify_window(self):
        deployed = geometry_deployed(18, 2, 5)
        window = make_window(seed=3, rows=20, cols=3)
        before = window.copy()
        score_window(window, deployed)
        assert np.array_equal(window, before)


class TestMonitorStream:
    def test_matches_manual_loop(self):
        deployed = tiny_deployed(seed=7)
        windows = [make_window(seed=s) for s in range(8)]
        cfg = MonitorConfig(buffer_len=3, threshold=0.05)
        streamed = list(monitor_stream(deployed, iter(windows), cfg))

        tracker = HealthTracker(cfg)
        manual = [tracker.update(score_window(w, deployed)) for w in windows]
        assert [(r.wlf, r.hi, r.alarm) for r in streamed] == [
            (r.wlf, r.hi, r.alarm) for r in manual
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sample_stops_at_its_window(self):
        """A sample finite in float64 but beyond float32 is rejected before
        the float32 model sees it: the stream stops at that window, naming
        it, instead of yielding a NaN WLF."""
        deployed = tiny_deployed(seed=7)
        windows = [make_window(seed=s) for s in range(5)]
        windows[2][5, 1] = 1e39  # a context sample
        records = []
        match = r"^window 3: normalised window holds \S+, non-finite as float32$"
        with pytest.raises(ValueError, match=match):
            for record in monitor_stream(deployed, iter(windows), MonitorConfig(buffer_len=1)):
                records.append(record)
        assert [r.window_index for r in records] == [1, 2]


class TestDeployedModelFiles:
    def _write_pair(self, tmp_path, tamper=False):
        cfg = tiny_cfg()
        params = init_model(cfg, seed=8)
        books = CodebookSet(
            np.tile(np.linspace(-1, 1, 4)[:, None], (2, 1, 1)), channel_names=["a", "b"]
        )
        books_path = tmp_path / "codebooks.json"
        save_codebooks(books, str(books_path))
        from lorm.tokenizer import codebook_file_hash

        digest = codebook_file_hash(str(books_path))
        ckpt_path = tmp_path / "model.lorm"
        ckpt = Checkpoint(
            params=params,
            config=cfg,
            stats=ChannelStats(mean=np.zeros(2), std=np.ones(2)),
            window_len=21,
            context_len=20,
            channel_names=["a", "b"],
            codebook_hash=digest,
        )
        save_checkpoint(str(ckpt_path), ckpt)
        if tamper:
            text = books_path.read_text().replace("-1.0", "-1.5")
            books_path.write_text(text)
        return str(ckpt_path), str(books_path)

    def test_from_files_round_trip(self, tmp_path):
        ckpt, books = self._write_pair(tmp_path)
        deployed = DeployedModel.from_files(ckpt, books)
        assert deployed.checkpoint.window_len == 21
        assert deployed.checkpoint.channel_names == ["a", "b"]
        wlf = score_window(make_window(seed=9), deployed)
        assert np.isfinite(wlf)

    def test_hash_mismatch_detected(self, tmp_path):
        ckpt, books = self._write_pair(tmp_path, tamper=True)
        with pytest.raises(ValueError, match="does not match"):
            DeployedModel.from_files(ckpt, books)

    @pytest.mark.parametrize("hook", ["codebook_file_hash", "load_codebooks"])
    def test_checked_bytes_are_the_loaded_bytes(self, tmp_path, monkeypatch, hook):
        """A codebooks file replaced once it is hashed, or just before it is
        parsed, does not slip past the check: the codebooks deployed are the
        bytes that the checkpoint's hash vouches for."""
        import lorm.monitor

        ckpt, books = self._write_pair(tmp_path)
        want = load_codebooks(books).centroids.copy()

        def tamper():
            Path(books).write_text(Path(books).read_text().replace("-1.0", "-1.5"))

        real = getattr(lorm.monitor, hook)
        if hook == "codebook_file_hash":
            patched = lambda path, *data: (real(path, *data), tamper())[0]
        else:
            patched = lambda path, *data: (tamper(), real(path, *data))[1]
        monkeypatch.setattr(lorm.monitor, hook, patched)
        deployed = DeployedModel.from_files(ckpt, books)
        assert b"-1.5" in Path(books).read_bytes()
        assert deployed.codebooks.centroids.tobytes() == want.tobytes()


def reference_calibrate_threshold(hi_by_cut, wear_by_cut, wear_limit_um=300.0):
    """Calibration over per-cut dicts, as it was before the wear table became
    columns: the reference calibrate_threshold must match bit for bit."""
    if not wear_by_cut:
        raise ValueError("empty input")
    candidates = []
    for cut_id in sorted(wear_by_cut):
        series = [h for h in hi_by_cut.get(cut_id, []) if h is not None]
        if not series:
            continue
        wear = float(wear_by_cut[cut_id])
        candidates.append((abs(wear - wear_limit_um), cut_id, float(np.mean(series))))
    if not candidates:
        raise ValueError("no cut with a defined health index")
    gap, cut_id, tau = min(candidates, key=lambda item: (item[0], item[1]))
    return ThresholdCalibration(tau=tau, cut_id=cut_id, wear_um=float(wear_by_cut[cut_id]))


def calibrate_windows(rows, windows, hi, wear_limit_um=300.0):
    """calibrate_threshold over windows given by index, with hi None for a
    window left out, against a table of (cut_id, wear_um, first, last) rows."""
    table = WearTable(*zip(*rows))
    hi = np.array(hi, dtype=np.float64)
    positions = np.where(np.isnan(hi), -1, table.locate(windows))
    return calibrate_threshold(hi, positions, table, wear_limit_um)


class TestCalibrateThreshold:
    def test_picks_cut_nearest_limit(self):
        # cut 3 wear 301.2 is nearest to 300; tau = mean hi over that cut
        rows = [(1, 150.0, 1, 2), (2, 240.0, 3, 3), (3, 301.2, 4, 6)]
        cal = calibrate_windows(rows, range(1, 7), [0.01, 0.02, 0.05, 0.18, 0.22, 0.20])
        assert cal.cut_id == 3
        assert cal.wear_um == 301.2
        assert cal.tau == float(np.mean([0.18, 0.22, 0.20]))

    def test_tie_prefers_lowest_cut_id(self):
        """Cut 4's span comes first, but cut 2 has the lower id."""
        cal = calibrate_windows([(4, 310.0, 1, 1), (2, 290.0, 2, 2)], [1, 2], [0.3, 0.1])
        assert cal.cut_id == 2

    def test_single_cut(self):
        cal = calibrate_windows([(7, 500.0, 1, 2)], [1, 2], [1.0, 3.0])
        assert cal.cut_id == 7
        assert cal.tau == 2.0

    def test_cuts_without_hi_are_skipped(self):
        cal = calibrate_windows([(1, 300.0, 1, 1), (2, 350.0, 2, 2)], [1, 2], [None, 0.4])
        assert cal.cut_id == 2

    def test_no_defined_hi_anywhere(self):
        with pytest.raises(ValueError, match="no cut with a defined health index"):
            calibrate_windows([(1, 300.0, 1, 1)], [1, 2], [None, 0.5])

    def test_lengths_must_agree(self):
        table = WearTable([1], [300.0], [1], [2])
        with pytest.raises(ValueError, match="equal length"):
            calibrate_threshold([0.1, 0.2], [0], table, 300.0)

    @settings(max_examples=300, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 3),
                st.sampled_from([0.0, 150.0, 290.0, 299.5, 300.0, 300.5, 310.0, 450.0]),
            ),
            min_size=1,
            max_size=7,
        ),
        data=st.data(),
    )
    def test_matches_the_per_cut_reference(self, spans, data):
        """Shuffled spans, cut ids out of span order, ties in |wear - limit|,
        windows in any order, and windows left out (no HI, or outside every
        cut): the same tau bits, cut id and wear as the per-cut reference,
        as the Python int and floats that json.dump writes."""
        ids = data.draw(
            st.lists(st.integers(0, 40), min_size=len(spans), max_size=len(spans), unique=True)
        )
        rows, start = [], 1
        for cut_id, (gap, extra, wear) in zip(ids, spans):
            rows.append((cut_id, wear, start + gap, start + gap + extra))
            start += gap + extra + 1
        rows = data.draw(st.permutations(rows))
        windows = data.draw(st.lists(st.integers(-1, start + 1), max_size=30))
        hi = data.draw(
            st.lists(
                # magnitudes far apart, so a sum in another order changes bits
                st.one_of(st.none(), st.floats(-5.0, 5.0), st.sampled_from([1e16, -1e16, 0.1])),
                min_size=len(windows),
                max_size=len(windows),
            )
        )

        # the per-cut dicts as calibrate used to build them, HI in the order given
        cut_of = {w: c for c, _, a, b in rows for w in range(a, b + 1)}
        hi_by_cut = {}
        for w, h in zip(windows, hi):
            if h is not None and w in cut_of:
                hi_by_cut.setdefault(cut_of[w], []).append(h)
        wear_by_cut = {c: wear for c, wear, _, _ in rows}
        try:
            expected = reference_calibrate_threshold(hi_by_cut, wear_by_cut)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                calibrate_windows(rows, windows, hi)
            return
        got = calibrate_windows(rows, windows, hi)
        assert (got.tau.hex(), got.cut_id, got.wear_um) == (
            expected.tau.hex(), expected.cut_id, expected.wear_um
        )
        assert (type(got.tau), type(got.cut_id), type(got.wear_um)) == (float, int, float)


def reference_read_health_csv(path):
    """hi.csv as one (window_index, wlf, hi or None, alarm) tuple per row, as
    read_health_csv read it when it returned one record per row: the columns
    must hold the same values and raise the same errors (apart from window
    indices beyond 64 bits, which the records held as Python ints)."""
    import math

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
    records = []
    for n, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(parts)}")
            if parts[3] not in ("0", "1"):
                raise ValueError(f"alarm must be 0 or 1, got {parts[3]!r}")
            wlf = float(parts[1])
            hi = None if parts[2] == "" else float(parts[2])
            if not (math.isfinite(wlf) and (hi is None or math.isfinite(hi))):
                raise ValueError("wlf and hi must be finite")
            record = (int(parts[0]), wlf, hi, parts[3] == "1")
            if record[3] and record[2] is None:
                raise ValueError("alarm requires a defined health index")
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
        records.append(record)
    return records


def records_of(columns):
    """The HealthRecords that the columns of hi.csv hold, for the writer."""
    return [
        HealthRecord(int(w), float(l), None if np.isnan(h) else float(h), bool(a))
        for w, l, h, a in zip(*columns)
    ]


class TestHealthCsv:
    def _records(self):
        tracker = HealthTracker(MonitorConfig(buffer_len=2, threshold=0.1))
        return [tracker.update(w) for w in [1.0, 1.2, 1.3, 1.05, 1.4]]

    def test_round_trip(self, tmp_path):
        records = self._records()
        path = tmp_path / "hi.csv"
        write_health_csv(records, str(path))
        loaded = read_health_csv(str(path))
        assert loaded._fields == ("window_index", "wlf", "hi", "alarm")
        assert [c.dtype for c in loaded] == [np.int64, np.float64, np.float64, np.bool_]
        assert not any(c.flags.writeable for c in loaded)
        assert loaded.window_index.tolist() == [1, 2, 3, 4, 5]
        assert loaded.wlf.tolist() == [r.wlf for r in records]
        assert np.isnan(loaded.hi[:2]).all()
        assert loaded.hi[2:].tolist() == [r.hi for r in records[2:]]
        assert loaded.alarm.tolist() == [r.alarm for r in records]

    def test_buffer_rows_have_empty_hi(self, tmp_path):
        records = self._records()
        path = tmp_path / "hi.csv"
        write_health_csv(records, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "window_index,wlf,hi,alarm"
        assert lines[1].split(",")[2] == ""
        assert lines[3].split(",")[2] != ""

    def test_header_only_file_gives_empty_columns(self, tmp_path):
        path = tmp_path / "hi.csv"
        write_health_csv([], str(path))
        loaded = read_health_csv(str(path))
        assert [(c.dtype, c.size) for c in loaded] == [
            (np.int64, 0), (np.float64, 0), (np.float64, 0), (np.bool_, 0)
        ]

    def test_rows_reach_the_file_as_records_arrive(self, tmp_path):
        """The file is truncated before the first record is asked for, each
        row is in it once its record is written, and a failure leaves the
        rows before it."""
        path = tmp_path / "hi.csv"
        path.write_text("window_index,wlf,hi,alarm\n" + "1,0.5,,0\n" * 99)
        records = self._records()
        seen = []

        def source():
            for k, record in enumerate(records):
                seen.append(path.read_text().count("\n"))
                if k == 3:
                    raise ValueError("feed failed")
                yield record

        with pytest.raises(ValueError, match="feed failed"):
            write_health_csv(source(), str(path))
        assert seen == [1, 2, 3, 4]
        written = path.read_bytes()
        full = tmp_path / "full.csv"
        write_health_csv(records, str(full))
        assert full.read_bytes().startswith(written)
        assert read_health_csv(str(path)).window_index.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("index", [2**63, -(2**63) - 1, 10**30])
    def test_window_index_beyond_64_bits_names_the_line(self, tmp_path, index):
        path = tmp_path / "hi.csv"
        path.write_text(f"window_index,wlf,hi,alarm\n1,0.5,,0\n{index},0.5,0.1,0\n")
        with pytest.raises(ValueError, match=f"^{path}: line 3: window index must fit in 64 bits$"):
            read_health_csv(str(path))

    def test_64_bit_extremes_load(self, tmp_path):
        path = tmp_path / "hi.csv"
        path.write_text(f"window_index,wlf,hi,alarm\n{2**63 - 1},0.5,,0\n{-(2**63)},0.5,0.1,1\n")
        assert read_health_csv(str(path)).window_index.tolist() == [2**63 - 1, -(2**63)]

    @settings(max_examples=200, deadline=None)
    @given(
        wlfs=st.lists(st.floats(-1e100, 1e100), max_size=30),
        buffer_len=st.integers(1, 6),
        threshold=st.floats(-2.0, 2.0),
    )
    def test_columns_rewrite_the_writers_bytes(self, tmp_path_factory, wlfs, buffer_len, threshold):
        """Rows written from the columns read back are the writer's bytes."""
        tracker = HealthTracker(MonitorConfig(buffer_len=buffer_len, threshold=threshold))
        records = [tracker.update(w) for w in wlfs]
        tmp = tmp_path_factory.mktemp("rewrite")
        first, second = tmp / "a.csv", tmp / "b.csv"
        write_health_csv(iter(records), str(first))
        write_health_csv(records_of(read_health_csv(str(first))), str(second))
        assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(extra=st.sampled_from(["", ",cut_id", ",cut_id,hi_ma"]), data=st.data())
    def test_matches_the_record_reader(self, tmp_path_factory, extra, data):
        """Well-formed rows, trailing columns, and in half the files one
        field replaced or added: the columns hold the record reader's values,
        or the read raises its message."""
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(-(2**63), 2**63 - 1).map(str),
                    st.floats(width=64).map(repr),
                    st.one_of(st.just(""), st.floats(width=64).map(repr)),
                    st.sampled_from(["0", "1"]),
                ).map(lambda r: [*r[:3], r[3] if r[2] else "0"] + ["7"] * extra.count(",")),
                max_size=8,
            )
        )
        if rows and data.draw(st.booleans()):  # one malformed row
            row = data.draw(st.sampled_from(rows))
            i = data.draw(st.integers(-1, len(row)))
            if i < 0:
                row[2:4] = ["", "1"]  # an alarm without a health index
            else:  # field i replaced, or a field put before it
                token = ["", "0", "1", "2", "nan", "-inf", "-0.0", "abc", " 1", "1e999"]
                row[i : i + data.draw(st.integers(0, 1))] = [data.draw(st.sampled_from(token))]
        path = tmp_path_factory.mktemp("reader") / "hi.csv"
        body = "".join(",".join(row) + "\n" for row in rows)
        path.write_text(f"window_index,wlf,hi,alarm{extra}\n{body}")
        try:
            expected = reference_read_health_csv(str(path))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_health_csv(str(path))
            assert str(got.value) == str(exc)
            return
        columns = read_health_csv(str(path))
        got = [
            (w, l, None if np.isnan(h) else h, a)
            for w, l, h, a in zip(*(c.tolist() for c in columns))
        ]
        assert [(w, l.hex(), h if h is None else h.hex(), a) for w, l, h, a in got] == [
            (w, l.hex(), h if h is None else h.hex(), a) for w, l, h, a in expected
        ]


class TestAlarmLine:
    def test_exact_format(self):
        rec = HealthRecord(window_index=42, wlf=1.5, hi=0.5, alarm=True)
        assert format_alarm_line(rec, tau=0.2) == "ALARM window=42 hi=0.5 tau=0.2"

    def test_repr_precision(self):
        rec = HealthRecord(window_index=3, wlf=1.3, hi=0.1 + 0.2, alarm=True)
        line = format_alarm_line(rec, tau=0.25)
        assert line == f"ALARM window=3 hi={0.1 + 0.2!r} tau=0.25"

    def test_non_alarm_rejected(self):
        rec = HealthRecord(window_index=1, wlf=1.0, hi=0.0, alarm=False)
        with pytest.raises(ValueError):
            format_alarm_line(rec, tau=0.2)
