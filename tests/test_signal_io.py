"""Windowing, normalization, CSV, and streaming behaviour."""

import os
import socket
import tempfile
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lorm import signal_io
from lorm.signal_io import (
    ChannelStats,
    MultiChannelSeries,
    StreamFormatError,
    WindowingConfig,
    compute_channel_stats,
    csv_sample_source,
    normalize_window,
    read_signal_csv,
    segment_windows,
    socket_sample_source,
    split_context_target,
    stack_windows,
    stream_windows,
    train_val_split,
    write_signal_csv,
)


def make_series(t=400, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return MultiChannelSeries(
        samples=rng.normal(size=(t, c)),
        channel_names=[f"ch{i}" for i in range(c)],
    )


def index_series(t, c=2):
    """A series whose every sample holds its own row index, so a window's
    first value is its start."""
    return MultiChannelSeries(
        samples=np.repeat(np.arange(t, dtype=np.float64)[:, None], c, axis=1),
        channel_names=[f"ch{i}" for i in range(c)],
    )


def starts(windows):
    return [int(w[0, 0]) for w in windows]


class TestChannelStats:
    def test_population_std_oracle(self):
        # independent elementwise computation with explicit sums
        series = make_series(t=57, c=2, seed=3)
        stats = compute_channel_stats(series)
        for c in range(2):
            col = series.samples[:, c]
            mean = sum(col) / len(col)
            var = sum((x - mean) ** 2 for x in col) / len(col)  # divide by T
            assert stats.mean[c] == pytest.approx(mean, abs=1e-12)
            assert stats.std[c] == pytest.approx(np.sqrt(var), abs=1e-12)

    def test_accepts_raw_matrix(self):
        series = make_series(t=31, c=2, seed=1)
        a = compute_channel_stats(series)
        b = compute_channel_stats(series.samples)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            compute_channel_stats(np.empty((0, 3)))

    def test_default_epsilon(self):
        stats = compute_channel_stats(make_series(t=10))
        assert stats.epsilon == 1e-8


class TestNormalize:
    def test_elementwise_oracle(self):
        series = make_series(t=40, c=3, seed=5)
        stats = compute_channel_stats(series)
        normed = normalize_window(series.samples, stats)
        for i in range(series.num_samples):
            for c in range(series.num_channels):
                expected = (series.samples[i, c] - stats.mean[c]) / (
                    stats.std[c] + stats.epsilon
                )
                assert normed[i, c] == pytest.approx(expected, abs=1e-12)

    def test_constant_channel_safe(self):
        # zero variance: epsilon keeps the division finite
        samples = np.ones((20, 1)) * 7.0
        stats = compute_channel_stats(samples)
        normed = normalize_window(samples, stats)
        assert np.all(np.isfinite(normed))
        assert np.allclose(normed, 0.0)

    def test_round_trip(self):
        series = make_series(t=64, c=2, seed=7)
        stats = compute_channel_stats(series)
        normed = normalize_window(series.samples, stats)
        restored = normed * (stats.std + stats.epsilon) + stats.mean
        assert np.allclose(restored, series.samples, atol=1e-12)

    def test_channel_mismatch(self):
        series = make_series(c=3)
        stats = compute_channel_stats(make_series(c=2).samples)
        with pytest.raises(ValueError):
            normalize_window(series.samples, stats)

    def test_window_normalization_matches_series(self):
        series = make_series(t=100, c=2, seed=9)
        stats = compute_channel_stats(series)
        cfg = WindowingConfig(window_len=25, context_len=24, stride=25)
        windows = segment_windows(series, cfg)
        normed_series = normalize_window(series.samples, stats)
        for k, w in enumerate(windows):
            expected = normed_series[25 * k : 25 * k + 25]
            assert np.array_equal(normalize_window(w, stats), expected)

    def test_leading_batch_dimensions(self):
        series = make_series(t=100, c=2, seed=10)
        stats = compute_channel_stats(series)
        windows = segment_windows(series, WindowingConfig(window_len=20, context_len=19, stride=20))
        batched = normalize_window(windows, stats)
        assert batched.shape == windows.shape
        for w, nw in zip(windows, batched):
            assert np.array_equal(normalize_window(w, stats), nw)


class TestWindowing:
    def test_count_and_offsets(self):
        series = make_series(t=1000)
        for stride in (50, 100, 137):
            cfg = WindowingConfig(window_len=100, context_len=99, stride=stride)
            windows = segment_windows(series, cfg)
            expected_count = (1000 - 100) // stride + 1
            assert windows.shape == (expected_count, 100, 3)
            for k, w in enumerate(windows):
                s = k * stride
                assert np.array_equal(w, series.samples[s : s + 100])

    def test_windows_are_read_only_views(self):
        series = make_series(t=500, c=3, seed=2)
        cfg = WindowingConfig(window_len=60, context_len=59, stride=13)
        windows = segment_windows(series, cfg)
        assert windows.dtype == np.float64 and not windows.flags.writeable
        assert np.shares_memory(windows, series.samples)
        with pytest.raises(ValueError):
            windows[0, 0, 0] = 1.0

    def test_short_series_yields_nothing(self):
        series = make_series(t=50)
        cfg = WindowingConfig(window_len=100, context_len=99, stride=100)
        assert segment_windows(series, cfg).shape == (0, 100, 3)

    def test_context_target_split_concat_identity(self):
        series = make_series(t=400)
        cfg = WindowingConfig(window_len=60, context_len=45, stride=60)
        for w in segment_windows(series, cfg):
            context, target = split_context_target(w, 45)
            assert context.shape == (45, 3) and target.shape == (15, 3)
            assert np.array_equal(np.concatenate([context, target]), w)

    def test_invalid_context_len(self):
        w = np.zeros((10, 2))
        with pytest.raises(ValueError, match="context_len"):
            split_context_target(w, 10)
        with pytest.raises(ValueError, match="context_len"):
            split_context_target(w, 0)

    def test_windowing_validation(self):
        with pytest.raises(ValueError, match="context_len"):
            WindowingConfig(window_len=100, context_len=100, stride=100)
        with pytest.raises(ValueError, match="stride"):
            WindowingConfig(window_len=100, context_len=99, stride=0)


class TestTrainValSplit:
    def test_disjoint_union(self):
        series = index_series(2000)
        windows = segment_windows(series, WindowingConfig(100, 99, 100))
        train, val = train_val_split(windows, 0.2, seed=11)
        assert sorted(starts(train + val)) == starts(windows)
        assert len(val) == round(len(windows) * 0.2)

    def test_splits_keep_order_and_share_memory(self):
        series = index_series(2000)
        windows = segment_windows(series, WindowingConfig(100, 99, 100))
        train, val = train_val_split(windows, 0.2, seed=11)
        assert starts(train) == sorted(starts(train))
        assert starts(val) == sorted(starts(val))
        assert all(np.shares_memory(w, series.samples) for w in train + val)

    def test_seeded_determinism(self):
        windows = segment_windows(index_series(900), WindowingConfig(100, 99, 100))
        a = train_val_split(windows, 0.25, seed=4)
        b = train_val_split(windows, 0.25, seed=4)
        assert starts(a[0]) == starts(b[0])
        c = train_val_split(windows, 0.25, seed=5)
        assert starts(a[0]) != starts(c[0])

    def test_val_never_empty_or_total(self):
        windows = segment_windows(make_series(t=250), WindowingConfig(100, 99, 100))
        assert len(windows) == 2
        train, val = train_val_split(windows, 0.9, seed=0)
        assert len(train) == 1 and len(val) == 1

    def test_too_few_windows(self):
        windows = segment_windows(make_series(t=120), WindowingConfig(100, 99, 100))
        with pytest.raises(ValueError):
            train_val_split(windows, 0.2, seed=0)


def reference_stream_windows(samples, cfg, channel_count):
    """The list-of-rows window assembly that the ring buffer replaced."""
    w, stride = cfg.window_len, cfg.stride
    buf, drop, expected = [], 0, channel_count
    for index, row in enumerate(samples):
        try:
            vec = np.asarray(row, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise StreamFormatError(index, f"non-numeric value ({exc})") from None
        if vec.ndim != 1:
            raise StreamFormatError(index, f"expected a flat row, got shape {vec.shape}")
        if vec.shape[0] != expected:
            raise StreamFormatError(index, f"expected {expected} fields, got {vec.shape[0]}")
        if not np.all(np.isfinite(vec)):
            raise StreamFormatError(index, "non-finite value")
        if drop > 0:
            drop -= 1
            continue
        buf.append(vec)
        if len(buf) == w:
            yield np.stack(buf)
            if stride >= w:
                buf = []
                drop = stride - w
            else:
                buf = buf[stride:]


def collect_until_error(windows):
    """Windows yielded before the stream raised, and the error it raised."""
    got = []
    try:
        for window in windows:
            got.append(window)
    except StreamFormatError as exc:
        return got, exc
    return got, None


def assert_same_windows(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestStreamWindowsRing:
    """The ring buffer yields bit for bit the windows of the list-of-rows
    assembly, for every stride regime and row type."""

    @pytest.mark.parametrize("stride", [1, 7, 33, 60, 100, 150, 257])
    @pytest.mark.parametrize("kind", ["view", "list", "tuple", "strided"])
    def test_matches_reference(self, stride, kind):
        series = make_series(t=700, c=3, seed=41)
        cfg = WindowingConfig(window_len=100, context_len=97, stride=stride)
        rows = as_rows(series.samples, [kind] * len(series.samples))
        got = list(stream_windows(iter(rows), cfg, channel_count=3))
        want = list(reference_stream_windows(iter(rows), cfg, channel_count=3))
        assert len(want) == len(segment_windows(series, cfg)) > 0
        assert_same_windows(got, want)

    def test_single_row_windows(self):
        rows = [[float(i), -float(i)] for i in range(9)]
        cfg = WindowingConfig(window_len=2, context_len=1, stride=1)
        got = list(stream_windows(iter(rows), cfg, 2))
        assert_same_windows(got, list(reference_stream_windows(iter(rows), cfg, 2)))

    def test_windows_are_independent_copies(self):
        series = make_series(t=300, c=2, seed=42)
        cfg = WindowingConfig(window_len=50, context_len=49, stride=10)
        got = list(stream_windows(iter(series.samples), cfg, 2))
        for i, a in enumerate(got):
            assert a.flags.owndata and a.flags.writeable
            assert not np.shares_memory(a, series.samples)
            for b in got[i + 1 :]:
                assert not np.shares_memory(a, b)
        before = [w.copy() for w in got]
        got[0][:] = 0.0
        for w, saved in zip(got[1:], before[1:]):
            assert np.array_equal(w, saved)

    @pytest.mark.parametrize("stride", [10, 50, 80])
    @pytest.mark.parametrize(
        "bad_row, message",
        [([1.0], "expected 2 fields"), (["x", "1"], "non-numeric"), ([np.inf, 0.0], "non-finite")],
    )
    def test_bad_row_midway(self, stride, bad_row, message):
        """A bad row raises with its index after exactly the windows that
        completed before it, in the ring and the reference alike."""
        rows = [list(r) for r in make_series(t=400, c=2, seed=43).samples]
        bad_index = 237
        rows[bad_index] = bad_row
        cfg = WindowingConfig(window_len=50, context_len=49, stride=stride)
        got, err = collect_until_error(stream_windows(iter(rows), cfg, 2))
        want, want_err = collect_until_error(reference_stream_windows(iter(rows), cfg, 2))
        assert err is not None and want_err is not None
        assert err.record_index == want_err.record_index == bad_index
        assert str(err) == str(want_err) and message in str(err)
        assert_same_windows(got, want)
        assert got and (len(got) - 1) * stride + 50 <= bad_index


class TestStreamWindows:
    @pytest.mark.parametrize("stride", [60, 100, 150])
    def test_matches_batch_segmentation(self, stride):
        series = make_series(t=1500, c=2, seed=13)
        cfg = WindowingConfig(window_len=100, context_len=99, stride=stride)
        batch = segment_windows(series, cfg)
        streamed = list(stream_windows(iter(series.samples), cfg, 2))
        assert len(streamed) == len(batch)
        for a, b in zip(streamed, batch):
            assert np.array_equal(a, b)

    def test_field_count_error_names_record(self):
        rows = [[1.0, 2.0], [1.0, 2.0], [1.0]]
        cfg = WindowingConfig(window_len=2, context_len=1, stride=2)
        with pytest.raises(StreamFormatError) as err:
            list(stream_windows(iter(rows), cfg, 2))
        assert err.value.record_index == 2

    def test_non_numeric_error(self):
        rows = [[1.0, 2.0], ["x", "y"]]
        cfg = WindowingConfig(window_len=2, context_len=1, stride=2)
        with pytest.raises(StreamFormatError):
            list(stream_windows(iter(rows), cfg, 2))

    def test_non_finite_error(self):
        rows = [[1.0], [np.nan]]
        cfg = WindowingConfig(window_len=2, context_len=1, stride=2)
        with pytest.raises(StreamFormatError, match="non-finite"):
            list(stream_windows(iter(rows), cfg, 1))

    def test_trailing_partial_window_dropped(self):
        rows = [[float(i)] for i in range(7)]
        cfg = WindowingConfig(window_len=3, context_len=2, stride=3)
        streamed = list(stream_windows(iter(rows), cfg, 1))
        assert starts(streamed) == [0, 3]


class TestCsv:
    def test_round_trip(self, tmp_path):
        series = make_series(t=30, c=3, seed=17)
        path = str(tmp_path / "sig.csv")
        write_signal_csv(series, path)
        back = read_signal_csv(path)
        assert back.channel_names == series.channel_names
        assert np.array_equal(back.samples, series.samples)  # repr round trip

    def test_csv_sample_source_matches_series(self, tmp_path):
        series = make_series(t=25, c=2, seed=19)
        path = str(tmp_path / "sig.csv")
        write_signal_csv(series, path)
        rows = list(csv_sample_source(path))
        assert np.array_equal(np.stack(rows), series.samples)

    def test_missing_samples_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            read_signal_csv(str(path))


class TestSocketReplay:
    def test_socket_stream_equals_batch(self):
        """Socket-fed windows are identical to file segmentation regardless of
        how the sender chunks its bytes."""
        series = make_series(t=500, c=3, seed=23)
        cfg = WindowingConfig(window_len=100, context_len=99, stride=100)
        payload = "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in series.samples
        ).encode("utf-8")

        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            for i in range(0, len(payload), 97):  # awkward chunk size on purpose
                conn.sendall(payload[i : i + 97])
            conn.close()
            server.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        streamed = list(
            stream_windows(socket_sample_source("127.0.0.1", port), cfg, channel_count=3)
        )
        thread.join(timeout=10)

        batch = segment_windows(series, cfg)
        assert len(streamed) == len(batch)
        for a, b in zip(streamed, batch):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("port", [0, -1, 65536, 99999, True, False, 80.0, "80"])
    def test_bad_port_raises_before_connecting(self, port):
        """The resolver would take 99999 as 34463 and 65536 as 0, so the call
        itself raises, before any connection is tried."""
        connect = mock.patch.object(socket, "create_connection", side_effect=AssertionError)
        with connect, pytest.raises(ValueError, match="^port must be an integer"):
            socket_sample_source("127.0.0.1", port)

    def test_good_port_connects_only_when_read(self):
        connect = mock.patch.object(socket, "create_connection", side_effect=AssertionError)
        with connect:
            for port in (1, 65535, np.int64(8080)):
                socket_sample_source("127.0.0.1", port).close()


def serve_once(payload: bytes, sizes=(), hold=None):
    """A loopback server that sends payload to its first client, in sendall
    calls of the given sizes (cycled; one call when empty), then waits for
    ``hold`` when given, and closes. A client that stops reading early, after
    an error, cuts the sending short."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)

    def serve():
        conn, _ = server.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        pos, k = 0, 0
        try:
            while pos < len(payload):
                size = sizes[k % len(sizes)] if sizes else len(payload)
                conn.sendall(payload[pos : pos + size])
                pos, k = pos + size, k + 1
        except OSError:
            pass
        if hold is not None:
            hold.wait(timeout=30)
        conn.close()
        server.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return server.getsockname()[1], thread


class TestRecordIndex:
    """record_index is the 0-based position among non-blank records in every
    source, so a CSV file and a socket feed of the same lines agree."""

    LINES = ["1.0,2.0", "", "3.0,4.0", "   ", "", "5.0,6.0", "7.0", "8.0,9.0"]
    SHORT_RECORD = 3  # "7.0" is the fourth non-blank line

    def test_csv_and_socket_agree(self, tmp_path):
        payload = "\n".join(self.LINES) + "\n"
        path = tmp_path / "sig.csv"
        path.write_text("a,b\n" + payload)
        cfg = WindowingConfig(window_len=2, context_len=1, stride=2)
        with pytest.raises(StreamFormatError) as from_csv:
            list(stream_windows(csv_sample_source(str(path)), cfg, channel_count=2))

        port, thread = serve_once(payload.encode("utf-8"))
        with pytest.raises(StreamFormatError) as from_socket:
            list(stream_windows(socket_sample_source("127.0.0.1", port), cfg, channel_count=2))
        thread.join(timeout=10)
        assert not thread.is_alive()

        assert from_csv.value.record_index == self.SHORT_RECORD
        assert from_socket.value.record_index == self.SHORT_RECORD
        assert "expected 2 fields, got 1" in str(from_csv.value)
        assert "expected 2 fields, got 1" in str(from_socket.value)

    def test_read_signal_csv_counts_the_same(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("a,b\n" + "\n".join(self.LINES) + "\n")
        with pytest.raises(StreamFormatError) as err:
            read_signal_csv(str(path))
        assert err.value.record_index == self.SHORT_RECORD


class TestValidation:
    def test_series_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MultiChannelSeries(samples=np.array([[1.0], [np.inf]]), channel_names=["a"])

    def test_series_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            MultiChannelSeries(samples=np.zeros((4, 2)), channel_names=["a"])

    @pytest.mark.parametrize(
        "names",
        [["a,b", "c"], ["a\nb", "c"], ["a", "b\rc"], [" a", "b"], ["a", "b\t"], ["a", 5],
         [b"a", "b"], ["a", "b\ud800"]],
    )
    def test_series_rejects_names_a_header_cannot_hold(self, names):
        """A comma or line break splits a name, the reader strips the spaces
        around one, and the writer joins only text it can encode as UTF-8."""
        message = "^channel [01]: name .* does not survive a CSV header$"
        with pytest.raises(ValueError, match=message):
            MultiChannelSeries(samples=np.zeros((4, 2)), channel_names=names)

    def test_stack_windows_empty(self):
        with pytest.raises(ValueError, match="empty input"):
            stack_windows([])

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            ChannelStats(mean=np.zeros(2), std=np.zeros(3))


def old_write_signal_csv(series, path):
    """The row-by-row writer that the single-write writer replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(series.channel_names) + "\n")
        for row in series.samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7e308, -1.7e308, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, 1.0 / 3.0, 1e16, 123456789012345680.0, 1e-7, 1e22, 9007199254740993.0,
]

finite_samples = arrays(
    np.float64,
    st.tuples(st.integers(1, 30), st.integers(1, 4)),
    elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.sampled_from(EDGE_VALUES),
    ),
)


def series_of(samples):
    return MultiChannelSeries(
        samples=samples,
        channel_names=[f"ch{i}" for i in range(samples.shape[1])],
    )


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def with_block_chars(n):
    """Make the CSV parser read at most n bytes per block."""
    return mock.patch.object(signal_io, "_BLOCK_CHARS", n)


class TestSignalCsvWriter:
    """The single-write writer puts out the old row-by-row writer's bytes."""

    @pytest.mark.parametrize("seed, scale", [(0, 1.0), (1, 1e-300), (2, 1e300), (3, 1e5)])
    def test_random_series_match_reference(self, tmp_path, seed, scale):
        series = make_series(t=257, c=3, seed=seed)
        series.samples *= scale
        write_signal_csv(series, str(tmp_path / "new.csv"))
        old_write_signal_csv(series, str(tmp_path / "old.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_edge_values_match_reference(self, tmp_path):
        samples = np.array(EDGE_VALUES).reshape(-1, 1)
        for series in (series_of(samples), series_of(samples.reshape(1, -1))):
            write_signal_csv(series, str(tmp_path / "new.csv"))
            old_write_signal_csv(series, str(tmp_path / "old.csv"))
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
            back = read_signal_csv(str(tmp_path / "new.csv"))
            assert np.array_equal(bits(back.samples), bits(series.samples))

    @settings(max_examples=60, deadline=None)
    @given(samples=finite_samples)
    def test_arbitrary_series_match_reference(self, samples):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
            write_signal_csv(series_of(samples), new)
            old_write_signal_csv(series_of(samples), old)
            with open(new, "rb") as a, open(old, "rb") as b:
                assert a.read() == b.read()


class TestSignalCsvProperties:
    @settings(max_examples=80, deadline=None)
    @given(samples=finite_samples, block_chars=st.integers(1, 300))
    def test_round_trip_is_bitwise(self, samples, block_chars):
        with tempfile.TemporaryDirectory() as tmp, with_block_chars(block_chars):
            path = os.path.join(tmp, "sig.csv")
            write_signal_csv(series_of(samples), path)
            back = read_signal_csv(path)
            rows = list(csv_sample_source(path))
        assert back.samples.shape == samples.shape
        assert np.array_equal(bits(back.samples), bits(samples))
        assert np.array_equal(bits(np.stack(rows)), bits(samples))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), block_chars=st.integers(1, 200))
    def test_blank_lines_skipped_anywhere(self, data, block_chars):
        samples = data.draw(finite_samples)
        blanks = st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=3)
        lines = ["a" + ",b" * (samples.shape[1] - 1)]
        for row in samples.tolist():
            lines += data.draw(blanks)
            lines.append(" " + ",".join(map(repr, row)) + " ")
        lines += data.draw(blanks)
        with tempfile.TemporaryDirectory() as tmp, with_block_chars(block_chars):
            path = os.path.join(tmp, "sig.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            back = read_signal_csv(path)
            rows = list(csv_sample_source(path))
        assert np.array_equal(bits(back.samples), bits(samples))
        assert np.array_equal(bits(np.stack(rows)), bits(samples))

    @settings(max_examples=100, deadline=None)
    @given(names=st.lists(st.text(st.characters(), max_size=4), min_size=1, max_size=3))
    def test_names_a_series_takes_read_back(self, names):
        try:
            series = MultiChannelSeries(samples=np.zeros((2, len(names))), channel_names=names)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sig.csv")
            write_signal_csv(series, path)
            assert read_signal_csv(path).channel_names == names

    @settings(max_examples=100, deadline=None)
    @given(header=st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=12
    ))
    def test_names_the_reader_gives_make_a_series(self, header):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sig.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(header + "\n" + ",".join(["1.0"] * (header.count(",") + 1)) + "\n")
            assert len(read_signal_csv(path).channel_names) == header.count(",") + 1


BAD_RECORDS = {
    "short": ("7.0", "expected 2 fields, got 1"),
    "long": ("1.0,2.0,3.0", "expected 2 fields, got 3"),
    "non-numeric": ("x,1.0", "non-numeric value"),
    "empty field": ("1.0,", "non-numeric value"),
    "nan": ("nan,1.0", "non-finite value"),
    "overflow": ("1.0,1e999", "non-finite value"),
}


def record_errors(path, payload):
    """The StreamFormatError of both file readers and of a socket feed."""
    cfg = WindowingConfig(window_len=2, context_len=1, stride=2)
    errors = []
    with pytest.raises(StreamFormatError) as err:
        read_signal_csv(path)
    errors.append(err.value)
    with pytest.raises(StreamFormatError) as err:
        list(csv_sample_source(path))
    errors.append(err.value)
    port, thread = serve_once(payload.encode("utf-8"))
    with pytest.raises(StreamFormatError) as err:
        list(stream_windows(socket_sample_source("127.0.0.1", port), cfg, channel_count=2))
    thread.join(timeout=10)
    assert not thread.is_alive()
    errors.append(err.value)
    return errors


class TestBlockBoundaries:
    """A malformed record gets the same record_index whichever block of the
    parser it falls in, from both file readers and from a socket feed."""

    LINE = "1.5,2.5"  # 8 bytes with its newline
    PER_BLOCK = 4
    BLOCK_BYTES = PER_BLOCK * 8  # each read returns exactly PER_BLOCK records

    def test_premise_blocks_of_four_records(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("a,b\n" + (self.LINE + "\n") * 10)
        with with_block_chars(self.BLOCK_BYTES), open(path, "rb") as fh:
            fh.readline()
            sizes = [len(b) for b in signal_io._csv_blocks(fh, str(path), 2)]
        assert sizes == [4, 4, 2]

    @pytest.mark.parametrize("bad_index", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("kind", sorted(BAD_RECORDS))
    def test_same_index_around_boundary(self, tmp_path, bad_index, kind):
        record, message = BAD_RECORDS[kind]
        lines = [self.LINE] * 10
        lines[bad_index] = record
        payload = "\n".join(lines) + "\n"
        path = tmp_path / "sig.csv"
        path.write_text("a,b\n" + payload)
        with with_block_chars(self.BLOCK_BYTES):
            errors = record_errors(str(path), payload)
        for err in errors:
            assert err.record_index == bad_index
            assert message in str(err)
        for err in errors[:2]:
            assert str(err).startswith(f"{path}: record {bad_index}: ")

    @settings(max_examples=40, deadline=None)
    @given(
        n_records=st.integers(1, 30),
        data=st.data(),
        block_chars=st.integers(1, 120),
        kind=st.sampled_from(sorted(BAD_RECORDS)),
    )
    def test_same_index_anywhere(self, n_records, data, block_chars, kind):
        bad_index = data.draw(st.integers(0, n_records - 1))
        lines = []
        for i in range(n_records):
            lines += data.draw(st.lists(st.sampled_from(["", "  "]), max_size=2))
            lines.append(BAD_RECORDS[kind][0] if i == bad_index else f"{i}.25,-{i}e3")
        payload = "\n".join(lines) + "\n"
        with tempfile.TemporaryDirectory() as tmp, with_block_chars(block_chars):
            path = os.path.join(tmp, "sig.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("a,b\n" + payload)
            errors = record_errors(path, payload)
        assert [e.record_index for e in errors] == [bad_index] * 3


def feed(payload, sizes=(), **kwargs):
    """socket_sample_source on a loopback feed of payload (see serve_once)."""
    port, thread = serve_once(payload, sizes)
    try:
        yield from socket_sample_source("127.0.0.1", port, **kwargs)
    finally:
        thread.join(timeout=10)
        assert not thread.is_alive()


def outcome(items):
    """What a source yields before it ends, as bytes, and its StreamFormatError
    as (record_index, message without the source), or None."""
    got = []
    try:
        for item in items:
            got.append((item.shape, item.tobytes()))
    except StreamFormatError as exc:
        return got, (exc.record_index, str(exc).partition(f"record {exc.record_index}: ")[2])
    return got, None


class TestLineEndingsAndBytes:
    """Files and feeds share one byte-level parser: every line ending, and a
    record that is not UTF-8 is named like any other bad record."""

    @pytest.mark.parametrize("block_chars", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_line_endings_parse_alike(self, tmp_path, ending, block_chars):
        series = make_series(t=40, c=3, seed=31)
        lines = [",".join(map(repr, row)) for row in series.samples.tolist()]
        path = tmp_path / "sig.csv"
        path.write_bytes(ending.join(["a,b,c", *lines, ""]).encode("utf-8"))
        payload = ending.join([*lines, ""]).encode("utf-8")
        with with_block_chars(block_chars):
            back = read_signal_csv(str(path))
            rows = list(csv_sample_source(str(path)))
            fed = list(feed(payload, sizes=(5, 3, 11)))
        assert back.channel_names == ["a", "b", "c"]
        for got in (back.samples, np.stack(rows), np.stack(fed)):
            assert np.array_equal(bits(got), bits(series.samples))

    def test_non_utf8_record_names_source_and_record(self, tmp_path):
        payload = b"1.0,2.0\n\n3.0,\xff4.0\n5.0,6.0\n"
        path = tmp_path / "sig.csv"
        path.write_bytes(b"a,b\n" + payload)
        message = "record 1: not UTF-8 text (invalid start byte)"
        for read in (read_signal_csv, lambda p: list(csv_sample_source(p))):
            with pytest.raises(StreamFormatError) as err:
                read(str(path))
            assert str(err.value) == f"{path}: {message}"
            assert err.value.record_index == 1
        with pytest.raises(StreamFormatError) as err:
            list(feed(payload))
        assert str(err.value).startswith("tcp://127.0.0.1:")
        assert str(err.value).endswith(f": {message}")
        assert err.value.record_index == 1

    def test_non_utf8_header_names_file(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_bytes(b"a,\xffb\n1.0,2.0\n")
        with pytest.raises(ValueError, match=f"^{path}: header is not UTF-8 text"):
            read_signal_csv(str(path))

    def test_rows_before_a_bad_record_are_yielded(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\nx,5.0\n")
        rows, error = outcome(csv_sample_source(str(path)))
        assert len(rows) == 2 and error[0] == 2

    def test_first_window_does_not_wait_for_a_full_block(self):
        """A peer that sends exactly W lines and then holds the connection
        open gets its first window at once, not after timeout_s."""
        w = 6
        samples = np.arange(2.0 * w).reshape(w, 2)
        payload = "".join(f"{a!r},{b!r}\n" for a, b in samples.tolist()).encode("utf-8")
        hold = threading.Event()
        port, thread = serve_once(payload, hold=hold)
        cfg = WindowingConfig(window_len=w, context_len=w - 1, stride=w)
        try:
            start = time.monotonic()
            windows = stream_windows(
                socket_sample_source("127.0.0.1", port, timeout_s=20.0), cfg, channel_count=2
            )
            first = next(windows)
            waited = time.monotonic() - start
            windows.close()
        finally:
            hold.set()
            thread.join(timeout=10)
        assert np.array_equal(first, samples)
        assert waited < 2.0


FEED_TOKENS = [b"\n", b"\r\n", b"\r", b"\xff", b"\xc3", b",", b" ", b"\t", b"x", b"nan",
               b"1e999", b"-", b".", b"7", b"\x00"]


@st.composite
def edited_feed(draw, samples):
    """The rows of samples as feed lines, with random line edits (blank,
    duplicated and deleted lines), random line endings, and random byte edits."""
    lines = [",".join(map(repr, row)).encode("utf-8") for row in samples.tolist()]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["blank", "duplicate", "delete"]))
        if kind == "blank":
            lines.insert(i, draw(st.sampled_from([b"", b" ", b"\t "])))
        elif i < len(lines):
            lines[i : i + 1] = [lines[i]] * 2 if kind == "duplicate" else []
    payload = b"".join(line + draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for line in lines)
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(payload)))
        token = draw(st.sampled_from(FEED_TOKENS))
        if draw(st.booleans()):
            payload = payload[:pos] + token + payload[pos:]
        else:
            payload = payload[:pos] + token + payload[pos + 1 :]
    return payload


class TestFeedSweep:
    """A feed and a file of the same lines behind a header give the same rows
    and the same StreamFormatError, however the feed is cut into sendall
    calls and whatever _BLOCK_CHARS is."""

    @settings(max_examples=100, deadline=None)
    @given(
        samples=finite_samples,
        data=st.data(),
        block_chars=st.integers(1, 200),
        sizes=st.lists(st.integers(1, 64), min_size=1, max_size=4),
    )
    def test_feed_matches_file(self, samples, data, block_chars, sizes):
        c = samples.shape[1]
        payload = data.draw(edited_feed(samples))
        cfg = WindowingConfig(window_len=2, context_len=1, stride=1)
        with tempfile.TemporaryDirectory() as tmp, with_block_chars(block_chars):
            path = os.path.join(tmp, "sig.csv")
            with open(path, "wb") as fh:
                fh.write(",".join(f"ch{i}" for i in range(c)).encode("utf-8") + b"\n" + payload)
            file_rows = outcome(csv_sample_source(path))
            feed_rows = outcome(feed(payload, sizes, timeout_s=10.0))
            file_windows = outcome(stream_windows(csv_sample_source(path), cfg, channel_count=c))
            feed_windows = outcome(
                stream_windows(feed(payload, sizes, timeout_s=10.0), cfg, channel_count=c)
            )
        error = file_rows[1]
        if error is not None and error[0] == 0 and error[1].startswith(f"expected {c} fields"):
            # a feed has no header, so its field count is its first record's:
            # both stop at record 0, the feed on that record's own fault
            assert feed_windows[0] == [] and feed_windows[1][0] == 0
        else:
            assert feed_rows == file_rows
            assert feed_windows == file_windows


def as_rows(samples, kinds):
    """The rows of samples as lists, tuples, contiguous row views or strided
    row views (of a Fortran-ordered copy), kinds[i] choosing row i's type."""
    strided = np.asfortranarray(samples)
    make = {
        "list": lambda i: samples[i].tolist(),
        "tuple": lambda i: tuple(samples[i].tolist()),
        "view": lambda i: samples[i],
        "strided": lambda i: strided[i],
    }
    return [make[kind](i) for i, kind in enumerate(kinds)]


@st.composite
def stream_cases(draw, min_rows=0):
    """(samples, rows, cfg, channel_count): strides below, equal to and
    above W, rows of mixed types."""
    w = draw(st.integers(2, 9))
    stride = draw(st.one_of(st.integers(1, w - 1), st.just(w), st.integers(w + 1, 3 * w + 2)))
    samples = draw(arrays(
        np.float64,
        st.tuples(st.integers(min_rows, 60), st.integers(1, 4)),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.sampled_from(EDGE_VALUES),
        ),
    ))
    kinds = draw(st.lists(st.sampled_from(["list", "tuple", "view", "strided"]),
                          min_size=len(samples), max_size=len(samples)))
    cfg = WindowingConfig(window_len=w, context_len=w - 1, stride=stride)
    return samples, as_rows(samples, kinds), cfg, samples.shape[1]


def bad_row(samples, index, kind):
    """Row index of samples made bad in one way."""
    row = samples[index].tolist()
    if kind == "short":
        return row[:-1]
    if kind == "long":
        return np.array(row + [0.0])
    if kind == "non-numeric":
        return tuple(row[:-1] + ["x"])
    if kind == "text":  # one number, as long as the row
        return "1.25"[: len(row)]
    if kind == "bytes":
        return b"1.25"[: len(row)]
    if kind == "nested":  # shape (1, C)
        return np.array([row])
    row[-1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return np.array(row)


BAD_KINDS = ["short", "long", "non-numeric", "nan", "inf", "-inf", "text", "bytes", "nested"]
# (stride, index, where) for W = 10 over 40 rows
PLACES = [(3, 0, "first row"), (15, 12, "skipped under stride > W"),
          (16, 38, "trailing partial"), (4, 39, "trailing partial"),
          (10, 10, "first row of a window"), (4, 9, "last row of a window")]


def assert_same_outcome(rows, cfg, channel_count):
    """stream_windows yields the reference's windows bit for bit, and raises
    its StreamFormatError (index and message) after the same windows."""
    got, err = collect_until_error(stream_windows(iter(rows), cfg, channel_count))
    want, want_err = collect_until_error(reference_stream_windows(iter(rows), cfg, channel_count))
    assert_same_windows(got, want)
    assert (err is None) == (want_err is None)
    if err is not None:
        assert (err.record_index, str(err)) == (want_err.record_index, str(want_err))
    return err


class TestStreamWindowsInPlace:
    """Rows are copied into their window and checked when it completes, with
    the windows and errors of the per-row assembly."""

    @settings(max_examples=200, deadline=None)
    @given(case=stream_cases())
    def test_matches_reference(self, case):
        _, rows, cfg, channel_count = case
        assert assert_same_outcome(rows, cfg, channel_count) is None

    @settings(max_examples=300, deadline=None)
    @given(case=stream_cases(min_rows=1), data=st.data())
    def test_bad_rows_anywhere(self, case, data):
        """One bad row, or two: a non-finite row is named before a later bad
        row of the same window, as when every row was checked on arrival."""
        samples, rows, cfg, channel_count = case
        for _ in range(data.draw(st.integers(1, 2))):
            index = data.draw(st.integers(0, len(rows) - 1))
            rows[index] = bad_row(samples, index, data.draw(st.sampled_from(BAD_KINDS)))
        assert_same_outcome(rows, cfg, channel_count)

    @pytest.mark.parametrize("kind", BAD_KINDS)
    @pytest.mark.parametrize("good", ["list", "view"])
    @pytest.mark.parametrize("stride, index, where", PLACES)
    def test_bad_row_at(self, kind, good, stride, index, where):
        """A bad row among good rows that are lists or numpy row views."""
        samples = make_series(t=40, c=2, seed=44).samples
        rows = as_rows(samples, [good] * len(samples))
        rows[index] = bad_row(samples, index, kind)
        cfg = WindowingConfig(window_len=10, context_len=9, stride=stride)
        err = assert_same_outcome(rows, cfg, 2)
        assert err is not None and err.record_index == index

    @pytest.mark.parametrize("kind", ["text", "bytes", "nested"])
    @pytest.mark.parametrize("good", ["view", "list"])
    @pytest.mark.parametrize("stride, index, where", PLACES)
    def test_one_channel_row_at(self, kind, good, stride, index, where):
        """numpy takes "1", b"1" and a (1, 1) array as a one-channel row:
        each is still rejected as not flat, where it arrives, among good rows
        that are numpy row views or lists."""
        samples = make_series(t=40, c=1, seed=45).samples
        rows = as_rows(samples, [good] * len(samples))
        rows[index] = bad_row(samples, index, kind)
        cfg = WindowingConfig(window_len=10, context_len=9, stride=stride)
        err = assert_same_outcome(rows, cfg, 1)
        assert err is not None and err.record_index == index
        assert "expected a flat row, got shape" in str(err)

    @pytest.mark.parametrize("row", ["1.5", b"1.5", np.str_("1.5"), np.bytes_(b"1.5")])
    def test_text_row_is_not_spread_over_channels(self, row):
        rows = [[0.0, 1.0, 2.0]] * 3 + [row]
        cfg = WindowingConfig(window_len=2, context_len=1, stride=1)
        got, err = collect_until_error(stream_windows(iter(rows), cfg, channel_count=3))
        assert len(got) == 2 and err.record_index == 3
        assert str(err) == "record 3: expected a flat row, got shape ()"

    def test_trailing_rows_are_checked(self):
        rows = [[1.0], [2.0], [np.nan]]
        cfg = WindowingConfig(window_len=2, context_len=1, stride=2)
        got, err = collect_until_error(stream_windows(iter(rows), cfg, 1, source="feed"))
        assert len(got) == 1 and err.record_index == 2
        assert str(err) == "feed: record 2: non-finite value"

    @settings(max_examples=100, deadline=None)
    @given(case=stream_cases())
    def test_edits_to_a_yielded_window_stay_in_it(self, case):
        _, rows, cfg, channel_count = case
        got = []
        for window in stream_windows(iter(rows), cfg, channel_count):
            got.append(window.copy())
            window.fill(np.nan)
        assert_same_windows(got, list(reference_stream_windows(iter(rows), cfg, channel_count)))
