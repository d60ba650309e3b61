"""End-to-end CLI pipeline runs, config plumbing, and exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorm
import lorm.cli
from lorm._checks import QUOTE_LIMIT
from lorm.cli import ConfigError, default_config, load_run_config, main
from lorm.evaluation import WearTable
from lorm.model import CheckpointError, load_checkpoint
from lorm.monitor import MonitorConfig, read_health_csv
from lorm.synth import SynthConfig
from lorm.tokenizer import load_codebooks

PIPELINE_CONFIG = {
    "seed": 3,
    "windowing": {"window_len": 61, "context_len": 60, "stride": 30},
    "patch": {"patch_len": 12},
    "tokenizer": {"num_tokens": 4},
    "model": {"hidden_dim": 16, "num_layers": 1, "num_heads": 2, "ffn_dim": 32},
    "train": {"max_epochs": 3, "patience": 5},
    "monitor": {"buffer_len": 10, "threshold": 0.2},
    "synth": {
        "channels": 2,
        "duration_samples": 12000,
        "noise_sigma": 0.1,
        "degradation_onset": 6000,
        "degradation_rate": 1e-3,
        "cuts": 10,
    },
}


def namespace(**kw):
    base = dict(config=None, set=None, seed=None, out=".")
    base.update(kw)
    return argparse.Namespace(**base)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every stage once in a shared directory; tests inspect the outputs."""
    out = tmp_path_factory.mktemp("pipeline")
    config_path = out / "config.json"
    config_path.write_text(json.dumps(PIPELINE_CONFIG))
    base = ["--config", str(config_path), "--out", str(out)]

    assert main(["synth"] + base) == 0
    assert main(["fit-codebooks"] + base) == 0
    assert main(["pretrain"] + base) == 0
    os.rename(out / "checkpoint.lorm", out / "pretrained.lorm")
    assert (
        main(["train"] + base + ["--set", "paths.init_checkpoint=pretrained.lorm"]) == 0
    )
    assert main(["monitor"] + base) == 0
    assert main(["calibrate"] + base) == 0
    assert main(["eval"] + base) == 0
    return {"out": out, "base": base, "config_path": config_path}


class TestPipeline:
    def test_all_artifacts_written(self, pipeline):
        out = pipeline["out"]
        for name in [
            "signal.csv",
            "wear.csv",
            "codebooks.json",
            "pretrained.lorm",
            "checkpoint.lorm",
            "train_report.csv",
            "hi.csv",
            "metrics.json",
        ]:
            assert (out / name).exists(), name

    def test_train_report_has_epochs(self, pipeline):
        lines = (pipeline["out"] / "train_report.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) >= 2

    def test_hi_csv_has_one_layout(self, pipeline):
        # wear.csv sits next to the signal, and monitoring does not read it
        header = (pipeline["out"] / "hi.csv").read_text().split("\n", 1)[0]
        assert header == "window_index,wlf,hi,alarm"

    def test_metrics_json_accumulates_stages(self, pipeline):
        doc = json.loads((pipeline["out"] / "metrics.json").read_text())
        assert set(doc) >= {
            "calibration",
            "classification",
            "detection_deviation_um",
            "first_alarm_window",
        }
        assert {"tau", "cut_id", "wear_um"} <= set(doc["calibration"])
        assert "counts" in doc["classification"]

    def test_calibrate_prints_tau(self, pipeline, capsys):
        assert main(["calibrate"] + pipeline["base"]) == 0
        stdout = capsys.readouterr().out
        assert "tau=" in stdout and "cut=" in stdout and "wear_um=" in stdout

    def test_monitor_reruns_byte_identical(self, pipeline, tmp_path_factory):
        out = pipeline["out"]
        reruns = []
        for label in ("a", "b"):
            rerun = tmp_path_factory.mktemp(f"rerun_{label}")
            args = ["monitor", "--config", str(pipeline["config_path"]), "--out", str(rerun)]
            for key in ("signal", "wear", "codebooks", "checkpoint"):
                suffix = {"checkpoint": "checkpoint.lorm", "codebooks": "codebooks.json"}.get(
                    key, f"{key}.csv"
                )
                args += ["--set", f"paths.{key}={out / suffix}"]
            assert main(args) == 0
            reruns.append((rerun / "hi.csv").read_bytes())
        assert reruns[0] == reruns[1]
        assert reruns[0] == (out / "hi.csv").read_bytes()

    def test_monitor_ignores_a_malformed_wear_csv(self, pipeline, tmp_path_factory):
        out = pipeline["out"]
        rerun = tmp_path_factory.mktemp("bad_wear")
        (rerun / "wear.csv").write_text("not,a,wear,table\n")
        args = ["monitor", "--config", str(pipeline["config_path"]), "--out", str(rerun)]
        for key, name in [("signal", "signal.csv"), ("codebooks", "codebooks.json"),
                          ("checkpoint", "checkpoint.lorm")]:
            args += ["--set", f"paths.{key}={out / name}"]
        assert main(args) == 0
        assert (rerun / "hi.csv").read_bytes() == (out / "hi.csv").read_bytes()

    def test_forced_alarms_print_lines(self, pipeline, tmp_path_factory, capsys):
        out = pipeline["out"]
        rerun = tmp_path_factory.mktemp("alarms")
        args = [
            "monitor",
            "--config",
            str(pipeline["config_path"]),
            "--out",
            str(rerun),
            "--set",
            f"paths.signal={out / 'signal.csv'}",
            "--set",
            f"paths.checkpoint={out / 'checkpoint.lorm'}",
            "--set",
            f"paths.codebooks={out / 'codebooks.json'}",
            "--set",
            "paths.wear=",
            "--set",
            "monitor.threshold=-1000000.0",
        ]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        # every post-buffer window alarms against an impossibly low threshold
        alarm_lines = [ln for ln in stdout.split("\n") if ln.startswith("ALARM window=")]
        assert len(alarm_lines) > 0
        assert "tau=-1000000.0" in alarm_lines[0]

    def test_unfilled_baseline_is_explained(self, pipeline, tmp_path_factory, capsys):
        """A run shorter than monitor.buffer_len leaves hi empty: monitor says
        so on stderr, and calibrate names the setting instead of failing on
        an empty cut list."""
        out = pipeline["out"]
        rerun = tmp_path_factory.mktemp("unfilled")
        args = ["--config", str(pipeline["config_path"]), "--out", str(rerun)]
        for key, name in [("signal", "signal.csv"), ("wear", "wear.csv"),
                          ("codebooks", "codebooks.json"), ("checkpoint", "checkpoint.lorm")]:
            args += ["--set", f"paths.{key}={out / name}"]
        args += ["--set", "monitor.buffer_len=100000"]
        assert main(["monitor"] + args) == 0
        err = capsys.readouterr().err
        windows = len((rerun / "hi.csv").read_text().splitlines()) - 1
        assert f"the stream ended after {windows} windows" in err
        assert "monitor.buffer_len=100000" in err and "hi is empty for every window" in err

        assert main(["calibrate"] + args) == 1
        err = capsys.readouterr().err
        assert str(rerun / "hi.csv") in err and "monitor.buffer_len" in err
        assert "Traceback" not in err

    def test_codebooks_without_channels_names_file(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline["out"] / "codebooks.json").read_text())
        del doc["channels"]
        broken = tmp_path / "codebooks.json"
        broken.write_text(json.dumps(doc))
        args = ["train", "--config", str(pipeline["config_path"]), "--out", str(tmp_path),
                "--set", f"paths.signal={pipeline['out'] / 'signal.csv'}"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert str(broken) in err and "'channels'" in err and "Traceback" not in err

    def test_tcp_stream_matches_file(self, pipeline, tmp_path_factory):
        out = pipeline["out"]

        def run_monitor(signal_value, dest):
            args = [
                "monitor",
                "--config",
                str(pipeline["config_path"]),
                "--out",
                str(dest),
                "--set",
                f"paths.signal={signal_value}",
                "--set",
                f"paths.checkpoint={out / 'checkpoint.lorm'}",
                "--set",
                f"paths.codebooks={out / 'codebooks.json'}",
                "--set",
                "paths.wear=",
            ]
            return main(args)

        file_dir = tmp_path_factory.mktemp("tcp_file")
        assert run_monitor(out / "signal.csv", file_dir) == 0

        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            with conn, conn.makefile("w", encoding="utf-8") as fh:
                with open(out / "signal.csv", "r", encoding="utf-8") as src:
                    next(src)  # data rows only: the feed is headerless
                    for line in src:
                        fh.write(line)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        tcp_dir = tmp_path_factory.mktemp("tcp_sock")
        try:
            assert run_monitor(f"tcp://127.0.0.1:{port}", tcp_dir) == 0
        finally:
            thread.join(timeout=10)
            server.close()
        assert (tcp_dir / "hi.csv").read_bytes() == (file_dir / "hi.csv").read_bytes()


def write_signal(path, columns=2, bad_row=None, bad_index=40):
    rows = [",".join(repr(0.01 * i * (c + 1)) for c in range(columns)) for i in range(100)]
    if bad_row is not None:
        rows[bad_index] = bad_row
    header = ",".join(f"ch{c}" for c in range(columns))
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_fit_codebooks_with_fewer_windows_than_tokens(tmp_path, capsys):
    """3000 samples give 9 windows of 321, 7 of them for training: too few
    for K=10. The message names the setting, the count and the file."""
    synth = ["synth.duration_samples=3000", "synth.degradation_onset=0", "synth.cuts=1"]
    assert main(["synth", "--out", str(tmp_path)] + [a for s in synth for a in ("--set", s)]) == 0
    capsys.readouterr()
    assert main(["fit-codebooks", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: tokenizer.num_tokens is 10, but {tmp_path / 'signal.csv'} yields 7 training "
        "windows; k-means needs at least one per token\n"
    )
    assert not (tmp_path / "codebooks.json").exists()


class TestSignalErrors:
    """A malformed signal file ends every reading command with exit code 1
    and a message naming the file and the record, never a traceback."""

    def run(self, pipeline, command, signal, dest):
        out = pipeline["out"]
        return main([
            command, "--config", str(pipeline["config_path"]), "--out", str(dest),
            "--set", f"paths.signal={signal}",
            "--set", f"paths.codebooks={out / 'codebooks.json'}",
            "--set", f"paths.checkpoint={out / 'checkpoint.lorm'}",
        ])

    @pytest.mark.parametrize("command", ["fit-codebooks", "pretrain", "train", "monitor"])
    @pytest.mark.parametrize(
        "bad_row, message",
        [("1.0", "expected 2 fields, got 1"), ("x,1.0", "non-numeric value"),
         ("nan,1.0", "non-finite value"), ("1.0,-inf", "non-finite value")],
    )
    def test_bad_record_names_file_and_record(
        self, pipeline, tmp_path, capsys, command, bad_row, message
    ):
        signal = tmp_path / "bad.csv"
        write_signal(signal, bad_row=bad_row)
        if command == "monitor":  # an earlier run's rows must not survive
            (tmp_path / "hi.csv").write_text(HI_CSV)
        assert self.run(pipeline, command, signal, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"error: {signal}: record 40: {message}" in err
        assert "Traceback" not in err
        if command == "monitor":
            assert f"; {tmp_path / 'hi.csv'} holds 0 windows\n" in err
            assert (tmp_path / "hi.csv").read_text() == "window_index,wlf,hi,alarm\n"
        else:
            assert not (tmp_path / "hi.csv").exists()

    @pytest.mark.parametrize("command", ["fit-codebooks", "monitor"])
    def test_non_utf8_record_names_file_and_record(self, pipeline, tmp_path, capsys, command):
        signal = tmp_path / "bad.csv"
        write_signal(signal, bad_row="0.5,0.25")
        signal.write_bytes(signal.read_bytes().replace(b"0.5,0.25", b"0.5,\xff0.25"))
        assert self.run(pipeline, command, signal, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"error: {signal}: record 40: not UTF-8 text (invalid start byte)" in err
        assert "Traceback" not in err

    def test_monitor_rejects_other_channel_count(self, pipeline, tmp_path, capsys):
        signal = tmp_path / "three.csv"
        write_signal(signal, columns=3)
        assert self.run(pipeline, "monitor", signal, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"error: {signal}: 3 channels, but the checkpoint expects 2" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_monitor_stops_at_a_sample_beyond_float32(self, pipeline, tmp_path, capsys):
        """A sample finite in float64 but beyond float32 stops monitor at its
        window k with exit 1, no numpy warning and no NaN WLF; hi.csv keeps
        the k - 1 rows before it."""
        out, k = pipeline["out"], 14  # past the baseline of 10 windows
        lines = (out / "signal.csv").read_text().splitlines(keepends=True)
        row = 1 + (k - 1) * 30 + 59  # stride 30: in window k's context, in no earlier window
        lines[row] = "1e39," + lines[row].split(",", 1)[1]
        signal = tmp_path / "bad.csv"
        signal.write_text("".join(lines))
        assert self.run(pipeline, "monitor", signal, tmp_path) == 1
        hi = tmp_path / "hi.csv"
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"error: window {k}: normalised window holds \S+e\+38, non-finite as float32; "
            rf"{re.escape(str(hi))} holds {k - 1} windows\n",
            err,
        ), err
        rows = (out / "hi.csv").read_text().splitlines(keepends=True)
        assert hi.read_text() == "".join(rows[:k])


WEAR_CSV = "cut_id,wear_um,first_window,last_window\n1,150.0,1,2\n2,320.0,3,4\n"
HI_CSV = "window_index,wlf,hi,alarm\n1,0.5,,0\n2,0.7,0.2,0\n3,0.9,0.4,1\n4,1.1,0.6,1\n"


class TestHealthAndWearErrors:
    """A malformed hi.csv or wear.csv ends calibrate and eval with exit code 1
    and a message naming the file and the line, never a traceback."""

    def run(self, tmp_path, capsys, command, hi=HI_CSV, wear=WEAR_CSV):
        (tmp_path / "hi.csv").write_text(hi)
        (tmp_path / "wear.csv").write_text(wear)
        rc = main([command, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return rc, err

    def test_well_formed_files_pass(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, "calibrate")[0] == 0
        assert self.run(tmp_path, capsys, "eval")[0] == 0

    @pytest.mark.parametrize("command", ["calibrate", "eval"])
    def test_non_numeric_hi_field(self, tmp_path, capsys, command):
        hi = HI_CSV.replace("2,0.7,0.2,0", "2,abc,0.1,0")
        rc, err = self.run(tmp_path, capsys, command, hi=hi)
        assert rc == 1
        assert f"error: {tmp_path / 'hi.csv'}: line 3: could not convert string to float" in err

    @pytest.mark.parametrize("command", ["calibrate", "eval"])
    def test_alarm_without_hi(self, tmp_path, capsys, command):
        hi = HI_CSV + "\n5,1.3,,1\n"  # a blank line still counts
        rc, err = self.run(tmp_path, capsys, command, hi=hi)
        assert rc == 1
        assert (
            f"error: {tmp_path / 'hi.csv'}: line 7: alarm requires a defined health index" in err
        )

    @pytest.mark.parametrize("command", ["calibrate", "eval"])
    @pytest.mark.parametrize("row", ["5,nan,0.8,0", "5,1.3,nan,0", "5,1.3,-inf,0", "5,1e999,0.8,1"])
    def test_non_finite_hi_row(self, tmp_path, capsys, command, row):
        rc, err = self.run(tmp_path, capsys, command, hi=HI_CSV + row + "\n")
        assert rc == 1
        assert f"error: {tmp_path / 'hi.csv'}: line 6: wlf and hi must be finite" in err
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize(
        "row, message",
        [("5,1.3", "expected 4 fields, got 2"), ("5,1.3,0.8,yes", "alarm must be 0 or 1, got 'yes'")],
    )
    def test_invalid_hi_row(self, tmp_path, capsys, row, message):
        rc, err = self.run(tmp_path, capsys, "eval", hi=HI_CSV + row + "\n")
        assert rc == 1
        assert f"error: {tmp_path / 'hi.csv'}: line 6: {message}" in err

    @pytest.mark.parametrize(
        "row, message",
        [("2,lots,3,4", "could not convert string to float"),
         ("2,-1.0,3,4", "cut 2: wear must be >= 0"),
         ("2,320.0,3", "expected 4 fields, got 3")],
    )
    @pytest.mark.parametrize("command", ["calibrate", "eval"])
    def test_bad_wear_row(self, tmp_path, capsys, command, row, message):
        wear = WEAR_CSV.replace("2,320.0,3,4", row)
        rc, err = self.run(tmp_path, capsys, command, wear=wear)
        assert rc == 1
        assert f"error: {tmp_path / 'wear.csv'}: line 3: {message}" in err

    @pytest.mark.parametrize("wear", ["nan", "inf"])
    def test_non_finite_wear_names_file(self, tmp_path, capsys, wear):
        rc, err = self.run(tmp_path, capsys, "calibrate", wear=WEAR_CSV.replace("320.0", wear))
        assert rc == 1
        assert f"error: {tmp_path / 'wear.csv'}: line 3: cut 2: wear must be finite" in err
        assert not (tmp_path / "metrics.json").exists()

    def test_inconsistent_wear_table_names_file(self, tmp_path, capsys):
        wear = WEAR_CSV.replace("2,320.0,3,4", "1,320.0,3,4")
        rc, err = self.run(tmp_path, capsys, "eval", wear=wear)
        assert rc == 1
        assert f"error: {tmp_path / 'wear.csv'}: duplicate cut id 1" in err

    def test_eval_without_overlap_names_both_files(self, tmp_path, capsys):
        hi = "window_index,wlf,hi,alarm\n1,0.5,,0\n2,0.7,,0\n"
        rc, err = self.run(tmp_path, capsys, "eval", hi=hi)
        assert rc == 1
        assert (
            f"error: {tmp_path / 'hi.csv'}: no post-buffer window overlaps the wear table "
            f"{tmp_path / 'wear.csv'}"
        ) in err

    @pytest.mark.parametrize("command", ["calibrate", "eval"])
    @pytest.mark.parametrize(
        "hi",
        ["window_index,wlf,hi,alarm\n",
         "window_index,wlf,hi,alarm\n5,0.5,0.1,0\n6,0.7,0.3,0\n"],
        ids=["header-only", "outside-wear"],
    )
    def test_no_scored_window_names_both_files(self, tmp_path, capsys, command, hi):
        rc, err = self.run(tmp_path, capsys, command, hi=hi)
        assert rc == 1
        assert (
            f"error: {tmp_path / 'hi.csv'}: no post-buffer window overlaps the wear table "
            f"{tmp_path / 'wear.csv'}"
        ) in err
        assert not (tmp_path / "metrics.json").exists()

    def test_calibrate_reads_cuts_from_wear_csv_only(self, tmp_path, capsys):
        """A stale cut_id column in hi.csv, here putting every window in cut 1,
        changes nothing: windows 3 and 4 lie in cut 2 of wear.csv."""
        stale = "window_index,wlf,hi,alarm,cut_id\n" + "".join(
            line + ",1\n" for line in HI_CSV.splitlines()[1:]
        )
        calibrations = []
        for hi in (HI_CSV, stale):
            assert self.run(tmp_path, capsys, "calibrate", hi=hi)[0] == 0
            calibrations.append(json.loads((tmp_path / "metrics.json").read_text())["calibration"])
        assert calibrations[0] == calibrations[1] == {"tau": 0.5, "cut_id": 2, "wear_um": 320.0}

    def test_eval_first_alarm_outside_wear_names_both_files(self, tmp_path, capsys):
        hi = "window_index,wlf,hi,alarm\n1,0.5,,0\n2,0.7,0.4,1\n3,0.9,0.4,1\n"
        wear = "cut_id,wear_um,first_window,last_window\n1,320.0,3,3\n"
        rc, err = self.run(tmp_path, capsys, "eval", hi=hi, wear=wear)
        assert rc == 1
        assert f"error: {tmp_path / 'hi.csv'}: first alarm, window 2, is outside " in err
        assert str(tmp_path / "wear.csv") in err
        assert not (tmp_path / "metrics.json").exists()


MUTATION_TOKENS = [bytes([b]) for b in b"0123456789,.-+eE_ naif\t\r\n\x00\xff\xc3"] + [
    b"nan", b"inf", b"1e999", b"-0",
]


@st.composite
def mutated(draw, text):
    """text as UTF-8 bytes with a few random token, line and length edits."""
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["delete", "insert", "replace", "line", "truncate"]))
        pos = draw(st.integers(0, len(data)))
        token = draw(st.sampled_from(MUTATION_TOKENS))
        if kind == "delete" and pos < len(data):
            del data[pos]
        elif kind == "insert":
            data[pos:pos] = token
        elif kind == "replace" and pos < len(data):
            data[pos : pos + 1] = token
        elif kind == "line":
            lines = bytes(data).split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            if draw(st.booleans()):
                lines.insert(i, lines[i])
            else:
                del lines[i]
            data = bytearray(b"\n".join(lines))
        elif kind == "truncate":
            del data[pos:]
    return bytes(data)


class TestHealthAndWearSweep:
    """Every mutated hi.csv or wear.csv either parses or raises a ValueError
    that names the file; calibrate and eval then exit 1 with that message,
    and no file makes them end in a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(
        which=st.sampled_from(["hi.csv", "wear.csv"]),
        data=st.data(),
    )
    def test_mutated_file(self, which, data):
        blob = data.draw(mutated(HI_CSV if which == "hi.csv" else WEAR_CSV))
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "hi.csv"), "w", encoding="utf-8") as fh:
                fh.write(HI_CSV)
            with open(os.path.join(tmp, "wear.csv"), "w", encoding="utf-8") as fh:
                fh.write(WEAR_CSV)
            path = os.path.join(tmp, which)
            with open(path, "wb") as fh:
                fh.write(blob)
            reader = read_health_csv if which == "hi.csv" else WearTable.from_csv
            try:
                reader(path)
                failure = None
            except ValueError as exc:
                failure = str(exc)
                assert failure.startswith(f"{path}: ")
            for command in ("calibrate", "eval"):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = main([command, "--out", tmp])
                if failure is not None:
                    assert rc == 1
                    assert f"error: {failure}" in err.getvalue()
                else:
                    assert rc in (0, 1, 2)


CONFIG_KEYS = list(default_config()["model"]) + [
    "max_seq_len", "num_channels", "num_tokens", "patch_len"
]
METADATA_FIELDS = [("config", k) for k in CONFIG_KEYS] + [
    ("windowing", "window_len"), ("windowing", "context_len"), ("stats", "mean"),
    ("stats", "std"), ("stats", "epsilon"), ("channel_names",), ("codebook_hash",),
]
JSON_VALUES = st.one_of(
    st.integers(-2, 130), st.floats(), st.text(max_size=3), st.booleans(), st.none(),
    st.lists(st.one_of(st.floats(-1e3, 1e3), st.text(max_size=2), st.integers(-1, 3)), max_size=4),
)


def with_metadata(blob, edit):
    """The checkpoint blob with ``edit`` applied to its JSON metadata."""
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    meta = json.loads(blob[12 : 12 + meta_len])
    edit(meta)
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(meta_blob)) + meta_blob + blob[12 + meta_len :]


def mutate_checkpoint(draw, blob):
    """blob with a few metadata fields replaced or dropped, then a few random
    byte edits anywhere in the file."""

    def edit(meta):
        for _ in range(draw(st.integers(0, 3))):
            *parents, key = draw(st.sampled_from(METADATA_FIELDS))
            node = meta
            for parent in parents:
                node = node[parent]
            if draw(st.booleans()):
                node[key] = draw(JSON_VALUES)
            else:
                node.pop(key, None)

    data = bytearray(with_metadata(blob, edit))
    for _ in range(draw(st.integers(0, 3))):
        if not data:
            break
        pos = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        byte = draw(st.integers(0, 255))
        if kind == "replace":
            data[pos] = byte
        elif kind == "insert":
            data.insert(pos, byte)
        elif kind == "delete":
            del data[pos]
        else:
            del data[pos:]
    return bytes(data)


class TestCheckpointSweep:
    """Every mutated checkpoint either loads or raises a CheckpointError
    naming the file; monitor then exits 1 with that message, and no
    checkpoint makes it end in a traceback."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint(self, pipeline, data):
        out = pipeline["out"]
        blob = mutate_checkpoint(data.draw, (out / "checkpoint.lorm").read_bytes())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "checkpoint.lorm")
            with open(path, "wb") as fh:
                fh.write(blob)
            signal = os.path.join(tmp, "signal.csv")
            with open(out / "signal.csv", "rb") as src, open(signal, "wb") as dst:
                dst.writelines(src.readlines()[:200])  # header and a few windows
            try:
                load_checkpoint(path)
                failure = None
            except CheckpointError as exc:
                failure = str(exc)
                assert failure.startswith(f"{path}: ")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main([
                    "monitor", "--config", str(pipeline["config_path"]), "--out", tmp,
                    "--set", f"paths.signal={signal}",
                    "--set", f"paths.codebooks={out / 'codebooks.json'}",
                    "--set", f"paths.checkpoint={path}", "--set", "paths.wear=",
                ])
        if failure is not None:
            assert rc == 1
            assert f"error: {failure}" in err.getvalue()
        else:
            assert rc in (0, 1)

    def test_non_integer_window_len_names_file(self, pipeline, tmp_path, capsys):
        blob = (pipeline["out"] / "checkpoint.lorm").read_bytes()
        path = tmp_path / "checkpoint.lorm"
        path.write_bytes(with_metadata(blob, lambda meta: meta["windowing"].update(window_len="x")))
        assert main([
            "monitor", "--config", str(pipeline["config_path"]), "--out", str(tmp_path),
            "--set", f"paths.codebooks={pipeline['out'] / 'codebooks.json'}",
        ]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: invalid metadata (window geometry" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("kind", ["huge layer count", "deeply nested metadata"])
    def test_oversized_checkpoint_exits_1(self, pipeline, tmp_path, capsys, kind):
        blob = (pipeline["out"] / "checkpoint.lorm").read_bytes()
        if kind == "huge layer count":
            blob = with_metadata(blob, lambda meta: meta["config"].update(num_layers=10**9))
            message = "parameter block holds"
        else:
            meta = b"[" * 100_000 + b"]" * 100_000
            blob = blob[:8] + struct.pack("<I", len(meta)) + meta
            message = "corrupt metadata block"
        path = tmp_path / "checkpoint.lorm"
        path.write_bytes(blob)
        assert main([
            "monitor", "--config", str(pipeline["config_path"]), "--out", str(tmp_path),
            "--set", f"paths.codebooks={pipeline['out'] / 'codebooks.json'}",
        ]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: {message}" in err
        assert "Traceback" not in err


CODEBOOK_FIELDS = [
    ("version",), ("K",), ("target_dim",), ("channels",), ("channels", 0),
    ("channels", 1, "name"), ("channels", 0, "centroids"), ("channels", 1, "centroids", 0),
    ("channels", 0, "centroids", 2, 0),
]
NESTED = "NESTED"  # a placeholder value, replaced by deeply nested brackets in the text


def mutate_codebooks(draw, text):
    """The codebooks JSON text with a few fields replaced or dropped, a value
    nested deeply, then a few random byte edits anywhere."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(0, 3))):
        *parents, key = draw(st.sampled_from(CODEBOOK_FIELDS))
        node = doc
        try:
            for parent in parents:
                node = node[parent]
            kind = draw(st.sampled_from(["replace", "drop", "nest"]))
            if kind == "replace":
                node[key] = draw(st.one_of(JSON_VALUES, st.sampled_from([4.0, 1.0, True])))
            elif kind == "nest":
                node[key] = NESTED
            else:
                del node[key]
        except (KeyError, IndexError, TypeError):
            pass
    depth = draw(st.sampled_from([2, 70, 100_000]))
    data = bytearray(json.dumps(doc).replace(f'"{NESTED}"', "[" * depth + "]" * depth).encode())
    for _ in range(draw(st.integers(0, 3))):
        if not data:
            break
        pos = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "replace":
            data[pos] = draw(st.integers(0, 255))
        elif kind == "insert":
            data.insert(pos, draw(st.sampled_from(b"[]{},:\"0-.e\xff")))
        else:
            del data[pos]
    return bytes(data)


def train_on(pipeline, tmp, codebooks):
    """Exit code and stderr of a one-epoch train on the first 400 samples,
    with the given codebooks file."""
    signal = os.path.join(tmp, "signal.csv")
    with open(pipeline["out"] / "signal.csv", "rb") as src, open(signal, "wb") as dst:
        dst.writelines(src.readlines()[:400])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([
            "train", "--config", str(pipeline["config_path"]), "--out", tmp,
            "--set", f"paths.signal={signal}", "--set", f"paths.codebooks={codebooks}",
            "--set", "train.max_epochs=1",
        ])
    return rc, err.getvalue()


class TestCodebooksSweep:
    """Every mutated codebooks file either loads or raises a ValueError naming
    the file; train then exits 1 with that message, never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_codebooks(self, pipeline, data):
        blob = mutate_codebooks(data.draw, (pipeline["out"] / "codebooks.json").read_text())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "codebooks.json")
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                load_codebooks(path)
                failure = None
            except ValueError as exc:
                failure = str(exc)
                assert failure.startswith(f"{path}: ")
            rc, err = train_on(pipeline, tmp, path)
        if failure is not None:
            assert rc == 1 and f"error: {failure}" in err
        else:
            assert rc in (0, 1, 2)  # 2: a well-formed file that does not fit the config

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(K=4.0), "K and target_dim must be integers, got 4.0 and 1"),
            (lambda doc: doc.update(target_dim=1.0), "got 4 and 1.0"),
            (lambda doc: doc.update(target_dim=True), "got 4 and True"),
            (lambda doc: doc["channels"][1].update(name=5), "channel 1: name must be a string"),
            (lambda doc: doc.update(K=NESTED), "not a codebooks JSON document (maximum recursion"),
            (lambda doc: doc.update(channels=[1, 2]), "channel 0: must be an object, got int"),
            (lambda doc: doc.update(channels={"a": 1}), "channels must be a non-empty list"),
            (lambda doc: doc["channels"][0]["centroids"][1].append(0.5),
             "channel 0: centroids must be a 4 x 1 array of numbers"),
            (lambda doc: doc["channels"][1]["centroids"][3].__setitem__(0, "x"),
             "channel 1: centroids must be a 4 x 1 array of numbers"),
            (lambda doc: doc["channels"][0].update(centroids=[[True], [False], [True], [False]]),
             "channel 0: centroids must be a 4 x 1 array of numbers"),
            (lambda doc: doc["channels"][1]["centroids"][2].__setitem__(0, "1.5"),
             "channel 1: centroids must be a 4 x 1 array of numbers"),
        ],
    )
    def test_malformed_codebooks_names_file(self, pipeline, tmp_path, edit, message):
        doc = json.loads((pipeline["out"] / "codebooks.json").read_text())
        edit(doc)
        path = tmp_path / "codebooks.json"
        path.write_text(json.dumps(doc).replace(f'"{NESTED}"', "[" * 100_000 + "]" * 100_000))
        with pytest.raises(ValueError) as exc:
            load_codebooks(str(path))
        assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)
        rc, err = train_on(pipeline, str(tmp_path), path)
        assert rc == 1 and f"error: {exc.value}" in err and "Traceback" not in err

    @pytest.mark.parametrize("k", [3, 5])
    def test_codebooks_of_other_k_exit_2(self, pipeline, tmp_path, capsys, k):
        """Codebooks fitted at K=4 do not fit a tokenizer section that says
        otherwise: train stops before any training, and says why."""
        out = pipeline["out"]
        rc = main([
            "train", "--config", str(pipeline["config_path"]), "--out", str(tmp_path),
            "--set", f"paths.signal={out / 'signal.csv'}",
            "--set", f"paths.codebooks={out / 'codebooks.json'}",
            "--set", f"tokenizer.num_tokens={k}",
        ])
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err
        assert f"error: paths.codebooks: built for K=4, the tokenizer section says {k}" in err
        assert not (tmp_path / "checkpoint.lorm").exists()


class TestCodebooksHash:
    def test_checkpoint_records_the_hash_of_the_codebooks_trained_on(
        self, pipeline, tmp_path, monkeypatch
    ):
        """codebooks.json replaced while train runs: the checkpoint records
        the hash of the bytes that were loaded, not of the file left behind."""
        books = tmp_path / "codebooks.json"
        original = (pipeline["out"] / "codebooks.json").read_bytes()
        books.write_bytes(original)
        real = lorm.cli.train_model

        def replacing_train_model(*args, **kwargs):
            books.write_text(json.dumps(json.loads(original), indent=1))
            return real(*args, **kwargs)

        monkeypatch.setattr(lorm.cli, "train_model", replacing_train_model)
        rc, err = train_on(pipeline, str(tmp_path), str(books))
        assert rc == 0, err
        assert books.read_bytes() != original
        recorded = load_checkpoint(str(tmp_path / "checkpoint.lorm")).codebook_hash
        assert recorded == hashlib.sha256(original).hexdigest()


class TestStreamErrors:
    """A bad, stalled or absent tcp:// feed ends monitor with exit code 1 and
    a message naming tcp://host:port, never a traceback or a hang."""

    def monitor(self, pipeline, tmp_path, port, *extra):
        out = pipeline["out"]
        return main([
            "monitor", "--config", str(pipeline["config_path"]), "--out", str(tmp_path),
            "--set", f"paths.signal=tcp://127.0.0.1:{port}",
            "--set", f"paths.codebooks={out / 'codebooks.json'}",
            "--set", f"paths.checkpoint={out / 'checkpoint.lorm'}",
            "--set", "paths.wear=", *extra,
        ])

    @staticmethod
    def serve(lines, stall):
        """A loopback server that sends lines, then waits for ``stall`` to be
        set before it closes the connection."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def run():
            conn, _ = server.accept()
            with conn:
                payload = "".join(line + "\n" for line in lines)
                conn.sendall(payload.encode("utf-8", "surrogateescape"))
                stall.wait(timeout=30)
            server.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return server.getsockname()[1], thread

    def check(self, capsys, rc, message, tmp_path, windows=0):
        """Exit code 1, one line naming the feed and how many windows hi.csv
        holds, and hi.csv holding just those."""
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert err.endswith(f"; {tmp_path / 'hi.csv'} holds {windows} windows\n")
        rows = (tmp_path / "hi.csv").read_text().splitlines()
        assert rows[0] == "window_index,wlf,hi,alarm" and len(rows) == windows + 1
        return rows[1:]

    @staticmethod
    def feed_lines(pipeline, count):
        """The first ``count`` samples of the pipeline's signal, as feed lines."""
        with open(pipeline["out"] / "signal.csv", "r", encoding="utf-8") as fh:
            return fh.read().splitlines()[1 : count + 1]

    @pytest.mark.parametrize("failure", ["bad record", "read timeout"])
    def test_failure_midstream_leaves_the_scored_rows(self, pipeline, tmp_path, capsys, failure):
        """A feed that fails after 5000 good samples leaves hi.csv holding
        the (5000 - W) // stride + 1 windows scored before it: the first rows
        of a clean run over the same signal. No row of an earlier run stays."""
        (tmp_path / "hi.csv").write_text(HI_CSV + "5,1.3,0.8,1\n" * 95)  # 99 stale rows
        lines = self.feed_lines(pipeline, 5000)
        stall = threading.Event()
        if failure == "bad record":
            lines.append("1.0,oops")
            stall.set()
        port, thread = self.serve(lines, stall)
        try:
            rc = self.monitor(pipeline, tmp_path, port, "--set", "monitor.read_timeout_s=0.5")
        finally:
            stall.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        windowing = PIPELINE_CONFIG["windowing"]
        windows = (5000 - windowing["window_len"]) // windowing["stride"] + 1
        source = f"tcp://127.0.0.1:{port}"
        message = {
            "bad record": f"{source}: record 5000: non-numeric value",
            "read timeout": f"{source}: no data for 0.5 s",
        }[failure]
        rows = self.check(capsys, rc, message, tmp_path, windows)
        clean = (pipeline["out"] / "hi.csv").read_text().splitlines()[1:]
        assert rows == clean[:windows]

    @pytest.mark.parametrize(
        "bad, message",
        [("1.0", "expected 2 fields, got 1"), ("1.0,x", "non-numeric value"),
         ("1.0,nan", "non-finite value"), ("1.0,\udcff", "not UTF-8 text (invalid start byte)")],
    )
    def test_bad_line_names_source_and_record(self, pipeline, tmp_path, capsys, bad, message):
        stall = threading.Event()
        stall.set()
        port, thread = self.serve(["0.5,0.25", bad, "0.5,0.25"], stall)
        rc = self.monitor(pipeline, tmp_path, port)
        thread.join(timeout=10)
        assert not thread.is_alive()
        self.check(capsys, rc, f"tcp://127.0.0.1:{port}: record 1: {message}", tmp_path)

    def test_stalled_peer_times_out(self, pipeline, tmp_path, capsys):
        stall = threading.Event()
        port, thread = self.serve(["0.5,0.25"] * 5, stall)
        try:
            rc = self.monitor(pipeline, tmp_path, port, "--set", "monitor.read_timeout_s=0.3")
        finally:
            stall.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        self.check(capsys, rc, f"tcp://127.0.0.1:{port}: no data for 0.3 s", tmp_path)

    def test_refused_connection_names_source(self, pipeline, tmp_path, capsys):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens on the port now
        rc = self.monitor(pipeline, tmp_path, port)
        self.check(capsys, rc, f"tcp://127.0.0.1:{port}: cannot connect", tmp_path)

    @pytest.mark.parametrize(
        "port",
        ["99999", "65536", "0", "8_0", "+80", " 80", "\uff18\uff10",
         pytest.param("1" + "0" * 5000, id="5001-digits")],
    )
    def test_bad_port_exits_2_before_hi_csv(self, pipeline, tmp_path, capsys, port):
        """A port is 1..65535 in ASCII digits. int() reads more, and the
        resolver would take 99999 as 34463 and 65536 as 0."""
        (tmp_path / "hi.csv").write_text(HI_CSV)
        assert self.monitor(pipeline, tmp_path, port) == 2
        source = f"tcp://127.0.0.1:{port}"
        assert capsys.readouterr().err == f"error: paths.signal: bad port in {source!r}\n"
        assert (tmp_path / "hi.csv").read_text() == HI_CSV

    @pytest.mark.parametrize("value", ["0", "-1", '"soon"'])
    def test_read_timeout_must_be_positive(self, capsys, value):
        assert main(["monitor", "--set", f"monitor.read_timeout_s={value}"]) == 2
        assert "monitor.read_timeout_s" in capsys.readouterr().err


class TestInterrupt:
    """Ctrl-C ends any command with exit code 130 and one line, never a
    traceback; in monitor that line says how many windows hi.csv holds, and
    it holds exactly those, the first rows of a clean run."""

    def monitor_args(self, pipeline, dest, *extra):
        out = pipeline["out"]
        return [
            "monitor", "--config", str(pipeline["config_path"]), "--out", str(dest),
            "--set", f"paths.codebooks={out / 'codebooks.json'}",
            "--set", f"paths.checkpoint={out / 'checkpoint.lorm'}", *extra,
        ]

    @pytest.mark.parametrize("k", [0, 1, 25])
    def test_monitor_keeps_the_scored_rows(self, pipeline, tmp_path, capsys, monkeypatch, k):
        real = lorm.cli._window_source

        def interrupted_after_k(cfg, deployed):
            def windows():
                for n, window in enumerate(real(cfg, deployed)):
                    if n == k:
                        raise KeyboardInterrupt
                    yield window

            return windows()

        monkeypatch.setattr(lorm.cli, "_window_source", interrupted_after_k)
        (tmp_path / "hi.csv").write_text(HI_CSV)  # an earlier run's rows
        signal = pipeline["out"] / "signal.csv"
        rc = main(self.monitor_args(pipeline, tmp_path, "--set", f"paths.signal={signal}"))
        assert rc == 130
        err = capsys.readouterr().err
        assert err == f"error: interrupted; {tmp_path / 'hi.csv'} holds {k} windows\n"
        clean = (pipeline["out"] / "hi.csv").read_text().splitlines()
        assert (tmp_path / "hi.csv").read_text().splitlines() == clean[: k + 1]

    @pytest.mark.parametrize("command", ["synth", "calibrate"])
    def test_any_command(self, tmp_path, capsys, monkeypatch, command):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(lorm.cli, "generate_run", interrupt)
        monkeypatch.setattr(lorm.cli, "read_health_csv", interrupt)
        (tmp_path / "hi.csv").write_text(HI_CSV)
        (tmp_path / "wear.csv").write_text(WEAR_CSV)
        assert main([command, "--out", str(tmp_path)]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"

    def test_sigint_on_a_live_feed(self, pipeline, tmp_path):
        """A real SIGINT to a monitor waiting on a stalled feed: rows appear
        in hi.csv as windows are scored, and the run ends with 130."""
        import signal  # here only: other tests name their signal files `signal`

        lines = TestStreamErrors.feed_lines(pipeline, 3000)
        stall = threading.Event()
        port, thread = TestStreamErrors.serve(lines, stall)
        windowing = PIPELINE_CONFIG["windowing"]
        windows = (3000 - windowing["window_len"]) // windowing["stride"] + 1
        hi = tmp_path / "hi.csv"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        args = self.monitor_args(
            pipeline, tmp_path, "--set", f"paths.signal=tcp://127.0.0.1:{port}",
            "--set", "monitor.read_timeout_s=null",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "lorm", *args], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and proc.poll() is None:
                if hi.exists() and hi.read_text().count("\n") == windows + 1:
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            stall.set()
            thread.join(timeout=10)
        assert proc.returncode == 130
        assert err == f"error: interrupted; {hi} holds {windows} windows\n"
        clean = (pipeline["out"] / "hi.csv").read_text().splitlines()
        assert hi.read_text().splitlines() == clean[: windows + 1]


def reference_calibrate_and_eval(records, wear, hi_path, wear_path, limit):
    """calibrate's and eval's metrics.json entries, each a dict or the
    ValueError the command stops with, computed from one HealthRecord per
    window as the commands did before hi.csv was read as columns."""
    from dataclasses import asdict

    from lorm.evaluation import compute_metrics, detection_deviation
    from lorm.monitor import calibrate_threshold

    defined = np.array([r.hi is not None for r in records], dtype=bool)
    positions = np.where(defined, wear.locate([r.window_index for r in records]), -1)
    if not (positions >= 0).any():
        hint = ""
        if records and not defined.any():
            hint = (
                f": all {len(records)} windows fell in the baseline, so monitor.buffer_len was "
                "at least the run's window count; monitor again with a smaller "
                "monitor.buffer_len"
            )
        error = ValueError(
            f"{hi_path}: no post-buffer window overlaps the wear table {wear_path}{hint}"
        )
        return error, error
    try:
        hi = np.array([r.hi for r in records], dtype=np.float64)
        calibration = {"calibration": asdict(calibrate_threshold(hi, positions, wear, limit))}
    except ValueError as exc:
        calibration = exc
    scored = positions >= 0
    labels = wear.wear_um[positions[scored]] > limit
    predictions = np.array([r.alarm for r in records], dtype=bool)[scored]
    report = compute_metrics(predictions, labels)
    first = next((i for i, r in enumerate(records) if r.alarm), None)
    first_alarm = None if first is None else records[first].window_index
    if first is not None and positions[first] < 0:
        return calibration, ValueError(
            f"{hi_path}: first alarm, window {first_alarm}, is outside {wear_path}"
        )
    deviation = detection_deviation(first_alarm, wear, limit)
    return calibration, {
        "classification": report.to_dict(),
        "detection_deviation_um": deviation,
        "first_alarm_window": first_alarm,
    }


class TestColumnsMatchTheRecordPath:
    @settings(max_examples=150, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 3),
                st.sampled_from([0.0, 150.0, 290.0, 299.5, 300.0, 300.5, 310.0, 450.0]),
            ),
            min_size=1,
            max_size=6,
        ),
        data=st.data(),
    )
    def test_calibrate_and_eval_give_the_same_bytes(self, spans, data):
        """hi.csv rows in any window order, with baseline rows, windows
        outside every cut and HI magnitudes whose sum depends on order:
        calibrate and eval write the metrics.json bytes of the record path,
        or stop with its message."""
        from lorm.evaluation import write_metrics_json
        from lorm.monitor import HealthRecord, write_health_csv

        ids = data.draw(
            st.lists(st.integers(0, 40), min_size=len(spans), max_size=len(spans), unique=True)
        )
        rows, start = [], 1
        for cut_id, (gap, extra, wear_um) in zip(ids, spans):
            rows.append((cut_id, wear_um, start + gap, start + gap + extra))
            start += gap + extra + 1
        wear = WearTable(*zip(*data.draw(st.permutations(rows))))
        his = st.one_of(st.none(), st.floats(-5.0, 5.0), st.sampled_from([1e16, -1e16, 0.1]))
        records = []
        for w in data.draw(st.lists(st.integers(-1, start + 1), max_size=25)):
            hi = data.draw(his)
            alarm = hi is not None and data.draw(st.booleans())
            records.append(HealthRecord(w, data.draw(st.floats(0.0, 9.0)), hi, alarm))

        with tempfile.TemporaryDirectory() as tmp:
            got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
            os.makedirs(got)
            os.makedirs(want)
            hi_path, wear_path = os.path.join(got, "hi.csv"), os.path.join(got, "wear.csv")
            write_health_csv(records, hi_path)
            wear.to_csv(wear_path)
            expected = reference_calibrate_and_eval(records, wear, hi_path, wear_path, 300.0)
            for command, outcome in zip(("calibrate", "eval"), expected):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = main([command, "--out", got])
                if isinstance(outcome, ValueError):
                    assert (rc, err.getvalue()) == (1, f"error: {outcome}\n")
                    continue
                assert rc == 0, err.getvalue()
                write_metrics_json(outcome, os.path.join(want, "metrics.json"))
                with open(os.path.join(got, "metrics.json"), "rb") as fh:
                    written = fh.read()
                with open(os.path.join(want, "metrics.json"), "rb") as fh:
                    assert written == fh.read()


def test_readme_defaults_block_is_default_config():
    """The README's "Defaults" JSON block is exactly the built-in config."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("Defaults:\n\n```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == default_config()


def test_readme_degrading_run_wears_after_onset(tmp_path):
    """The README quick start's second synth writes a degrading run: wear
    holds at its start value until the onset cut, then rises past the
    300 um limit."""
    assert main(["synth", "--out", str(tmp_path), "--set", "synth.degradation_rate=0.00028"]) == 0
    rows = (tmp_path / "wear.csv").read_text().splitlines()[1:]
    wear = [float(row.split(",")[1]) for row in rows]
    defaults = SynthConfig()
    onset_cut = defaults.degradation_onset * defaults.cuts // defaults.duration_samples
    assert len(wear) == defaults.cuts
    assert wear[:onset_cut] == [wear[0]] * onset_cut
    assert all(b > a for a, b in zip(wear[onset_cut - 1 :], wear[onset_cut:]))
    assert wear[-1] > 300.0


# one bad value per row: the setting, and the value as --set gives it
BAD_SETTINGS = [
    ("synth.duration_samples", "4000.5"),
    ("synth.channels", '"3"'),
    ("synth.channels", "true"),
    ("windowing.stride", "2.5"),
    ("patch.patch_len", "16.9"),
    ("patch.patch_len", "0"),
    ("tokenizer.num_tokens", "0"),
    ("model.hidden_dim", "0"),
    ("model.num_heads", "3"),
    ("model.attention_mode", "sideways"),
    ("train.max_epochs", "2.5"),
    ("train.beta1", "2"),
    ("train.epsilon", "-1"),
    ("train.batch_size", "true"),
    ("monitor.buffer_len", "2.5"),
    ("monitor.threshold", "NaN"),
    ("monitor.ma_window", "5"),
    ("eval.wear_limit_um", "NaN"),
]


class TestConfigModel:
    """Every config value is checked when the config loads, by the dataclass
    that owns it, so any command fails before it does any work."""

    @pytest.mark.parametrize("key, value", BAD_SETTINGS)
    def test_bad_value_is_named_before_any_work(self, tmp_path, capsys, key, value):
        rc = main(["synth", "--out", str(tmp_path), "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert key in err
        assert not (tmp_path / "signal.csv").exists()

    def test_dataclass_message_gets_its_section(self, capsys, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--set", "monitor.buffer_len=2.5"]) == 2
        err = capsys.readouterr().err
        assert "error: monitor.buffer_len must be an integer >= 1, got 2.5" in err

    def test_no_key_is_in_two_sections(self):
        """The section prefix of a message is found by its key, so every key
        names one place in the config."""
        config = default_config()
        keys = [k for k, v in config.items() if not isinstance(v, dict)]
        keys += [k for v in config.values() if isinstance(v, dict) for k in v]
        assert len(keys) == len(set(keys))

    def test_infinite_threshold_is_accepted(self):
        assert MonitorConfig(threshold=float("inf")).threshold == float("inf")
        cfg = load_run_config(namespace(set=["monitor.threshold=Infinity"]))
        assert cfg.monitor.threshold == float("inf")

    def test_integer_threshold_is_kept_as_a_float(self):
        cfg = load_run_config(namespace(set=["monitor.threshold=1"]))
        assert repr(cfg.monitor.threshold) == "1.0"

    def test_hi_csv_with_moving_average_column_still_loads(self, tmp_path):
        """hi.csv files from before hi_ma was dropped load; the extra column
        is ignored."""
        path = tmp_path / "hi.csv"
        path.write_text(
            "window_index,wlf,hi,alarm,cut_id,hi_ma\n"
            "1,0.5,,0,1,\n2,0.75,0.25,0,1,0.25\n3,1.0,0.5,1,2,0.375\n"
        )
        columns = read_health_csv(str(path))
        assert columns.window_index.tolist() == [1, 2, 3]
        assert columns.wlf.tolist() == [0.5, 0.75, 1.0]
        assert np.isnan(columns.hi[0]) and columns.hi[1:].tolist() == [0.25, 0.5]
        assert columns.alarm.tolist() == [False, False, True]


class TestConfigHandling:
    def test_set_parses_json_scalars(self, tmp_path):
        (tmp_path / "sig.csv").write_text("a\n1\n")
        cfg = load_run_config(
            namespace(
                set=[
                    "train.max_epochs=7",
                    "monitor.threshold=0.5",
                    "model.attention_mode=bidirectional",
                    "paths.signal=sig.csv",
                ],
                out=str(tmp_path),
            )
        )
        assert cfg.train.max_epochs == 7
        assert cfg.monitor.threshold == 0.5
        assert cfg.backbone.attention_mode == "bidirectional"
        assert cfg.resolve("signal") == os.path.join(str(tmp_path), "sig.csv")

    def test_seed_flag_wins_over_config_file(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"seed": 5}))
        cfg = load_run_config(namespace(config=str(config_path), seed=9))
        assert cfg.seed == 9
        assert cfg.train.seed == 9
        assert cfg.synth.seed == 9

    def test_absolute_paths_bypass_out_dir(self, tmp_path):
        signal = tmp_path / "sig.csv"
        signal.write_text("a\n1\n")
        cfg = load_run_config(namespace(set=[f"paths.signal={signal}"], out="w"))
        assert cfg.resolve("signal") == str(signal)

    def test_tcp_paths_bypass_out_dir(self):
        """A tcp:// source is returned as given where a feed is allowed, and
        rejected where a file is needed."""
        cfg = load_run_config(namespace(set=["paths.signal=tcp://h:1"], out="w"))
        assert cfg.resolve("signal", feed=True) == "tcp://h:1"
        with pytest.raises(ConfigError, match="paths.signal: this command needs a file"):
            cfg.resolve("signal")

    @pytest.mark.parametrize(
        "command, key",
        [
            ("fit-codebooks", "signal"),
            ("pretrain", "signal"),
            ("pretrain", "pretrain_signal"),
            ("pretrain", "codebooks"),
            ("pretrain", "init_checkpoint"),
            ("train", "signal"),
            ("train", "codebooks"),
            ("train", "init_checkpoint"),
            ("monitor", "checkpoint"),
            ("monitor", "codebooks"),
            ("calibrate", "hi"),
            ("calibrate", "wear"),
            ("eval", "hi"),
            ("eval", "wear"),
        ],
    )
    def test_socket_on_a_file_key_exits_2(self, pipeline, tmp_path, capsys, command, key):
        """Only monitor's paths.signal may be a feed; every other file a
        command reads must be a file, and the message names the key."""
        out = pipeline["out"]
        files = {"signal": "signal.csv", "codebooks": "codebooks.json", "hi": "hi.csv",
                 "checkpoint": "checkpoint.lorm", "wear": "wear.csv"}
        args = ["--config", str(pipeline["config_path"]), "--out", str(tmp_path)]
        for name, file in files.items():
            args += ["--set", f"paths.{name}={out / file}"]
        args += ["--set", f"paths.{key}=tcp://h:1"]
        assert main([command] + args) == 2
        assert capsys.readouterr().err == (
            f"error: paths.{key}: this command needs a file, not a socket\n"
        )
        assert not any(tmp_path.iterdir())

    def test_empty_path_is_an_error(self):
        cfg = load_run_config(namespace(set=["paths.init_checkpoint="]))
        with pytest.raises(ConfigError, match="init_checkpoint is required"):
            cfg.resolve("init_checkpoint")


class TestExitCodes:
    def test_unknown_set_key(self, capsys):
        assert main(["synth", "--set", "nosuch.key=1"]) == 2
        assert "unknown config key: nosuch.key" in capsys.readouterr().err

    def test_set_without_equals(self, capsys):
        assert main(["synth", "--set", "train.max_epochs"]) == 2
        assert "--set expects" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["3", "{}", '{"hidden_dim": 8}'])
    def test_set_on_section(self, capsys, value):
        """--set writes one scalar: a JSON object is kept as text, so it
        cannot write a section either."""
        assert main(["synth", "--set", f"model={value}"]) == 2
        assert capsys.readouterr().err == "error: model is a section, not a scalar\n"

    @pytest.mark.parametrize(
        "assignment, document, message",
        [
            ("model=3", {"model": 3}, "model is a section, not a scalar"),
            ("seed.x=1", {"seed": {"x": 1}}, "unknown config key: seed.x"),
            ("nosuch.key=1", {"nosuch": {"key": 1}}, "unknown config key: nosuch.key"),
            ("paths.hi.x.y=1", {"paths": {"hi": {"x": {"y": 1}}}},
             "unknown config key: paths.hi.x.y"),
        ],
    )
    def test_same_mistake_same_message_on_both_routes(
        self, capsys, tmp_path, assignment, document, message
    ):
        """--set a.b=v and a config file {a: {b: v}} go through one writer."""
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(document))
        errors = []
        for route in (["--set", assignment], ["--config", str(config_path)]):
            assert main(["synth", "--out", str(tmp_path / "out")] + route) == 2
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: {message}\n"] * 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["init_checkpoint", "hi"])
    @pytest.mark.parametrize("value, shown", [("null", "None"), ("false", "False"), ("3", "3")])
    def test_path_that_is_not_a_string(self, capsys, tmp_path, key, value, shown):
        """A file key takes a name, or "" for none; any other JSON value is a
        config error naming the key, not a file called None, False or 3."""
        (tmp_path / "signal.csv").write_text("a\n1\n")
        for route in (["--set", f"paths.{key}={value}"], ["--config", str(tmp_path / "c.json")]):
            (tmp_path / "c.json").write_text(f'{{"paths": {{"{key}": {value}}}}}')
            assert main(["train", "--out", str(tmp_path / "out")] + route) == 2
            assert capsys.readouterr().err == (
                f'error: paths.{key} must be a file name or "" for none, got {shown}\n'
            )
        assert not (tmp_path / "out").exists()

    def test_sample_rate_must_be_positive(self, capsys, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--set", "synth.sample_rate_hz=0"])
        assert rc == 2
        assert "sample_rate_hz must be positive" in capsys.readouterr().err

    def test_bad_windowing_names_field(self, capsys, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--set", "windowing.context_len=321"])
        assert rc == 2
        assert "context_len" in capsys.readouterr().err

    def test_monitor_without_checkpoint(self, capsys, tmp_path):
        rc = main(["monitor", "--out", str(tmp_path)])
        assert rc == 2
        assert "paths.checkpoint: no such file" in capsys.readouterr().err

    def test_malformed_checkpoint_names_file(self, capsys, tmp_path):
        ckpt = tmp_path / "checkpoint.lorm"
        ckpt.write_bytes(b"LORM\x01")
        (tmp_path / "codebooks.json").write_text("{}")
        assert main(["monitor", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "Traceback" not in err

    def test_unknown_config_file_key(self, capsys, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"windowingg": {"window_len": 3}}))
        assert main(["synth", "--config", str(config_path)]) == 2
        assert "unknown config key: windowingg" in capsys.readouterr().err

    def test_config_file_invalid_json(self, capsys, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text("{nope")
        assert main(["synth", "--config", str(config_path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "\udcff"])
    def test_config_file_too_deep_or_not_utf8_names_file(self, capsys, tmp_path, text):
        config_path = tmp_path / "c.json"
        config_path.write_text(text, errors="surrogateescape")
        assert main(["synth", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {config_path}: invalid JSON (" in err and "Traceback" not in err

    def test_deeply_nested_set_value_is_a_string(self, capsys):
        assert main(["synth", "--set", "seed=" + "[" * 100_000 + "]" * 100_000]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be an integer >= 0, got '[[[")

    @pytest.mark.parametrize(
        "key, prefix",
        [
            ("seed", "seed must be an integer >= 0"),
            ("monitor.buffer_len", "monitor.buffer_len must be an integer >= 1"),
            ("monitor.threshold", "monitor.threshold must be a number other than NaN"),
            ("model.attention_mode", "model.attention_mode must be 'causal' or 'bidirectional'"),
        ],
    )
    def test_long_rejected_value_is_cut(self, capsys, tmp_path, key, prefix):
        """A rejected value of any length is quoted in at most QUOTE_LIMIT
        characters; a short one in full."""
        value = "[" * 100_000 + "]" * 100_000
        assert main(["synth", "--out", str(tmp_path), "--set", f"{key}={value}"]) == 2
        shown = repr(value)[: QUOTE_LIMIT - 3] + "..."
        assert capsys.readouterr().err == f"error: {prefix}, got {shown}\n"
        value = "x" * (QUOTE_LIMIT - 2)  # its repr is exactly QUOTE_LIMIT long
        assert main(["synth", "--out", str(tmp_path), "--set", f"{key}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {prefix}, got {value!r}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "value, shown",
        [("2.5", "2.5"), ("true", "True"), ("1e999", "inf"), ("x", "'x'"), ("-1", "-1")],
    )
    def test_seed_must_be_a_non_negative_integer(self, capsys, tmp_path, value, shown):
        assert main(["synth", "--out", str(tmp_path), "--set", f"seed={value}"]) == 2
        assert capsys.readouterr().err == f"error: seed must be an integer >= 0, got {shown}\n"
        assert not any(tmp_path.iterdir())

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def test_cli_import_does_not_load_scipy():
    """Importing scipy.special would add about 0.3 s to every command's start."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(lorm.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import lorm.cli, sys; assert 'scipy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=60,
    )
