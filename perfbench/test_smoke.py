"""Smoke test: every workload at tiny size, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

Checks the output contract of perfbench/run.py against BENCHMARK.json, and
that the benchmark refuses to run without the lorm sources beside it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, workload, trace, extra=("--tiny",)):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        item = result["metrics"][entry["name"]]
        assert item["unit"] == entry["unit"]
        assert isinstance(item["value"], (int, float))
        if not trace:
            assert item["value"] > 0, entry["name"]
    if trace:
        assert result["metrics"]["model.forward_batch.busy_s"]["value"] > 0


def test_every_span_has_busy_and_self_metrics():
    listed = {m["name"] for m in SPEC["per_layer"]}
    for name in spans.span_names():
        assert f"{name}.busy_s" in listed and f"{name}.self_s" in listed, name


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    again = tracer.open("a")
    tracer.close(again)
    tracer.close(outer)
    totals = tracer.totals()
    outer_s = tracer.end[outer] - tracer.start[outer]
    inner_s = tracer.end[inner] - tracer.start[inner]
    # the nested "a" adds no busy time, and its self time stays in a.self_s
    assert totals["a.busy_s"] == outer_s
    assert totals["a.calls"] == 2
    assert totals["a.self_s"] == pytest.approx(outer_s - inner_s)
    assert totals["b.self_s"] == inner_s


def test_pace_scales_by_the_gauges_either_side():
    pace = workloads.Pace(lambda: ((lambda: None), 0.010))
    assert pace.scale(0.010, 0.010) == 1.0
    # a host running at half speed doubles the gauge and halves the scale
    assert pace.scale(0.020, 0.020) == pytest.approx(0.5)
    assert pace.scale(0.010, 0.030) == pytest.approx(0.5)
    # an empty kernel runs faster than its nominal time: work scales up
    pace.gauge()
    assert pace.split() > 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "monitor_dense", 0, extra=())
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
