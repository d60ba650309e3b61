"""lorm benchmark: two-phase training, dense monitoring and the CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout; lorm is imported from its src/ directory.
The workloads live in workloads.py and the metrics they report are named in
BENCHMARK.json at the root. With --trace 0 the run measures the end-to-end
metrics with no tracing, in paced CPU time (see workloads.Pace); with --trace 1 it first runs the workload untraced
for half the time, then installs the span wrappers of spans.py and repeats
the same number of rounds, and reports the per-layer metrics: one set-up
plus the mean of one round. --tiny shrinks every input for the smoke test.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Full
results go to .perfbench_out/ under the checkout.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: a single closed-loop caller, and steadier timings on a
# small shared machine. Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUPS = 9
NPROC = len(os.sched_getaffinity(0))

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (smoke test)")
    return parser.parse_args(argv)


def source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def facts(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": NPROC,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def rounds_for(workload, budget_s: float, min_rounds: int, traced: bool, stats: dict,
               count: int | None = None) -> list:
    """Run rounds until the budget is spent (or exactly count rounds)."""
    done = []
    start = clock()
    while True:
        try:
            done.append(workload.run_round(traced))
        except Exception:  # a crashed round is a failed round, reported with its traceback
            workload.problem(traceback.format_exc(limit=4))
            stats["attempted"] += workload.ops_per_round()
            stats["failed"] += workload.ops_per_round()
            stats["crashed"] = True
            return done
        stats["attempted"] += done[-1].attempted
        stats["failed"] += done[-1].failed
        if count is not None:
            if len(done) >= count:
                return done
        elif len(done) >= min_rounds and clock() - start >= budget_s:
            return done


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure_untraced(workload, seconds: float, stats: dict) -> dict[str, float]:
    # the gated times are paced CPU time (see workloads.Pace); the wall-clock
    # figures go to the results file and the human-readable lines
    setup = [workload.timed_setup() for _ in range(SETUPS)]
    done = rounds_for(workload, seconds, 2, False, stats)
    if stats.get("crashed"):
        return {}
    metrics = {
        "setup_s": statistics.median(paced for _, _, paced in setup),
        "setup_wall_s": statistics.median(wall for wall, _, _ in setup),
        "peak_rss_mb": peak_rss_mb(workload.in_process),
        "round_s": statistics.median(r.wall_s for r in done),
        "rounds": len(done),
    }
    metrics.update(workload.end_to_end())
    return metrics


def measure_traced(workload, seconds: float, stats: dict, spans_mod) -> dict[str, float]:
    spans_out = os.path.join(OUT, "spans")
    shutil.rmtree(os.path.join(spans_out, workload.name), ignore_errors=True)
    os.makedirs(spans_out, exist_ok=True)

    setup_cpu = workload.timed_setup()[1]
    plain = rounds_for(workload, seconds / 2.0, 1, False, stats)
    if stats.get("crashed"):
        return {}
    n = len(plain)

    tracer = spans_mod.Tracer()
    uninstall = spans_mod.install(tracer) if workload.in_process else (lambda: None)
    try:
        traced_setup_cpu = workload.timed_setup()[1]
        mark = len(tracer)
        counters1 = dict(tracer.counters)
        traced = rounds_for(workload, 0.0, n, True, stats, count=n)
    finally:
        uninstall()
    if stats.get("crashed"):
        return {}

    setup_part = tracer.totals(0, mark)
    spans_mod.merge(setup_part, counters1)
    round_part = tracer.totals(mark)
    spans_mod.merge(round_part, {k: v - counters1.get(k, 0) for k, v in tracer.counters.items()})
    for r in traced:
        spans_mod.merge(round_part, r.layers)
    layers = setup_part
    spans_mod.merge(layers, {k: v / n for k, v in round_part.items()})

    calls = layers.get("model.forward_batch.calls", 0)
    if calls:
        layers["model.forward_batch.windows_per_call"] = layers["model.forward_batch.windows"] / calls
    # in CPU time, like the end-to-end figures, so host load does not show
    untraced_s = setup_cpu + sum(r.cpu_s for r in plain) / n
    traced_s = traced_setup_cpu + sum(r.cpu_s for r in traced) / n
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    layers["trace.rounds"] = n
    layers.update(workload.layer_extras())

    if workload.in_process:
        with open(os.path.join(spans_out, f"{workload.name}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lorm", "__init__.py")):
        print(f"error: no lorm sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads

    import lorm

    if not os.path.abspath(lorm.__file__).startswith(SRC + os.sep):
        print(f"error: imported lorm from {lorm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # one CPU for the benchmark and every process it starts, so the pace
    # gauge runs on the core that runs the work
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.tiny)
    stats = {"attempted": 0, "failed": 0}
    started = clock()
    try:
        if args.trace:
            measured = measure_traced(workload, args.seconds, stats, spans)
        else:
            measured = measure_untraced(workload, args.seconds, stats)
    finally:
        workload.close()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = measured.get(entry["name"])
        if value is None:
            # a layer this workload never calls reads 0; an end-to-end metric
            # is missing only when the run failed
            value = 0.0 if args.trace and measured else None
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = (not workload.problems and stats["failed"] == 0
               and all(item["value"] is not None for item in metrics.values()))

    if not args.trace and measured:
        for name, value, unit, note in workload.report():
            print(f"{args.workload}  {name} = {value:.6g} {unit}  ({note})")
    for name, item in metrics.items():
        print(f"{args.workload}  {name} = {item['value']} {item['unit']}")
    for message in workload.problems:
        print(f"CHECK FAILED: {message}")
    run_facts = facts(args)
    run_facts["elapsed_s"] = clock() - started
    print("facts " + json.dumps(run_facts, sort_keys=True))

    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(
            {"facts": run_facts, "stats": stats, "problems": workload.problems,
             "measured": measured, "metrics": metrics,
             "samples": workload.samples() if measured and not args.trace else {}},
            fh, indent=1, sort_keys=True,
        )

    result = {"correct": correct, "attempted": stats["attempted"], "failed": stats["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
