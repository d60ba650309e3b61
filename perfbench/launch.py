"""Run one lorm CLI command with span tracing, for traced cli_pipeline runs.

    python3 perfbench/launch.py SPANS_JSON [lorm arguments ...]

Imports lorm from the checkout's src/, installs the same wrappers as the
in-process workloads, calls lorm.cli.main and writes the spans, their
per-name totals and the import time to SPANS_JSON. Exits with main's code.
"""

from __future__ import annotations

import json
import os
import sys
import time

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lorm.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out_path, lorm_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    code = 1
    try:
        sid = tracer.open("cli.main")
        try:
            code = lorm.cli.main(lorm_args)
        finally:
            tracer.close(sid)
    finally:
        totals = tracer.totals()
        spans.merge(totals, tracer.counters)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "totals": totals, "spans": tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
