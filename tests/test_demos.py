"""The narrative demos run to completion against the current library.

Demos 01-03 take about 2 s together and run here, each in its own
interpreter. Demo 04 drives the whole CLI workflow at full scale (about
45 s), so it is left out of the suite; run it directly.
"""

import os
import subprocess
import sys

import pytest

import lorm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(lorm.__file__)))


@pytest.mark.parametrize(
    "demo",
    ["01_signals_and_windows.py", "02_tokenize_codebooks.py", "03_train_tiny_model.py"],
)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    # TMPDIR keeps the demos' temporary directories under this test's tmp_path
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
