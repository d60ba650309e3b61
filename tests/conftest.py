"""Shared test plumbing: the acceptance results banner and the parameter
layout check."""

import numpy as np
import pytest

from lorm.model import param_shapes

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Record one PASS/FAIL line per acceptance criterion; echoed at exit."""

    def log(number: int, passed: bool, detail: str = "") -> bool:
        line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f" - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        return passed

    return log


@pytest.fixture(scope="session")
def assert_one_vector():
    """Check that every params[name] is the view of params.flat at the
    name's offset in param_shapes(cfg) order."""

    def check(params, cfg) -> None:
        flat = params.flat
        assert flat.ndim == 1 and flat.flags.c_contiguous
        base = flat.__array_interface__["data"][0]
        start = 0
        for name, shape in param_shapes(cfg):
            view = params[name]
            assert view.shape == shape and view.flags.c_contiguous, name
            assert np.shares_memory(view, flat), name
            assert view.__array_interface__["data"][0] == base + start * flat.itemsize, name
            start += view.size
        assert start == flat.size and params.names() == [n for n, _ in param_shapes(cfg)]

    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES, key=lambda ln: int(ln.split()[1].rstrip(":"))):
            terminalreporter.write_line(line)
