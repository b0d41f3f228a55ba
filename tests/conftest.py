import numpy as np
import pytest

from steinpi.targets import TargetModel


class QuarticTarget(TargetModel):
    """1D density proportional to exp(-x^4); degenerate curvature at 0."""

    dim = 1

    def _evaluate(self, x, order):
        return -(x[:, 0] ** 4), -4.0 * x**3, (-12.0 * x**2)[:, :, None]


@pytest.fixture
def quartic_target():
    return QuarticTarget()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_ACCEPTANCE_RESULTS = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        flag = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{flag}] {name}")
