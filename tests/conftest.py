import numpy as np
import pytest

import wnvfront as w
import wnvfront.lyapunov as ly
from wnvfront.solver import SolverConfig

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def ref_spec():
    return w.ModelSpec(mu=0.1, h0=2.0)


@pytest.fixture(scope="session")
def fast_solver():
    """Fixed-dt config cheap enough for unit tests."""
    return SolverConfig(J=120, dt_min=0.02, dt_max=0.02, t_end=10.0,
                        output_times=(5.0, 10.0))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def estimator_solves(monkeypatch):
    """A list that gains one entry per banded solve of the exponent estimator: one per step."""
    calls = []
    solve = ly.solve_banded

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(ly, "solve_banded", counted)
    return calls
