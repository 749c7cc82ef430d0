import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

import wnvfront as w
from wnvfront.model import InitialData, ModelSpec
from wnvfront.solver import SolverConfig, initial_state
from wnvfront.verify import (
    J_FINE,
    ORDER_BANDS,
    SPATIAL_J,
    _exact,
    _manufactured_spec,
    comparison_suite,
    manufactured_convergence,
    observed_orders,
    probe_series,
)


def test_exact_solution_dirichlet_compatible():
    assert _exact(1.0, 0.3) == pytest.approx(0.0, abs=1e-15)
    assert _exact(-1.0, 0.3) == pytest.approx(0.0, abs=1e-15)
    # the manufactured runs start from the unit cosine bump, which is _exact(y, 0) inside
    for J in (*SPATIAL_J, J_FINE):
        state = initial_state(_manufactured_spec(), InitialData(amp_U=1.0, amp_V=1.0), SolverConfig(J=J))
        exact = _exact(state.y, 0.0)
        np.testing.assert_array_equal(state.m[1:-1], exact[1:-1])
        np.testing.assert_array_equal(state.n[1:-1], exact[1:-1])


def test_manufactured_convergence_orders():
    rows = manufactured_convergence()
    for study, (lo, hi) in ORDER_BANDS.items():
        assert lo <= observed_orders(rows, study)[-1] <= hi
    # errors strictly decrease under refinement in both studies
    for study in ("spatial", "temporal"):
        errs = [r["error"] for r in rows if r["study"] == study]
        assert all(b < a for a, b in zip(errs, errs[1:]))


def test_comparison_identical_pair(ref_spec, fast_solver):
    init = InitialData()
    report = comparison_suite(ref_spec, init, init, fast_solver)
    assert report["passed"]
    # identical configs integrate identically; fronts match bitwise, fields
    # up to spline evaluation roundoff
    assert report["front_margin"] == 0.0
    assert abs(report["field_margin"]) < 1e-12


def test_comparison_ordered_pair(ref_spec, fast_solver):
    lo = InitialData(amp_U=0.06, amp_V=1.2)
    hi = InitialData(amp_U=0.09, amp_V=1.8)
    report = comparison_suite(ref_spec, lo, hi, fast_solver)
    assert report["passed"]
    assert report["front_margin"] >= -1e-8


def test_comparison_of_failed_runs_raises(ref_spec):
    # a fixed step of 20 undershoots the clip band at once: neither run gets past t=0
    cfg = SolverConfig(J=64, dt_min=20.0, dt_max=20.0, t_end=200.0,
                       output_times=(0.0, 100.0, 200.0))
    lo = InitialData(amp_U=0.08, amp_V=1.5)
    hi = InitialData(amp_U=0.12, amp_V=2.25)
    with pytest.raises(ArithmeticError, match="dt_min"):
        comparison_suite(ref_spec, lo, hi, cfg)


_ORDERED_SOLVER = SolverConfig(J=48, dt_min=0.05, dt_max=0.05, t_end=5.0,
                               output_times=(2.5, 5.0))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.9), st.floats(0.01, 0.9), st.floats(1.1, 2.0), st.floats(1.1, 2.0),
       st.floats(0.05, 1.0))
def test_ordered_data_stay_ordered(frac_U, frac_V, factor_U, factor_V, mu):
    # amplitudes as fractions of the capacities; the upper pair is the lower one scaled
    # up, capped at capacity.  Both components are raised by at least 10 %, since an
    # unraised one can fall out of order (test_unraised_component_stays_ordered)
    spec = ModelSpec(mu=mu)
    lo = InitialData(amp_U=frac_U * spec.N1, amp_V=frac_V * spec.N2)
    hi = InitialData(amp_U=min(factor_U * lo.amp_U, spec.N1),
                     amp_V=min(factor_V * lo.amp_V, spec.N2))
    report = comparison_suite(spec, lo, hi, _ORDERED_SOLVER)
    assert report["passed"], report


@pytest.mark.xfail(strict=True, reason="the step keeps the order only up to a time-step error")
def test_unraised_component_stays_ordered():
    # the same V data under doubled U data: at dt = 0.05 the lower run's V ends up about
    # 0.015 above the upper run's, at J = 48 and at J = 192; at dt = 0.025 they stay ordered
    spec = ModelSpec(mu=1.0)
    lo = InitialData(amp_U=0.5 * spec.N1, amp_V=0.7 * spec.N2)
    hi = InitialData(amp_U=spec.N1, amp_V=lo.amp_V)
    assert comparison_suite(spec, lo, hi, _ORDERED_SOLVER)["passed"]


def _autonomous_spec():
    base = ModelSpec(mu=0.1, h0=2.0)
    strip = lambda f: replace(f, harmonics=())
    return ModelSpec(
        D1=3.0, D2=0.125, N1=1.0, N2=20.0, beta=0.6,
        alpha1=strip(base.alpha1), alpha2=strip(base.alpha2),
        gamma=strip(base.gamma), death=strip(base.death),
        mu=0.1, h0=2.0,
    )


def test_autonomous_tail_converges_to_constant():
    spec = _autonomous_spec()
    outs = tuple(np.linspace(75.0, 150.0, 76))
    traj = w.simulate(spec, InitialData(), SolverConfig(J=300, t_end=150.0,
                                                        output_times=outs))
    ts, us, _ = probe_series(traj, 0.0)
    tail = us[ts >= 110.0]
    assert np.max(tail) - np.min(tail) < 1e-3 * np.max(tail)
