from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.linalg import LinAlgError
from scipy.linalg import block_diag

from wnvfront import load_config, solver
from wnvfront.coefficients import CoefficientField
from wnvfront.model import InitialData, ModelSpec
from wnvfront.solver import (
    BANDS,
    TIME_TOL,
    Checkpoint,
    FrontState,
    NonFiniteError,
    SolverConfig,
    _march,
    banded_operator,
    boundary_derivative,
    extend,
    factor_banded,
    initial_state,
    simulate,
    solve_banded,
    step,
)
from wnvfront.transform import FrontGeometry

FIG1C = Path(__file__).resolve().parents[1] / "configs" / "paper_fig1c.cfg"

# the unit half-width at rest, passed to _march in place of the Stefan rule
def _frozen_fronts(t):
    return (-1.0, 1.0, 0.0, 0.0)


def _state(y, m, n, geom=None, t=0.0):
    return FrontState(t, y, np.asarray(m, float), np.asarray(n, float),
                      geom or FrontGeometry(-1.0, 1.0))


def test_zero_state_is_fixed_point(ref_spec):
    J = 64
    y = np.linspace(-1, 1, J + 1)
    st = _state(y, np.zeros(J + 1), np.zeros(J + 1))
    new = step(ref_spec, st, 0.01)
    assert np.all(new.m == 0.0) and np.all(new.n == 0.0)
    assert new.geom.hdot == 0.0 and new.geom.gdot == 0.0
    assert new.geom.h == st.geom.h and new.geom.g == st.geom.g


def test_boundary_derivative_zero_and_quadratic():
    J = 40
    y = np.linspace(-1, 1, J + 1)
    zero = _state(y, np.zeros(J + 1), np.zeros(J + 1))
    assert boundary_derivative(zero.m, "right") == 0.0
    quad = _state(y, 1.0 - y * y, np.zeros(J + 1))
    # quadratics are exact for the 3-point one-sided stencil
    assert boundary_derivative(quad.m, "right") == pytest.approx(-2.0, abs=1e-12)
    assert boundary_derivative(quad.m, "left") == pytest.approx(2.0, abs=1e-12)


def test_boundary_derivative_sine_second_order():
    errs = []
    for J in (50, 100):
        y = np.linspace(-1, 1, J + 1)
        st = _state(y, np.sin(0.5 * np.pi * (1.0 - y)), np.zeros(J + 1))
        errs.append(abs(boundary_derivative(st.m, "right") + 0.5 * np.pi))
    assert errs[0] < 5e-3
    # halving dy should shrink the error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_pure_decay_matches_separated_mode():
    # negligible coupling: each component decays like m_t = D m_yy - d m on
    # the frozen unit-half-width domain; the principal cosine mode gives
    # rate d + D (pi/2)^2.
    spec = ModelSpec(
        D1=1.0, D2=0.5, N1=1.0, N2=1.0, beta=1.0,
        alpha1=CoefficientField(1e-12), alpha2=CoefficientField(1e-12),
        gamma=CoefficientField(0.1), death=CoefficientField(0.2),
        mu=0.1, h0=1.0,
    )
    J, dt = 200, 1e-3
    cfg = SolverConfig(J=J, dt_min=dt, dt_max=dt, t_end=1.0, output_times=(1.0,))
    y = np.linspace(-1, 1, J + 1)
    m0 = 0.5 * np.cos(0.5 * np.pi * y)
    traj = _march(spec, Checkpoint(_state(y, m0.copy(), m0.copy()), dt), cfg, fronts=_frozen_fronts)
    final = traj.snapshots[-1]
    k = (0.5 * np.pi) ** 2
    for D, d, arr in ((1.0, 0.1, final.m), (0.5, 0.2, final.n)):
        exact = 0.5 * np.exp(-(d + D * k))
        assert np.max(arr) == pytest.approx(exact, rel=0.01)


def _dense(ab):
    """The square matrix of banded_operator's storage (bands 2 and 2)."""
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for i in range(n):
        for k in range(max(0, i - 2), min(n, i + 3)):
            dense[i, k] = ab[2 + i - k, k]
    return dense


def test_banded_operator_matches_dense_stencil(rng):
    nodes = 5  # the interior nodes of a J=6 grid
    D1, D2, diff, dt = 1.3, 0.4, 7.0, 0.1
    adv = rng.normal(size=nodes)
    m = rng.normal(size=(4, nodes))  # m11, m12, m21, m22 at each node
    ab = banded_operator(D1, D2, diff, adv, *m, dt)

    n = 2 * nodes
    dense = np.zeros((n, n))
    for j in range(nodes):
        for c, D in ((0, D1), (1, D2)):
            row = 2 * j + c
            dense[row, row] = 1.0 / dt + 2.0 * D * diff
            dense[row, 2 * j] -= m[2 * c][j]
            dense[row, 2 * j + 1] -= m[2 * c + 1][j]
            if j > 0:
                dense[row, row - 2] = -D * diff - adv[j]
            if j < nodes - 1:
                dense[row, row + 2] = -D * diff + adv[j]
    np.testing.assert_allclose(_dense(ab), dense, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("blocks", [2, 3])
def test_banded_operator_blocks_are_block_diagonal(rng, blocks):
    nodes = 5  # per block
    D1, D2, diff, dt = 1.3, 0.4, 7.0, 0.1
    adv = rng.normal(size=(blocks, nodes))
    m = rng.normal(size=(4, blocks, nodes))
    whole = banded_operator(D1, D2, diff, adv.ravel(), *m.reshape(4, -1), dt, blocks=blocks)
    singles = [_dense(banded_operator(D1, D2, diff, adv[b], *m[:, b], dt)) for b in range(blocks)]
    np.testing.assert_array_equal(_dense(whole), block_diag(*singles))


@pytest.mark.parametrize("blocks", [1, 7])
def test_banded_kernel_equals_scipy_bit_for_bit(rng, blocks):
    nodes = 9 * blocks
    adv = rng.normal(size=nodes)  # nonzero drift
    m = rng.normal(size=(4, nodes))
    ab = banded_operator(1.3, 0.4, 7.0, adv, *m, 0.1, blocks=blocks)
    b = rng.normal(size=2 * nodes)
    b_before = b.copy()
    x = solve_banded(factor_banded(ab), b)
    np.testing.assert_array_equal(x, scipy.linalg.solve_banded(BANDS, ab, b))
    np.testing.assert_array_equal(b, b_before)


def test_singular_banded_matrix_is_linalg_error():
    ab = np.zeros((5, 8))
    with pytest.raises(LinAlgError):
        scipy.linalg.solve_banded(BANDS, ab, np.ones(8))
    with pytest.raises(LinAlgError):
        factor_banded(ab)


def test_non_finite_system_is_nonfinite_error():
    spec = ModelSpec(mu=0.1, h0=0.6)
    state = initial_state(spec, InitialData(), SolverConfig(J=16))
    with pytest.raises(NonFiniteError):
        step(spec, state, 0.01, sources=lambda y, t: (np.full_like(y, np.nan), 0 * y))


@pytest.fixture(scope="module")
def spreading_state(ref_spec):
    """The reference run (h0=2, mu=0.1; it spreads) at t=40 on J=200."""
    cfg = SolverConfig(J=200, t_end=40.0, output_times=(40.0,))
    return simulate(ref_spec, InitialData(), cfg).snapshots[-1]


def test_step_solves_backward_euler_system(ref_spec, spreading_state):
    # the step solves backward Euler with the reaction linearised at the old
    # state exactly, and backward Euler itself up to an O(dt^2) residual
    state = spreading_state
    dy = 2.0 / (len(state.y) - 1)
    # geometry is frozen at the step start
    Acoef, Bcoef = state.geom.metric_terms(state.y[1:-1])
    x = state.geom.to_x(state.y[1:-1])
    lin = ref_spec.linearization()
    be_residual = {}
    for dt in (0.5, 0.1, 0.05, 0.025):
        new = step(ref_spec, state, dt)
        fU, fV = ref_spec.reaction(x, new.t, new.m[1:-1], new.n[1:-1])
        # the reaction is bilinear: its linearisation at the old state is f(u1)
        # plus a_c*dm*dn, the quadratic term that f(u1) has and it lacks
        dmdn = (new.m[1:-1] - state.m[1:-1]) * (new.n[1:-1] - state.n[1:-1])
        worst = 0.0
        for D, u, u_old, f, a in ((ref_spec.D1, new.m, state.m, fU, lin.a1),
                                  (ref_spec.D2, new.n, state.n, fV, lin.a2)):
            assert u[0] == u[-1] == 0.0
            u_yy = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (dy * dy)
            u_y = (u[2:] - u[:-2]) / (2.0 * dy)
            residual = (u[1:-1] - u_old[1:-1]) / dt - D * Acoef * u_yy + Bcoef * u_y - f
            assert np.max(np.abs(residual - a.eval(x, new.t) * dmdn)) < 1e-10
            worst = max(worst, float(np.max(np.abs(residual))))
        be_residual[dt] = worst
    # each halving of dt cuts the backward-Euler residual about fourfold
    assert be_residual[0.1] >= 3.5 * be_residual[0.05] >= 3.5 ** 2 * be_residual[0.025] > 0.0


def test_step_makes_one_banded_solve(ref_spec, spreading_state, monkeypatch):
    calls = []
    for name in ("factor_banded", "solve_banded"):
        def spy(*args, _name=name, _kernel=getattr(solver, name)):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(solver, name, spy)
    step(ref_spec, spreading_state, 0.05)
    assert calls == ["factor_banded", "solve_banded"]


def test_symmetry_preserved_with_frozen_fronts():
    spec = ModelSpec(
        D1=1.0, D2=0.5, N1=1.0, N2=2.0, beta=1.0,
        alpha1=CoefficientField(0.4), alpha2=CoefficientField(0.4),
        gamma=CoefficientField(0.1), death=CoefficientField(0.1),
        mu=0.1, h0=1.0,
    )
    J = 80
    cfg = SolverConfig(J=J, dt_min=0.01, dt_max=0.01, t_end=2.0, output_times=(2.0,))
    y = np.linspace(-1, 1, J + 1)
    m0 = 0.3 * np.cos(0.5 * np.pi * y)
    n0 = 0.8 * np.cos(0.5 * np.pi * y)
    traj = _march(spec, Checkpoint(_state(y, m0, n0), 0.01), cfg, fronts=_frozen_fronts)
    final = traj.snapshots[-1]
    assert np.max(np.abs(final.m - final.m[::-1])) < 1e-8
    assert np.max(np.abs(final.n - final.n[::-1])) < 1e-8


def test_initial_state_seeds_outward_velocities(ref_spec):
    st = initial_state(ref_spec, InitialData(), SolverConfig(J=100, t_end=1.0))
    assert st.geom.hdot > 0
    assert st.geom.gdot == pytest.approx(-st.geom.hdot, abs=1e-12)


def test_bounds_and_front_signs_short_run(ref_spec):
    traj = simulate(ref_spec, InitialData(), SolverConfig(J=150, t_end=20.0,
                                                          output_times=(5.0, 10.0, 20.0)))
    assert np.all(traj.sup_m <= ref_spec.N1 * (1 + 1e-8))
    assert np.all(traj.sup_n <= ref_spec.N2 * (1 + 1e-8))
    assert np.all(traj.sup_m >= 0) and np.all(traj.sup_n >= 0)
    assert np.all(np.diff(traj.h) >= 0)
    assert np.all(np.diff(traj.g) <= 0)
    for st in traj.snapshots:
        assert np.min(st.m) >= 0 and np.min(st.n) >= 0


def test_ordered_initial_data_order_fronts(ref_spec, fast_solver):
    lo = simulate(ref_spec, InitialData(amp_U=0.05, amp_V=1.0), fast_solver)
    hi = simulate(ref_spec, InitialData(amp_U=0.1, amp_V=2.0), fast_solver)
    n = min(len(lo.t), len(hi.t))
    assert np.min(hi.h[:n] - lo.h[:n]) >= -1e-8
    assert np.min(lo.g[:n] - hi.g[:n]) >= -1e-8


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(J=4, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt_min=1e-3, dt_max=1e-4, t_end=1.0)
    for t_end in (0.0, -5.0, float("nan"), 0.5 * TIME_TOL):  # the march counts 0.5 * TIME_TOL as reached
        with pytest.raises(ValueError):
            SolverConfig(t_end=t_end)
    for times in ((-1.0,), (1.0, float("nan")), (float("inf"),)):
        with pytest.raises(ValueError, match="output_times"):
            SolverConfig(output_times=times)
    # a time past t_end is accepted and skipped by the run: --t-end may shorten a run
    assert SolverConfig(t_end=1.0, output_times=(0.0, 5.0)).output_times == (0.0, 5.0)


def _front_identity_gap(J, dt, t_end=40.0):
    """Relative gap in the integrated U balance on (h0, mu) = (0.6, 0.2).

    Integrating the U equation over [g, h] with U = 0 at both ends and the
    Stefan rule h' = -mu U_x(h), g' = -mu U_x(g) gives

        (D1/mu) (w(t) - 2 h0) = int U0 - int U(t) + int_0^t int [a1 (N1-U) V - d1 U],

    so the front motion and the interior solution must agree through it.
    """
    spec = ModelSpec(mu=0.2, h0=0.6)
    cfg = SolverConfig(J=J, dt_min=dt, dt_max=dt, t_end=t_end)
    st = initial_state(spec, InitialData(), cfg)
    dy = 2.0 / J

    def mass(s):
        return np.trapezoid(s.m, dx=dy) * 0.5 * s.geom.width

    mass0 = mass(st)
    source = 0.0
    for _ in range(int(round(t_end / dt))):
        geom = st.geom  # the step solves on the geometry frozen at its start
        st = step(spec, st, dt)
        dU, _ = spec.reaction(geom.to_x(st.y), st.t, st.m, st.n)
        source += dt * np.trapezoid(dU, dx=dy) * 0.5 * geom.width
    lhs = spec.D1 / spec.mu * (st.geom.width - 2.0 * spec.h0)
    rhs = mass0 - mass(st) + source
    return abs(lhs - rhs) / abs(lhs)


def test_front_update_satisfies_integral_identity():
    coarse = _front_identity_gap(100, 0.02)
    fine = _front_identity_gap(200, 0.01)
    assert coarse < 1e-3
    assert fine < coarse / 3.0


def _fig1c(mu=None):
    run = load_config(FIG1C)
    spec = run.model_spec()
    return (spec if mu is None else replace(spec, mu=mu)), run.initial_data()


def test_extend_is_the_uninterrupted_run():
    # the last mu* probe of the benchmark's search, Undetermined at T=300
    spec, init = _fig1c(mu=0.86640625)
    cfg = SolverConfig(J=64, dt_max=0.5, t_end=300.0)
    resumed = extend(spec, simulate(spec, init, cfg), replace(cfg, t_end=600.0))
    whole = simulate(spec, init, replace(cfg, t_end=600.0, output_times=(300.0,)))
    for col in ("t", "g", "h", "gdot", "hdot", "sup_m", "sup_n"):
        np.testing.assert_array_equal(getattr(resumed, col), getattr(whole, col), err_msg=col)
    assert np.all(np.diff(resumed.t) > 0.0)
    assert np.count_nonzero(resumed.t == 300.0) == 1
    assert resumed.t[-1] == 600.0
    a, b = resumed.end, whole.end
    assert (a.dt, a.accepted_run, a.state.t, a.state.geom) == (b.dt, b.accepted_run, b.state.t, b.state.geom)
    np.testing.assert_array_equal(a.state.m, b.state.m)
    np.testing.assert_array_equal(a.state.n, b.state.n)


def test_extend_lands_on_output_times_as_the_uninterrupted_run():
    # an output time 5e-10 after the first horizon lands on it, in either run
    spec, init = _fig1c()
    cfg = SolverConfig(J=32, dt_max=0.5, t_end=100.0, output_times=(100.0, 100.0 + 5e-10))
    resumed = extend(spec, simulate(spec, init, cfg), replace(cfg, t_end=200.0))
    whole = simulate(spec, init, replace(cfg, t_end=200.0))
    assert [st.t for st in resumed.snapshots] == [st.t for st in whole.snapshots] == [100.0, 100.0]


def test_output_times_within_time_tol_of_the_start_land_on_it():
    # 5e-10 after t=0 is the start; 2e-9 is not, so a step lands there
    spec, init = _fig1c()
    cfg = SolverConfig(J=32, dt_max=0.5, t_end=1.0, output_times=(0.0, 5e-10, 2e-9, 1.0))
    traj = simulate(spec, init, cfg)
    assert [st.t for st in traj.snapshots] == [0.0, 0.0, 2e-9, 1.0]


def test_output_time_closer_than_dt_min_is_not_overshot():
    # the second output time is 5e-9 after the first, less than dt_min = 1e-8
    spec, init = _fig1c()
    cfg = SolverConfig(J=32, dt_max=0.5, t_end=60.0, output_times=(50.0, 50.0 + 5e-9))
    traj = simulate(spec, init, cfg)
    assert [st.t for st in traj.snapshots] == pytest.approx([50.0, 50.0 + 5e-9], abs=TIME_TOL)


def test_fixed_step_run_lands_on_its_horizon():
    # the manufactured study's coarsest temporal level: 0.5 is no multiple of 0.04
    spec, init = _fig1c()
    traj = simulate(spec, init, SolverConfig(J=32, dt_min=0.04, dt_max=0.04, t_end=0.5))
    assert traj.t[-1] == pytest.approx(0.5, abs=TIME_TOL)
    assert traj.t[-1] - traj.t[-2] == pytest.approx(0.02)


def test_rejected_step_halves_the_step_tried(monkeypatch):
    # steps longer than 0.003 that land on the output time 0.91 are rejected;
    # the step that lands there from t=0.9 is cut short to 0.01 < dt = 0.05
    spec, init = _fig1c()
    cfg = SolverConfig(J=64, dt_min=1e-3, dt_max=0.05, t_end=1.2, output_times=(0.91,))
    tried, march_step = [], solver.step

    def rejecting(spec, state, dt, *args):
        tried.append((state.t, dt))
        if dt > 0.003 and abs(state.t + dt - 0.91) < TIME_TOL:
            raise solver.BoundViolationError("rejected")
        return march_step(spec, state, dt, *args)

    monkeypatch.setattr(solver, "step", rejecting)
    traj = _march(spec, Checkpoint(initial_state(spec, init, cfg), 0.05), cfg)
    assert len(set(tried)) == len(tried)
    assert [st.t for st in traj.snapshots] == pytest.approx([0.91], abs=TIME_TOL)
    assert traj.t[-1] == pytest.approx(1.2, abs=TIME_TOL)


@pytest.mark.parametrize("config, rows, width", [
    ("paper_fig1c.cfg", 747, 1.2565447536273744),
    ("reference.cfg", 747, 47.5369298995635),
])
def test_simulate_run_is_pinned(config, rows, width):
    # the benchmark's mustar-search solver settings; rel=1e-9 absorbs libm-versus-numpy trig ulps
    run = load_config(FIG1C.parent / config)
    traj = simulate(run.model_spec(), run.initial_data(), SolverConfig(J=64, dt_max=0.5, t_end=300.0))
    assert len(traj.t) == rows
    assert traj.width[-1] == pytest.approx(width, rel=1e-9)


def test_march_reuses_spatial_terms_to_the_same_bits(monkeypatch):
    # a vanishing run: its fronts stall, so the march keeps the spatial terms for
    # most steps; public step calls evaluate all four afresh at every step
    spec, init = _fig1c()
    cfg = SolverConfig(J=64, dt_max=0.5, t_end=300.0)
    profile_calls, step_sizes = [], []
    spatial_term, march_step = CoefficientField.spatial_term, solver.step

    def counted(field, x):
        profile_calls.append(field)
        return spatial_term(field, x)

    def recorded(spec, state, dt, *args):
        new = march_step(spec, state, dt, *args)
        step_sizes.append(dt)
        return new

    monkeypatch.setattr(CoefficientField, "spatial_term", counted)
    monkeypatch.setattr(solver, "step", recorded)
    traj = simulate(spec, init, cfg)
    monkeypatch.setattr(solver, "step", march_step)
    assert len(step_sizes) == len(traj.t) - 1
    assert profile_calls.count(spec.linearization().a1) < len(step_sizes) / 2
    # np.diff(traj.t) is not the step size to the bit: t + dt rounds
    state = initial_state(spec, init, cfg)
    g, h = [state.geom.g], [state.geom.h]
    del profile_calls[:]
    for dt in step_sizes:
        state = step(spec, state, dt)
        g.append(state.geom.g)
        h.append(state.geom.h)
    assert len(profile_calls) == 4 * len(step_sizes)
    np.testing.assert_array_equal(g, traj.g)
    np.testing.assert_array_equal(h, traj.h)
    np.testing.assert_array_equal(state.m, traj.end.state.m)
    np.testing.assert_array_equal(state.n, traj.end.state.n)
