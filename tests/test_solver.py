import numpy as np
import pytest
from scipy.linalg import block_diag

from wnvfront.coefficients import constant_field
from wnvfront.model import InitialData, ModelSpec
from wnvfront.solver import (
    FrontState,
    SolverConfig,
    _march,
    banded_operator,
    boundary_derivative,
    initial_state,
    simulate,
    step,
)
from wnvfront.transform import FrontGeometry


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
    assert boundary_derivative(zero, "right") == 0.0
    quad = _state(y, 1.0 - y * y, np.zeros(J + 1))
    # quadratics are exact for the 3-point one-sided stencil
    assert boundary_derivative(quad, "right") == pytest.approx(-2.0, abs=1e-12)
    assert boundary_derivative(quad, "left") == pytest.approx(2.0, abs=1e-12)


def test_boundary_derivative_sine_second_order():
    errs = []
    for J in (50, 100):
        y = np.linspace(-1, 1, J + 1)
        st = _state(y, np.sin(0.5 * np.pi * (1.0 - y)), np.zeros(J + 1))
        errs.append(abs(boundary_derivative(st, "right") + 0.5 * np.pi))
    assert errs[0] < 5e-3
    # halving dy should shrink the error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_pure_decay_matches_separated_mode():
    # negligible coupling: each component decays like m_t = D m_yy - d m on
    # the frozen unit-half-width domain; the principal cosine mode gives
    # rate d + D (pi/2)^2.
    spec = ModelSpec(
        D1=1.0, D2=0.5, N1=1.0, N2=1.0, beta=1.0,
        alpha1=constant_field(1e-12), alpha2=constant_field(1e-12),
        gamma_field=constant_field(0.1), death_field=constant_field(0.2),
        mu=0.1, h0=1.0,
    )
    J, dt = 200, 1e-3
    cfg = SolverConfig(J=J, dt0=dt, dt_min=dt, dt_max=dt, t_end=1.0, output_times=(1.0,))
    y = np.linspace(-1, 1, J + 1)
    m0 = 0.5 * np.cos(0.5 * np.pi * y)
    traj = _march(spec, _state(y, m0.copy(), m0.copy()), cfg, fronts=_frozen_fronts)
    assert traj.status == "completed"
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


def test_step_solves_backward_euler_system(ref_spec):
    J = 200
    cfg = SolverConfig(J=J, t_end=40.0, output_times=(40.0,))
    state = simulate(ref_spec, InitialData(), cfg).snapshots[-1]
    dy = 2.0 / J
    # geometry is frozen at the step start
    Acoef, Bcoef = state.geom.metric_terms(state.y[1:-1])
    x = state.geom.to_x(state.y[1:-1])
    for dt in (0.05, 0.5):
        new = step(ref_spec, state, dt)
        fU, fV = ref_spec.reaction(x, new.t, new.m[1:-1], new.n[1:-1])
        for D, u, u_old, f in ((ref_spec.D1, new.m, state.m, fU),
                               (ref_spec.D2, new.n, state.n, fV)):
            assert u[0] == u[-1] == 0.0
            u_yy = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (dy * dy)
            u_y = (u[2:] - u[:-2]) / (2.0 * dy)
            residual = (u[1:-1] - u_old[1:-1]) / dt - D * Acoef * u_yy + Bcoef * u_y - f
            assert np.max(np.abs(residual)) < 1e-10


def test_symmetry_preserved_with_frozen_fronts():
    spec = ModelSpec(
        D1=1.0, D2=0.5, N1=1.0, N2=2.0, beta=1.0,
        alpha1=constant_field(0.4), alpha2=constant_field(0.4),
        gamma_field=constant_field(0.1), death_field=constant_field(0.1),
        mu=0.1, h0=1.0,
    )
    J = 80
    cfg = SolverConfig(J=J, dt0=0.01, dt_min=0.01, dt_max=0.01, t_end=2.0, output_times=(2.0,))
    y = np.linspace(-1, 1, J + 1)
    m0 = 0.3 * np.cos(0.5 * np.pi * y)
    n0 = 0.8 * np.cos(0.5 * np.pi * y)
    traj = _march(spec, _state(y, m0, n0), cfg, fronts=_frozen_fronts)
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
    assert traj.status == "completed"
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
        SolverConfig(dt0=1e-9, dt_min=1e-3, t_end=1.0)
    for t_end in (0.0, -5.0, float("nan")):
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
    cfg = SolverConfig(J=J, dt0=dt, dt_min=dt, dt_max=dt, t_end=t_end)
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
