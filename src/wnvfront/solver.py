"""Implicit finite-difference time integration of the front-fixed system.

Each step solves the transformed reaction-diffusion pair on y in [-1, 1]
with backward Euler in time and second-order central differences in
space.  The bilinear reaction is handled by Newton's method on the
coupled pair: every iterate is one banded solve for both components
(``banded_operator``, shared with the exponent estimator; only this module
knows how that system is stored), then the fronts move by the Stefan rule
with a second-order one-sided boundary gradient.  Geometry coefficients
are frozen at the step start (velocities lagged one step), a Lie
splitting whose O(dt) error matches backward Euler.

The verification hooks are arguments of ``step`` and ``_march``, not
settings: ``fronts`` prescribes the front motion t -> (g, h, gdot, hdot)
in place of the Stefan rule, and ``sources`` adds source terms
(y, t) -> (S_m, S_n) to the reactions at the interior nodes.  The
solution is held to its admissible band unless sources are given, since
a manufactured solution need not respect it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg import solve_banded

from .model import InitialData, ModelSpec
from .transform import FrontGeometry


class NonFiniteError(ArithmeticError):
    """NaN or Inf appeared in the solution."""


class NoConvergenceError(RuntimeError):
    """Newton iteration hit its iteration cap."""


class BoundViolationError(RuntimeError):
    """Solution left the admissible band by more than clipping noise."""


UNDERSHOOT_TOL = 1e-10  # clip band for negative discretization noise
OVERSHOOT_REL = 1e-8  # allowed relative excess above capacity
NEWTON_TOL = 1e-10  # max-norm change between Newton iterates that ends a step
MAX_NEWTON = 30  # Newton iterates before a step is rejected
BANDS = (2, 2)  # lower and upper bandwidths of banded_operator's matrix


@dataclass(frozen=True)
class FrontState:
    """Solution snapshot in fixed coordinates."""

    t: float
    y: np.ndarray  # J+1 uniform points on [-1, 1]
    m: np.ndarray  # bird density on the y grid
    n: np.ndarray  # mosquito density on the y grid
    geom: FrontGeometry


@dataclass(frozen=True)
class SolverConfig:
    J: int = 400
    dt0: float = 1e-3
    dt_min: float = 1e-8
    dt_max: float = 0.05
    t_end: float = 300.0
    output_times: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.J < 16:
            raise ValueError("J must be >= 16")
        if not (0 < self.dt_min <= self.dt0 <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt0 <= dt_max")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not all(0 <= t < np.inf for t in self.output_times):
            raise ValueError(f"output_times must be finite and nonnegative, got {self.output_times}")
        object.__setattr__(self, "output_times", tuple(self.output_times))


@dataclass
class Trajectory:
    """Per-step summaries plus full snapshots at requested times."""

    t: np.ndarray
    g: np.ndarray
    h: np.ndarray
    gdot: np.ndarray
    hdot: np.ndarray
    sup_m: np.ndarray
    sup_n: np.ndarray
    snapshots: List[FrontState]
    status: str  # completed | blowup | step_floor

    @property
    def width(self) -> np.ndarray:
        return self.h - self.g


def boundary_derivative(state: FrontState, side: str) -> float:
    """Second-order one-sided estimate of m_y at y = +1 ('right') or -1 ('left')."""
    m = state.m
    J = len(m) - 1
    if J < 3:
        raise ValueError("need J >= 3")
    dy = 2.0 / J
    if side == "right":
        return (3.0 * m[J] - 4.0 * m[J - 1] + m[J - 2]) / (2.0 * dy)
    if side == "left":
        return (-3.0 * m[0] + 4.0 * m[1] - m[2]) / (2.0 * dy)
    raise ValueError("side must be 'left' or 'right'")


def interleave(m, n):
    """The vector U_0, V_0, U_1, V_1, ... of ``banded_operator``'s unknowns."""
    u = np.empty(2 * len(m))
    u[0::2], u[1::2] = m, n
    return u


def banded_operator(D1, D2, diff, adv, m11, m12, m21, m22, dt, blocks=1):
    """Backward-Euler matrix of the linear pair in banded form (bandwidths ``BANDS``).

    The unknowns are the interior nodes with the components interleaved
    (``interleave``); Dirichlet ends are not unknowns.  Row j of
    component c (diffusivity D_c) reads

        (1/dt) u_j - D_c*diff*(u_{j-1} - 2u_j + u_{j+1})
            + adv_j*(u_{j+1} - u_{j-1}) - sum_c' m_cc'_j u'_j

    with a scalar diffusion scale ``diff``, and per-node arrays for the
    drift ``adv`` and the reaction entries m_ij.  For ``blocks`` > 1 the
    nodes are that many Dirichlet intervals of equal size, and the matrix
    is block diagonal.
    """
    n = 2 * len(m11)
    ab = np.zeros((5, n))
    ab[2, 0::2] = 1.0 / dt + 2.0 * D1 * diff - m11
    ab[2, 1::2] = 1.0 / dt + 2.0 * D2 * diff - m22
    # same-node component coupling: entries (2k, 2k+1) and (2k+1, 2k)
    ab[1, 1::2] = -m12
    ab[3, 0::2] = -m21
    # nearest neighbours of the same component: entries (i, i+2) and (i, i-2)
    ab[0, 2::2] = adv[:-1] - D1 * diff
    ab[0, 3::2] = adv[:-1] - D2 * diff
    ab[4, 0:-2:2] = -D1 * diff - adv[1:]
    ab[4, 1:-2:2] = -D2 * diff - adv[1:]
    # entries (i-2, i) and (i, i-2) cross a block edge for the first two unknowns i of a block
    size = n // blocks
    ab[0, size::size] = ab[0, size + 1::size] = 0.0
    ab[4, size - 2:-2:size] = ab[4, size - 1:-2:size] = 0.0
    return ab


def _stefan_velocities(mu: float, state: FrontState) -> Tuple[float, float]:
    """(gdot, hdot) by the Stefan rule x' = -mu U_x, with U_x = (2/w) m_y on the state's width."""
    scale = -mu * (2.0 / state.geom.width)
    return scale * boundary_derivative(state, "left"), scale * boundary_derivative(state, "right")


def step(
    spec: ModelSpec,
    state: FrontState,
    dt: float,
    fronts: Optional[Callable] = None,
    sources: Optional[Callable] = None,
) -> FrontState:
    """Advance one implicit step of size dt; raises on failure (see module errors).

    ``fronts`` and ``sources`` are the verification hooks of the module docstring.
    """
    geom = state.geom
    y = state.y
    J = len(y) - 1
    dy = 2.0 / J
    t1 = state.t + dt

    if fronts is not None:
        g1, h1, gd1, hd1 = fronts(t1)
        geom_c = FrontGeometry(g1, h1, gd1, hd1)
    else:
        geom_c = geom
    y_int = y[1:-1]
    Acoef, Bcoef = geom_c.metric_terms(y_int)
    x = geom_c.to_x(y_int)

    a1 = spec.a1.eval(x, t1)
    a2 = spec.a2.eval(x, t1)
    d1 = spec.d1.eval(x, t1)
    d2 = spec.d2.eval(x, t1)
    if sources is not None:
        S1, S2 = sources(y_int, t1)
    else:
        S1 = S2 = 0.0

    # Newton on the pair: each iterate solves K(u_k) u_{k+1} = u_old/dt + S
    # + (a1 m n, a2 m n), where K(u_k) is the backward-Euler matrix with the
    # reaction Jacobian at u_k
    diff = Acoef / (dy * dy)
    adv = Bcoef / (2.0 * dy)
    rhs_m = state.m[1:-1] / dt + S1
    rhs_n = state.n[1:-1] / dt + S2
    u = interleave(state.m[1:-1], state.n[1:-1])
    for _ in range(MAX_NEWTON):
        m, n = u[0::2], u[1::2]
        ab = banded_operator(
            spec.D1, spec.D2, diff, adv,
            -(d1 + a1 * n), a1 * (spec.N1 - m), a2 * (spec.N2 - n), -(d2 + a2 * m),
            dt,
        )
        mn = m * n
        u_next = solve_banded(BANDS, ab, interleave(rhs_m + a1 * mn, rhs_n + a2 * mn))
        if not np.all(np.isfinite(u_next)):
            raise NonFiniteError(f"non-finite values at t={t1}")
        res = float(np.max(np.abs(u_next - u)))
        u = u_next
        if res < NEWTON_TOL:
            break
    else:
        raise NoConvergenceError(f"Newton iteration cap {MAX_NEWTON} hit at t={t1}")

    m_new = np.zeros(J + 1)
    n_new = np.zeros(J + 1)
    m_new[1:-1] = u[0::2]
    n_new[1:-1] = u[1::2]
    if sources is None:
        m_new = _apply_bounds(m_new, spec.N1, t1)
        n_new = _apply_bounds(n_new, spec.N2, t1)

    if fronts is not None:
        geom_new = geom_c
    else:
        gdot, hdot = _stefan_velocities(spec.mu, FrontState(t1, y, m_new, n_new, geom))
        geom_new = FrontGeometry(
            g=geom.g + dt * gdot,
            h=geom.h + dt * hdot,
            gdot=gdot,
            hdot=hdot,
        )
    return FrontState(t1, y, m_new, n_new, geom_new)


def _apply_bounds(u, cap, t):
    lo = float(np.min(u))
    hi = float(np.max(u))
    if hi > cap * (1.0 + OVERSHOOT_REL):
        raise BoundViolationError(f"value {hi:.6g} exceeds capacity {cap:.6g} at t={t}")
    if lo < -UNDERSHOOT_TOL:
        raise BoundViolationError(f"undershoot {lo:.6g} below clip band at t={t}")
    if lo < 0.0:
        u = np.where(u < 0.0, 0.0, u)
    return u


def initial_state(spec: ModelSpec, init: InitialData, cfg: SolverConfig) -> FrontState:
    """Grid the initial data and seed front velocities from the Stefan rule."""
    init.validate(spec)
    y = np.linspace(-1.0, 1.0, cfg.J + 1)
    x = spec.h0 * y
    m = init.u0(x, spec.h0)
    n = init.v0(x, spec.h0)
    m[0] = m[-1] = 0.0
    n[0] = n[-1] = 0.0
    at_rest = FrontGeometry(-spec.h0, spec.h0, 0.0, 0.0)
    gdot, hdot = _stefan_velocities(spec.mu, FrontState(0.0, y, m, n, at_rest))
    return FrontState(0.0, y, m, n, FrontGeometry(-spec.h0, spec.h0, gdot, hdot))


def simulate(spec: ModelSpec, init: InitialData, cfg: SolverConfig) -> Trajectory:
    """Integrate from t=0 to cfg.t_end with adaptive step control.

    Steps halve on rejection and grow by 1.2x after 5 consecutive
    acceptances.  The status records how integration ended; numerical
    failure never raises out of this function.
    """
    state = initial_state(spec, init, cfg)
    return _march(spec, state, cfg)


def _march(
    spec: ModelSpec,
    state: FrontState,
    cfg: SolverConfig,
    fronts: Optional[Callable] = None,
    sources: Optional[Callable] = None,
) -> Trajectory:
    out_times = sorted(t for t in cfg.output_times if t <= cfg.t_end + 1e-12)
    snapshots: List[FrontState] = []
    rows = []  # one (t, g, h, gdot, hdot, sup_m, sup_n) per accepted state, as in Trajectory

    def record(st: FrontState):
        geom = st.geom
        rows.append((st.t, geom.g, geom.h, geom.gdot, geom.hdot,
                     float(np.max(st.m)), float(np.max(st.n))))

    record(state)
    pending = list(out_times)
    while pending and pending[0] <= state.t + 1e-12:
        snapshots.append(state)
        pending.pop(0)

    dt = cfg.dt0
    accepted_run = 0
    status = "completed"
    while state.t < cfg.t_end - 1e-10:
        dt_try = min(dt, cfg.t_end - state.t)
        if pending:
            dt_try = min(dt_try, pending[0] - state.t)
        dt_try = max(dt_try, cfg.dt_min)
        try:
            new_state = step(spec, state, dt_try, fronts, sources)
        except NonFiniteError:
            status = "blowup"
            break
        except (NoConvergenceError, BoundViolationError):
            accepted_run = 0
            dt *= 0.5
            if dt < cfg.dt_min:
                status = "step_floor"
                break
            continue
        state = new_state
        record(state)
        while pending and state.t >= pending[0] - 1e-9:
            snapshots.append(state)
            pending.pop(0)
        accepted_run += 1
        if accepted_run >= 5:
            dt = min(dt * 1.2, cfg.dt_max)
            accepted_run = 0
    return Trajectory(*(np.array(col) for col in zip(*rows)), snapshots=snapshots, status=status)
