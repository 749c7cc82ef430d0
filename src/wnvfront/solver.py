"""Implicit finite-difference time integration of the front-fixed system.

Each step solves the transformed reaction-diffusion pair on y in [-1, 1]
with backward Euler in time and second-order central differences in
space.  The bilinear reaction is linearized by lagging the cross
variable, giving one tridiagonal solve per component per fixed-point
iteration; the two fronts then move by the Stefan rule with a
second-order one-sided boundary gradient.  Geometry coefficients are
frozen at the step start (velocities lagged one step), a Lie splitting
whose O(dt) error matches backward Euler.
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
    """Fixed-point correction loop hit its iteration cap."""


class BoundViolationError(RuntimeError):
    """Solution left the admissible band by more than clipping noise."""


UNDERSHOOT_TOL = 1e-10  # clip band for negative discretization noise
OVERSHOOT_REL = 1e-8  # allowed relative excess above capacity


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
    newton_tol: float = 1e-10
    max_newton: int = 30
    output_times: Tuple[float, ...] = ()
    bound_mode: str = "clip_tiny"  # or "reject_step"
    enforce_bounds: bool = True  # off for manufactured-solution runs with sources
    # verification hooks: prescribed front motion t -> (g, h, gdot, hdot),
    # and extra source terms (y, t) -> (S_m, S_n) added to the reactions
    prescribed_fronts: Optional[Callable] = None
    sources: Optional[Callable] = None

    def __post_init__(self):
        if self.J < 16:
            raise ValueError("J must be >= 16")
        if not (0 < self.dt_min <= self.dt0 <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt0 <= dt_max")
        if self.bound_mode not in ("clip_tiny", "reject_step"):
            raise ValueError(f"unknown bound_mode {self.bound_mode!r}")
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
    mass_m: np.ndarray
    mass_n: np.ndarray
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


def _solve_tridiag(D, Acoef, Bcoef, dy, dt, absorb, rhs):
    """Solve one implicit component row: Dirichlet ends, interior

    (1/dt + absorb_j) u_j - D*Acoef*(u_{j-1}-2u_j+u_{j+1})/dy^2
        + Bcoef_j*(u_{j+1}-u_{j-1})/(2 dy) = rhs_j
    """
    n = len(rhs)
    diff = D * Acoef / (dy * dy)
    adv = Bcoef / (2.0 * dy)
    lower = -diff - adv  # coefficient of u_{j-1}
    diag = 1.0 / dt + 2.0 * diff + absorb
    upper = -diff + adv  # coefficient of u_{j+1}
    ab = np.zeros((3, n))
    ab[1, :] = diag
    ab[0, 1:] = upper[:-1] if np.ndim(upper) else upper
    ab[2, :-1] = lower[1:] if np.ndim(lower) else lower
    # Dirichlet rows
    ab[1, 0] = ab[1, -1] = 1.0
    ab[0, 1] = 0.0
    ab[2, -2] = 0.0
    b = np.array(rhs, dtype=float)
    b[0] = 0.0
    b[-1] = 0.0
    u = solve_banded((1, 1), ab, b)
    # pivoting can leave roundoff on the identity rows; pin the ends exactly
    u[0] = 0.0
    u[-1] = 0.0
    return u


def step(spec: ModelSpec, state: FrontState, dt: float, cfg: SolverConfig) -> FrontState:
    """Advance one implicit step of size dt; raises on failure (see module errors)."""
    geom = state.geom
    y = state.y
    J = len(y) - 1
    dy = 2.0 / J
    t1 = state.t + dt

    if cfg.prescribed_fronts is not None:
        g1, h1, gd1, hd1 = cfg.prescribed_fronts(t1)
        geom_c = FrontGeometry(g1, h1, gd1, hd1)
    else:
        geom_c = geom
    Acoef, Bcoef = geom_c.metric_terms(y)
    Bcoef = np.broadcast_to(np.asarray(Bcoef, dtype=float), y.shape)
    x = geom_c.to_x(y)

    a1 = spec.a1.eval(x, t1)
    a2 = spec.a2.eval(x, t1)
    d1 = spec.d1.eval(x, t1)
    d2 = spec.d2.eval(x, t1)
    if cfg.sources is not None:
        S1, S2 = cfg.sources(y, t1)
    else:
        S1 = S2 = 0.0

    m_old, n_old = state.m, state.n
    m_new = m_old.copy()
    n_new = n_old.copy()
    converged = False
    for _ in range(cfg.max_newton):
        m_prev, n_prev = m_new, n_new
        m_new = _solve_tridiag(
            spec.D1, Acoef, Bcoef, dy, dt,
            d1 + a1 * n_prev,
            m_old / dt + a1 * spec.N1 * n_prev + S1,
        )
        n_new = _solve_tridiag(
            spec.D2, Acoef, Bcoef, dy, dt,
            d2 + a2 * m_prev,
            n_old / dt + a2 * spec.N2 * m_prev + S2,
        )
        if not (np.all(np.isfinite(m_new)) and np.all(np.isfinite(n_new))):
            raise NonFiniteError(f"non-finite values at t={t1}")
        res = max(
            float(np.max(np.abs(m_new - m_prev))),
            float(np.max(np.abs(n_new - n_prev))),
        )
        if res < cfg.newton_tol:
            converged = True
            break
    if not converged:
        raise NoConvergenceError(f"correction loop cap {cfg.max_newton} hit at t={t1}")

    if cfg.enforce_bounds:
        m_new = _apply_bounds(m_new, spec.N1, cfg.bound_mode, t1)
        n_new = _apply_bounds(n_new, spec.N2, cfg.bound_mode, t1)

    if cfg.prescribed_fronts is not None:
        geom_new = geom_c
    else:
        w = geom.width
        tmp = FrontState(t1, y, m_new, n_new, geom)
        my_r = boundary_derivative(tmp, "right")
        my_l = boundary_derivative(tmp, "left")
        hdot = -spec.mu * (2.0 / w) * my_r
        gdot = -spec.mu * (2.0 / w) * my_l
        geom_new = FrontGeometry(
            g=geom.g + dt * gdot,
            h=geom.h + dt * hdot,
            gdot=gdot,
            hdot=hdot,
        )
    return FrontState(t1, y, m_new, n_new, geom_new)


def _apply_bounds(u, cap, bound_mode, t):
    lo = float(np.min(u))
    hi = float(np.max(u))
    if hi > cap * (1.0 + OVERSHOOT_REL):
        raise BoundViolationError(f"value {hi:.6g} exceeds capacity {cap:.6g} at t={t}")
    if lo < -UNDERSHOOT_TOL:
        raise BoundViolationError(f"undershoot {lo:.6g} below clip band at t={t}")
    if lo < 0.0:
        if bound_mode == "reject_step":
            raise BoundViolationError(f"undershoot {lo:.6g} rejected at t={t}")
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
    geom0 = FrontGeometry(-spec.h0, spec.h0, 0.0, 0.0)
    tmp = FrontState(0.0, y, m, n, geom0)
    w = geom0.width
    hdot = -spec.mu * (2.0 / w) * boundary_derivative(tmp, "right")
    gdot = -spec.mu * (2.0 / w) * boundary_derivative(tmp, "left")
    return FrontState(0.0, y, m, n, FrontGeometry(-spec.h0, spec.h0, gdot, hdot))


def simulate(spec: ModelSpec, init: InitialData, cfg: SolverConfig) -> Trajectory:
    """Integrate from t=0 to cfg.t_end with adaptive step control.

    Steps halve on rejection and grow by 1.2x after 5 consecutive
    acceptances.  The status records how integration ended; numerical
    failure never raises out of this function.
    """
    state = initial_state(spec, init, cfg)
    return _march(spec, state, cfg)


def _march(spec: ModelSpec, state: FrontState, cfg: SolverConfig) -> Trajectory:
    dy = 2.0 / cfg.J
    out_times = sorted(t for t in cfg.output_times if t <= cfg.t_end + 1e-12)
    snapshots: List[FrontState] = []
    rows = {k: [] for k in ("t", "g", "h", "gdot", "hdot", "sup_m", "sup_n", "mass_m", "mass_n")}

    def record(st: FrontState):
        rows["t"].append(st.t)
        rows["g"].append(st.geom.g)
        rows["h"].append(st.geom.h)
        rows["gdot"].append(st.geom.gdot)
        rows["hdot"].append(st.geom.hdot)
        rows["sup_m"].append(float(np.max(st.m)))
        rows["sup_n"].append(float(np.max(st.n)))
        half_w = 0.5 * st.geom.width
        rows["mass_m"].append(float(np.trapezoid(st.m, dx=dy)) * half_w)
        rows["mass_n"].append(float(np.trapezoid(st.n, dx=dy)) * half_w)

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
            new_state = step(spec, state, dt_try, cfg)
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
    return Trajectory(
        t=np.array(rows["t"]),
        g=np.array(rows["g"]),
        h=np.array(rows["h"]),
        gdot=np.array(rows["gdot"]),
        hdot=np.array(rows["hdot"]),
        sup_m=np.array(rows["sup_m"]),
        sup_n=np.array(rows["sup_n"]),
        mass_m=np.array(rows["mass_m"]),
        mass_n=np.array(rows["mass_n"]),
        snapshots=snapshots,
        status=status,
    )
