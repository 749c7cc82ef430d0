"""Implicit finite-difference time integration of the front-fixed system.

Each step solves the transformed reaction-diffusion pair on y in [-1, 1]
with linearly implicit (Rosenbrock) Euler in time and second-order central
differences in space: one banded solve for both components, with the
reaction Jacobian at the step-start state (``banded_operator``, shared with
the exponent estimator; only this module knows how that system is stored).
That is backward Euler's first Newton iterate from the old state; it solves
backward Euler up to an O(dt^2) residual, so it stays first order in dt
(Hundsdorfer & Verwer 2003, ch. IV).  Then the fronts move by the Stefan
rule with a second-order one-sided boundary gradient.  The solve is the
module's LAPACK kernel, ``factor_banded`` (``gbtrf``) then ``solve_banded``
(``gbtrs``), called directly without scipy's input scans and copies; a
factorisation can serve many right-hand sides.  Geometry coefficients
are frozen at the step start (velocities lagged one step), a Lie
splitting whose O(dt) error matches the time step's.

A coefficient is its temporal factor plus its spatial term, and the
spatial term depends on the step only through the fronts (g, h).  So
``_march`` hands ``step`` one dict, ``terms``, that keeps the rate map of
``LinearizationMatrix.rates`` while (g, h) is unchanged, as on a vanishing run
whose fronts have stalled, and the step evaluates only the temporal
factors, at its float time.  A lone ``step`` starts from an empty dict and
evaluates everything afresh, to the same bits.

Every march starts from a ``Checkpoint``, a state and its step controller;
``simulate`` makes the first one, at ``DT0`` held to [dt_min, dt_max].  A
step is cut short to land on an output time or the horizon; a rejected step
halves the step tried, and dt_min bounds only those halvings.  A run ends
with the checkpoint it stopped at (``Trajectory.end``), from which ``extend``
continues it to a later horizon, bit for bit as if it had not stopped.

The verification hooks are arguments of ``step`` and ``_march``, not
settings: ``fronts`` prescribes the front motion t -> (g, h, gdot, hdot)
in place of the Stefan rule, and ``sources`` adds source terms
(y, t) -> (S_m, S_n) to the reactions at the interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import get_lapack_funcs

from .model import InitialData, ModelSpec
from .transform import FrontGeometry


class NonFiniteError(ArithmeticError):
    """NaN or Inf appeared in the solution."""


class BoundViolationError(ArithmeticError):
    """Solution left the admissible band by more than clipping noise."""


UNDERSHOOT_TOL = 1e-10  # clip band for negative discretization noise
OVERSHOOT_REL = 1e-8  # allowed relative excess above capacity
BANDS = (2, 2)  # lower and upper bandwidths of banded_operator's matrix
TIME_TOL = 1e-9  # a march time within this of an output time or the horizon has landed on it
DT0 = 1e-3  # the first step of a march from t=0, held to [dt_min, dt_max]


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
    dt_min: float = 1e-8
    dt_max: float = 0.05
    t_end: float = 300.0
    output_times: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.J < 16:
            raise ValueError("J must be >= 16")
        if not (0 < self.dt_min <= self.dt_max < np.inf):
            raise ValueError("need 0 < dt_min <= dt_max, both finite")
        if not TIME_TOL < self.t_end < np.inf:  # a horizon within TIME_TOL of 0 is landed on at once
            raise ValueError(f"t_end must be finite and above the landing tolerance TIME_TOL={TIME_TOL:g}")
        if not all(0 <= t < np.inf for t in self.output_times):
            raise ValueError(f"output_times must be finite and nonnegative, got {self.output_times}")
        object.__setattr__(self, "output_times", tuple(self.output_times))


@dataclass(frozen=True)
class Checkpoint:
    """Where a march starts or stops: a state and its step controller."""

    state: FrontState
    dt: float  # the step size the controller tries next
    accepted_run: int = 0  # consecutive acceptances since dt last grew or halved


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
    end: Optional[Checkpoint] = None  # set by the solver's runs

    @property
    def width(self) -> np.ndarray:
        return self.h - self.g


def boundary_derivative(m: np.ndarray, side: str) -> float:
    """Second-order one-sided estimate of m_y at y = +1 ('right') or -1 ('left') from grid values m."""
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


_GBTRF, _GBTRS = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


def factor_banded(ab):
    """LU factors (LAPACK ``gbtrf``) of ``banded_operator``'s matrix, for ``solve_banded``.

    The pivoting fills BANDS[0] more rows above the band, so ``ab`` is copied
    into the last rows of a (2*kl + ku + 1)-row array.  A singular matrix is a
    LinAlgError, as in scipy; there is no finiteness scan.
    """
    kl, ku = BANDS
    lu = np.zeros((2 * kl + ku + 1, ab.shape[1]), order="F")
    lu[kl:] = ab
    lu, piv, info = _GBTRF(lu, kl, ku, overwrite_ab=True)
    if info:
        raise LinAlgError(f"singular banded matrix (gbtrf info={info})")
    return lu, piv


def solve_banded(factors, b):
    """The x with A x = b (LAPACK ``gbtrs``) for ``factors = factor_banded(A)``.

    ``b`` is left unchanged.  With scipy's ``solve_banded(BANDS, ab, b)`` it
    shares its LAPACK calls (``gbsv`` is ``gbtrf`` then ``gbtrs``), so x is
    bit for bit the same; a non-finite b gives a non-finite x, not an error.
    """
    lu, piv = factors
    x, info = _GBTRS(lu, BANDS[0], BANDS[1], b, piv)
    if info:
        raise LinAlgError(f"gbtrs info={info}")
    return x


def _stefan_velocities(mu: float, m: np.ndarray, width: float) -> Tuple[float, float]:
    """(gdot, hdot) by the Stefan rule x' = -mu U_x, with U_x = (2/width) m_y."""
    scale = -mu * (2.0 / width)
    return scale * boundary_derivative(m, "left"), scale * boundary_derivative(m, "right")


def step(
    spec: ModelSpec,
    state: FrontState,
    dt: float,
    fronts: Optional[Callable] = None,
    sources: Optional[Callable] = None,
    terms: Optional[dict] = None,
) -> FrontState:
    """Advance one linearly implicit step of size dt; raises on failure (see module errors).

    ``fronts`` and ``sources`` are the verification hooks of the module docstring.
    ``terms`` is ``_march``'s cache of the rate map, keyed on the fronts (g, h)
    and refilled when they move; without it the map is built afresh.
    """
    geom = state.geom
    y = state.y
    J = len(y) - 1
    dy = 2.0 / J
    t1 = state.t + dt

    geom_c = FrontGeometry(*fronts(t1)) if fronts is not None else geom
    y_int = y[1:-1]
    Acoef, Bcoef = geom_c.metric_terms(y_int)
    key = (geom_c.g, geom_c.h)
    terms = {} if terms is None else terms
    if key not in terms:  # new fronts: the old spatial terms are stale
        terms.clear()
        terms[key] = spec.linearization().rates(geom_c.to_x(y_int))
    a1, a2, d1, d2 = terms[key](t1)
    S1, S2 = sources(y_int, t1) if sources is not None else (0.0, 0.0)

    # linearly implicit Euler, backward Euler's first Newton iterate from the old
    # state: one solve of K(u_old) u = u_old/dt + S + (a1 m n, a2 m n), where
    # K(u_old) is the backward-Euler matrix with the reaction Jacobian at u_old
    m, n = state.m[1:-1], state.n[1:-1]
    ab = banded_operator(
        spec.D1, spec.D2, Acoef / (dy * dy), Bcoef / (2.0 * dy),
        -(d1 + a1 * n), a1 * (spec.N1 - m), a2 * (spec.N2 - n), -(d2 + a2 * m),
        dt,
    )
    mn = m * n
    u = solve_banded(factor_banded(ab), interleave(m / dt + S1 + a1 * mn, n / dt + S2 + a2 * mn))
    if not np.isfinite(u).all():
        raise NonFiniteError(f"non-finite values at t={t1}")

    m_new = np.zeros(J + 1)
    n_new = np.zeros(J + 1)
    m_new[1:-1] = u[0::2]
    n_new[1:-1] = u[1::2]
    m_new = _apply_bounds(m_new, spec.N1, t1)
    n_new = _apply_bounds(n_new, spec.N2, t1)

    if fronts is not None:
        geom_new = geom_c
    else:
        gdot, hdot = _stefan_velocities(spec.mu, m_new, geom.width)
        geom_new = FrontGeometry(
            g=geom.g + dt * gdot,
            h=geom.h + dt * hdot,
            gdot=gdot,
            hdot=hdot,
        )
    return FrontState(t1, y, m_new, n_new, geom_new)


def _apply_bounds(u, cap, t):
    lo = float(u.min())
    hi = float(u.max())
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
    gdot, hdot = _stefan_velocities(spec.mu, m, 2.0 * spec.h0)
    return FrontState(0.0, y, m, n, FrontGeometry(-spec.h0, spec.h0, gdot, hdot))


def simulate(spec: ModelSpec, init: InitialData, cfg: SolverConfig) -> Trajectory:
    """Integrate from t=0 to cfg.t_end with adaptive step control.

    Each step is one linearly implicit Euler step.  A step that leaves the
    admissible band is rejected and the step tried halves; dt grows by 1.2x
    after 5 consecutive acceptances.  The trajectory returned always reaches
    cfg.t_end: a NonFiniteError, or a rejection that takes dt below
    cfg.dt_min (a BoundViolationError), raises instead.
    """
    state = initial_state(spec, init, cfg)
    return _march(spec, Checkpoint(state, min(max(DT0, cfg.dt_min), cfg.dt_max)), cfg)


def extend(spec: ModelSpec, traj: Trajectory, cfg: SolverConfig) -> Trajectory:
    """A run ``traj`` of ``simulate`` or ``extend``, continued to the later cfg.t_end.

    It marches from the checkpoint traj stopped at (``traj.end``); ``cfg`` is
    the run's config with a later horizon T2, and only its output times after
    traj's end time T are landed.  The rows and snapshots of the continuation
    are joined to traj's, without a second row at T.  The result is bit for
    bit the run ``simulate`` makes to T2 with T among its output times, so
    each time unit is integrated once.
    """
    end = traj.end
    later = tuple(t for t in cfg.output_times if t > end.state.t + TIME_TOL)
    more = _march(spec, end, replace(cfg, output_times=later))
    rows = {c: np.concatenate((getattr(traj, c), getattr(more, c)[1:]))
            for c in ("t", "g", "h", "gdot", "hdot", "sup_m", "sup_n")}
    return Trajectory(**rows, snapshots=traj.snapshots + more.snapshots, end=more.end)


def _march(
    spec: ModelSpec,
    start: Checkpoint,
    cfg: SolverConfig,
    fronts: Optional[Callable] = None,
    sources: Optional[Callable] = None,
) -> Trajectory:
    """March ``start`` to cfg.t_end; the start state and each accepted one land the output times reached."""
    pending = sorted(t for t in cfg.output_times if t <= cfg.t_end + TIME_TOL)
    snapshots: List[FrontState] = []
    rows = []  # one (t, g, h, gdot, hdot, sup_m, sup_n) per accepted state, as in Trajectory

    def accept(st: FrontState):
        geom = st.geom
        rows.append((st.t, geom.g, geom.h, geom.gdot, geom.hdot,
                     float(st.m.max()), float(st.n.max())))
        while pending and pending[0] <= st.t + TIME_TOL:
            snapshots.append(st)
            pending.pop(0)

    state, dt, accepted_run = start.state, start.dt, start.accepted_run
    accept(state)
    terms = {}  # step's cache of the rate map while the fronts stand still
    while state.t < cfg.t_end - TIME_TOL:
        dt_try = min(dt, cfg.t_end - state.t)
        if pending:
            dt_try = min(dt_try, pending[0] - state.t)
        try:
            new_state = step(spec, state, dt_try, fronts, sources, terms)
        except BoundViolationError as e:
            accepted_run = 0
            dt = 0.5 * dt_try
            if dt < cfg.dt_min:
                raise type(e)(f"{e}; the step size reached dt_min={cfg.dt_min:g}") from None
            continue
        state = new_state
        accept(state)
        accepted_run += 1
        if accepted_run >= 5:
            dt = min(dt * 1.2, cfg.dt_max)
            accepted_run = 0
    return Trajectory(*(np.array(col) for col in zip(*rows)), snapshots=snapshots,
                      end=Checkpoint(state, dt, accepted_run))
