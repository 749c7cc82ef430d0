"""Verification harnesses: manufactured solutions, comparison tests, probe series.

These drivers exercise the solver against independent ground truth:
exact solutions with injected sources for convergence orders, and
ordered initial data for the comparison principle.  ``probe_series``
reads a trajectory at a fixed physical point, for persistence checks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.interpolate import CubicSpline

from .coefficients import CoefficientField
from .model import InitialData, ModelSpec
from .solver import Checkpoint, SolverConfig, Trajectory, initial_state, simulate, _march
from .transform import FrontGeometry

ORDER_TOL = 1e-8  # how far below zero a comparison margin may read and still pass

# The manufactured study's refinement levels and horizon
SPATIAL_J = (24, 48, 96)
TEMPORAL_DT = (0.04, 0.02, 0.01)
J_FINE = 256  # the fixed grid of the temporal study
T_END = 0.5
ORDER_BANDS = {"spatial": (1.9, 2.2), "temporal": (0.9, 1.1)}  # where each study's last order must lie


def _manufactured_spec() -> ModelSpec:
    """Constant-coefficient model used as the carrier for manufactured runs."""
    return ModelSpec(
        D1=1.0,
        D2=0.5,
        N1=2.0,
        N2=2.0,
        beta=1.0,
        alpha1=CoefficientField(0.4),  # a1 = 0.2
        alpha2=CoefficientField(0.4),
        gamma=CoefficientField(0.1),
        death=CoefficientField(0.1),
        mu=0.1,  # unused: fronts prescribed
        h0=1.0,
    )


_FRONT_SPEED = 0.1


def _fronts(t: float):
    return (-1.0 - _FRONT_SPEED * t, 1.0 + _FRONT_SPEED * t, -_FRONT_SPEED, _FRONT_SPEED)


def _exact(y, t):
    """m*(y,t) = n*(y,t) = e^{-t} cos(pi y / 2): Dirichlet-compatible by construction."""
    return np.exp(-t) * np.cos(0.5 * np.pi * np.asarray(y, dtype=float))


def _manufactured_sources(spec: ModelSpec):
    half_pi = 0.5 * np.pi

    def sources(y, t):
        g, h, gd, hd = _fronts(t)
        geom = FrontGeometry(g, h, gd, hd)
        Acoef, Bcoef = geom.metric_terms(y)
        x = geom.to_x(y)
        mstar = _exact(y, t)
        m_t = -mstar
        m_yy = -half_pi * half_pi * mstar
        m_y = -half_pi * np.exp(-t) * np.sin(half_pi * np.asarray(y, dtype=float))
        f1, f2 = spec.reaction(x, t, mstar, mstar)
        S1 = m_t - spec.D1 * Acoef * m_yy + Bcoef * m_y - f1
        S2 = m_t - spec.D2 * Acoef * m_yy + Bcoef * m_y - f2
        return S1, S2

    return sources


def _run_manufactured(J: int, dt: float, t_end: float) -> float:
    """Sup-norm error of the numerical solution against the exact one at t_end."""
    spec = _manufactured_spec()
    cfg = SolverConfig(J=J, dt_min=dt, dt_max=dt, t_end=t_end, output_times=(t_end,))
    # the unit cosine bump on h0 = 1 is _exact(y, 0) at the interior nodes, all that the step reads
    state0 = initial_state(spec, InitialData(amp_U=1.0, amp_V=1.0), cfg)
    traj = _march(spec, Checkpoint(state0, dt), cfg, fronts=_fronts, sources=_manufactured_sources(spec))
    final = traj.snapshots[-1]
    exact = _exact(final.y, final.t)
    return max(
        float(np.max(np.abs(final.m - exact))),
        float(np.max(np.abs(final.n - exact))),
    )


def manufactured_convergence() -> List[Dict[str, float]]:
    """Convergence table on the manufactured solution with prescribed fronts, at T_END.

    Spatial study refines J over SPATIAL_J with dt proportional to dy^2 so
    the O(dt) time error tracks the O(dy^2) space error; temporal study
    halves dt over TEMPORAL_DT on the fixed grid J_FINE.  Each level after a
    study's first carries its observed order, the log of the error ratio
    over the log of the refinement ratio (of dy spatially, of dt temporally).
    """
    studies = {  # (J, dt, the mesh size refined) per level
        "spatial": [(J, 0.2 * (2.0 / J) * (2.0 / J), 2.0 / J) for J in SPATIAL_J],
        "temporal": [(J_FINE, dt, dt) for dt in TEMPORAL_DT],
    }
    rows: List[Dict[str, float]] = []
    for study, levels in studies.items():
        prev = None
        for J, dt, size in levels:
            err = _run_manufactured(J, dt, T_END)
            order = np.nan if prev is None else np.log(prev[0] / err) / np.log(prev[1] / size)
            rows.append({"study": study, "J": J, "dt": dt, "error": err, "order": order})
            prev = err, size
    return rows


def observed_orders(rows: Sequence[Dict[str, float]], study: str) -> List[float]:
    return [r["order"] for r in rows if r["study"] == study and np.isfinite(r["order"])]


def comparison_suite(
    spec: ModelSpec, init_lo: InitialData, init_hi: InitialData, cfg: SolverConfig
) -> Dict[str, object]:
    """Run an ordered pair of initial data and check field and front ordering.

    Fields are compared on the lower run's physical points via cubic
    interpolation of the upper run; fronts compare at every accepted
    step (fixed-dt configs keep the two runs in lockstep).  A margin
    passes down to -ORDER_TOL.
    """
    traj_lo = simulate(spec, init_lo, cfg)
    traj_hi = simulate(spec, init_hi, cfg)
    n = min(len(traj_lo.t), len(traj_hi.t))
    front_margin = min(
        float(np.min(traj_hi.h[:n] - traj_lo.h[:n])),
        float(np.min(traj_lo.g[:n] - traj_hi.g[:n])),
    )
    field_margin = np.inf
    for st_lo, st_hi in zip(traj_lo.snapshots, traj_hi.snapshots):
        x_lo = st_lo.geom.to_x(st_lo.y)
        x_hi = st_hi.geom.to_x(st_hi.y)
        for lo_vals, hi_vals in ((st_lo.m, st_hi.m), (st_lo.n, st_hi.n)):
            hi_interp = CubicSpline(x_hi, hi_vals)(x_lo)
            field_margin = min(field_margin, float(np.min(hi_interp - lo_vals)))
    return {
        "passed": front_margin >= -ORDER_TOL and field_margin >= -ORDER_TOL,
        "front_margin": front_margin,
        "field_margin": float(field_margin),
    }


def probe_series(traj: Trajectory, x_probe: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, U, V) at a fixed physical point, from the trajectory snapshots."""
    ts, us, vs = [], [], []
    for st in traj.snapshots:
        if st.geom.g < x_probe < st.geom.h:
            y = st.geom.to_y(x_probe)
            ts.append(st.t)
            us.append(float(np.interp(y, st.y, st.m)))
            vs.append(float(np.interp(y, st.y, st.n)))
    return np.array(ts), np.array(us), np.array(vs)
