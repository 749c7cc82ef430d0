"""Principal Lyapunov exponent of the linear cooperative system.

Integrates I_t = D I_xx + A(x,t) I on [-L, L] with Dirichlet ends from a
strictly positive profile, renormalizing the sup norm to avoid over/
underflow, and reads the exponent off the accumulated log-growth.  The
sup norm over both components stands in for the abstract operator norm;
any equivalent norm gives the same exponent.  Each step is one solve with
the solver's banded operator, at zero drift and with the Jacobian at zero
as the reaction matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.linalg import solve_banded

from .coefficients import LinearizationMatrix
from .solver import banded_operator


@dataclass(frozen=True)
class EstimatorConfig:
    J: int = 256
    dt: float = 0.01
    horizon: float = 2000.0
    renorm_lo: float = 1e-6
    renorm_hi: float = 1e6
    tol: float = 5e-3  # CI width for the converged flag
    burn_in: float = 0.25  # fraction of horizon discarded before slope accumulation
    samples: int = 400  # log-norm series length kept for the tail regression


@dataclass(frozen=True)
class LyapunovEstimate:
    lam: float
    horizon: float
    renorm_count: int
    tail_slope_ci: Tuple[float, float]
    converged: bool
    positive_cone: bool = True


def lyapunov_constant_oracle(A0, L: float, D) -> float:
    """Closed-form exponent for a constant cooperative matrix.

    The principal Dirichlet mode sin(pi (x+L)/(2L)) reduces the PDE to
    the 2x2 system with matrix M = A0 - (pi/(2L))^2 diag(D); the
    exponent is M's larger eigenvalue.
    """
    A0 = np.asarray(A0, dtype=float)
    if A0[0, 1] < 0 or A0[1, 0] < 0:
        raise ValueError("oracle requires cooperative off-diagonals")
    k = (np.pi / (2.0 * L)) ** 2
    M = A0 - k * np.diag(np.asarray(D, dtype=float))
    half_tr = 0.5 * (M[0, 0] + M[1, 1])
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return float(half_tr + np.sqrt(max(half_tr * half_tr - det, 0.0)))


def lyapunov_exponent(
    mat: LinearizationMatrix, L: float, D, cfg: EstimatorConfig = EstimatorConfig()
) -> LyapunovEstimate:
    """Estimate the principal Lyapunov exponent on [-L, L]."""
    if not L > 0:
        raise ValueError("L must be positive")
    D1, D2 = float(D[0]), float(D[1])
    J = cfg.J
    dx = 2.0 * L / J
    x_int = -L + dx * np.arange(1, J)
    inv_dx2 = 1.0 / (dx * dx)
    no_drift = np.zeros(J - 1)
    n_steps = int(round(cfg.horizon / cfg.dt))
    dt = cfg.horizon / n_steps

    # strictly positive start: principal Dirichlet mode in both components
    bump = np.sin(np.pi * (x_int + L) / (2.0 * L))
    u = np.empty(2 * (J - 1))
    u[0::2] = bump
    u[1::2] = bump
    u /= np.max(u)

    autonomous = mat.is_autonomous
    if autonomous:
        ab = banded_operator(D1, D2, inv_dx2, no_drift, *mat.entries(x_int, 0.0), dt)

    log_acc = 0.0
    renorms = 0
    cone_ok = True
    stride = max(1, n_steps // cfg.samples)
    ts: List[float] = [0.0]
    ss: List[float] = [0.0]
    t = 0.0
    for k in range(1, n_steps + 1):
        t = k * dt
        if not autonomous:
            ab = banded_operator(D1, D2, inv_dx2, no_drift, *mat.entries(x_int, t), dt)
        u = solve_banded((2, 2), ab, u / dt)
        if not np.all(np.isfinite(u)):
            raise ArithmeticError(f"non-finite state in exponent integration at t={t}")
        sup = float(np.max(np.abs(u)))
        if sup < cfg.renorm_lo or sup > cfg.renorm_hi:
            if np.min(u) <= 0.0:
                cone_ok = False
            log_acc += np.log(sup)
            u = u / sup
            sup = 1.0
            renorms += 1
        if k % stride == 0 or k == n_steps:
            ts.append(t)
            ss.append(log_acc + np.log(sup))
    if np.min(u) <= 0.0:
        cone_ok = False

    ts_arr = np.array(ts)
    ss_arr = np.array(ss)
    t_burn = cfg.burn_in * cfg.horizon
    i0 = int(np.searchsorted(ts_arr, t_burn))
    i0 = min(i0, len(ts_arr) - 2)
    lam = (ss_arr[-1] - ss_arr[i0]) / (ts_arr[-1] - ts_arr[i0])

    ci = _tail_ci(ts_arr, ss_arr)
    converged = bool(cone_ok and (ci[1] - ci[0]) < cfg.tol and ci[0] <= lam <= ci[1])
    return LyapunovEstimate(
        lam=float(lam),
        horizon=cfg.horizon,
        renorm_count=renorms,
        tail_slope_ci=ci,
        converged=converged,
        positive_cone=cone_ok,
    )


def _tail_ci(ts, ss, tail_frac=0.25, n_windows=8) -> Tuple[float, float]:
    """Envelope of per-window slopes over the trailing fraction of the series."""
    n = len(ts)
    i0 = int((1.0 - tail_frac) * n)
    ts_t, ss_t = ts[i0:], ss[i0:]
    edges = np.linspace(0, len(ts_t), n_windows + 1).astype(int)
    slopes = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 2:
            continue
        slopes.append(np.polyfit(ts_t[a:b], ss_t[a:b], 1)[0])
    if not slopes:
        return (float("-inf"), float("inf"))
    return (float(np.min(slopes)), float(np.max(slopes)))


@dataclass
class SweepResult:
    entries: List[Tuple[float, LyapunovEstimate]]
    violations: List[Tuple[float, float, float]]  # (L_prev, L_next, decrease)


def lambda_sweep(
    mat: LinearizationMatrix, D, L_list: Sequence[float], cfg: EstimatorConfig = EstimatorConfig()
) -> SweepResult:
    """Estimate the exponent at each L; flag decreases beyond combined CI widths."""
    Ls = list(L_list)
    if any(b <= a for a, b in zip(Ls, Ls[1:])):
        raise ValueError("L_list must be sorted ascending")
    entries = [(L, lyapunov_exponent(mat, L, D, cfg)) for L in Ls]
    violations = []
    for (L1, e1), (L2, e2) in zip(entries, entries[1:]):
        slack = (e1.tail_slope_ci[1] - e1.tail_slope_ci[0]) + (
            e2.tail_slope_ci[1] - e2.tail_slope_ci[0]
        )
        if e2.lam < e1.lam - slack:
            violations.append((L1, L2, e1.lam - e2.lam))
    return SweepResult(entries=entries, violations=violations)

