"""Principal Lyapunov exponent of the linear cooperative system.

Integrates I_t = D I_xx + A(x,t) I on [-L, L] with Dirichlet ends from a
strictly positive profile, renormalizing the sup norm to avoid over/
underflow, and reads the exponent off the accumulated log-growth.  The
sup norm over both components stands in for the abstract operator norm;
any equivalent norm gives the same exponent.  Each step is one solve with
the solver's banded operator, at zero drift and with the Jacobian at zero
as the reaction matrix.  Several spatial shifts of the coefficients are
integrated together as one block-diagonal system, one solve per step for
all of them, and the worst (smallest) of their estimates is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.linalg import solve_banded

from .coefficients import LinearizationMatrix
from .solver import banded_operator

BURN_IN = 0.25  # fraction of the horizon discarded before the slope is read
SAMPLES = 400  # length of the log-norm series kept for the tail regression
RENORM_LO, RENORM_HI = 1e-6, 1e6  # a block is renormalised when its sup norm leaves this range


@dataclass(frozen=True)
class EstimatorConfig:
    J: int = 256
    dt: float = 0.01
    horizon: float = 2000.0
    tol: float = 5e-3  # CI width for the converged flag

    def __post_init__(self):
        if self.J < 2:
            raise ValueError("J must be >= 2")
        if not (self.dt > 0 and self.horizon >= self.dt):
            raise ValueError("need 0 < dt <= horizon")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class LyapunovEstimate:
    lam: float
    renorm_count: int
    tail_slope_ci: Tuple[float, float]
    converged: bool
    positive_cone: bool
    shift: float  # the spatial shift this estimate was integrated at


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
    mat: LinearizationMatrix,
    L: float,
    D,
    cfg: EstimatorConfig = EstimatorConfig(),
    shifts: Sequence[float] = (0.0,),
) -> LyapunovEstimate:
    """Estimate the principal Lyapunov exponent on [-L, L]; the worst over ``shifts``.

    Each shift s is the problem on [-L, L] with the coefficients evaluated
    at x + s.  The shifts are independent, so they are integrated together
    as the blocks of one block-diagonal system: one coefficient evaluation
    and one banded solve per step for all of them.  Renormalisation, the
    positive-cone check and the log-norm series are kept per block, and the
    estimate with the smallest ``lam`` is returned (the first on a tie),
    with the shift it came from.
    Each block's arithmetic is that of a lone shift, so the result equals
    the minimum of the single-shift estimates exactly.
    """
    if not L > 0:
        raise ValueError("L must be positive")
    nb = len(shifts)
    if nb < 1:
        raise ValueError("need at least one shift")
    D1, D2 = float(D[0]), float(D[1])
    J = cfg.J
    dx = 2.0 * L / J
    x_int = -L + dx * np.arange(1, J)
    x_all = np.concatenate([x_int + s for s in shifts])
    inv_dx2 = 1.0 / (dx * dx)
    no_drift = np.zeros(nb * (J - 1))
    n_steps = int(round(cfg.horizon / cfg.dt))
    dt = cfg.horizon / n_steps
    # neighbour entries that couple the last node of a block to the first of
    # the next: (i, i+2) in row 0 and (i+2, i) in row 4 of the banded form
    starts = 2 * (J - 1) * np.arange(1, nb)
    upper_edge = np.concatenate([starts, starts + 1])
    lower_edge = upper_edge - 2

    def operator(t):
        ab = banded_operator(D1, D2, inv_dx2, no_drift, *mat.entries(x_all, t), dt)
        ab[0, upper_edge] = 0.0
        ab[4, lower_edge] = 0.0
        return ab

    # strictly positive start: principal Dirichlet mode in both components
    bump = np.sin(np.pi * (x_int + L) / (2.0 * L))
    u0 = np.empty(2 * (J - 1))
    u0[0::2] = bump
    u0[1::2] = bump
    u0 /= np.max(u0)
    u = np.tile(u0, nb)

    autonomous = mat.is_autonomous
    if autonomous:
        ab = operator(0.0)

    log_acc = np.zeros(nb)
    renorms = np.zeros(nb, dtype=int)
    cone_ok = np.ones(nb, dtype=bool)
    stride = max(1, n_steps // SAMPLES)
    ts: List[float] = [0.0]
    ss: List[np.ndarray] = [np.zeros(nb)]
    t = 0.0
    for k in range(1, n_steps + 1):
        t = k * dt
        if not autonomous:
            ab = operator(t)
        u = solve_banded((2, 2), ab, u / dt)
        if not np.all(np.isfinite(u)):
            raise ArithmeticError(f"non-finite state in exponent integration at t={t}")
        blocks = u.reshape(nb, -1)
        sup = np.max(np.abs(blocks), axis=1)
        for b, s in enumerate(sup.tolist()):
            if s < RENORM_LO or s > RENORM_HI:
                if np.min(blocks[b]) <= 0.0:
                    cone_ok[b] = False
                log_acc[b] += np.log(s)
                blocks[b] /= s
                sup[b] = 1.0
                renorms[b] += 1
        if k % stride == 0 or k == n_steps:
            ts.append(t)
            ss.append(log_acc + np.log(sup))
    cone_ok &= np.min(u.reshape(nb, -1), axis=1) > 0.0

    ts_arr = np.array(ts)
    ss_arr = np.array(ss).T.copy()  # one row per block
    t_burn = BURN_IN * cfg.horizon
    i0 = int(np.searchsorted(ts_arr, t_burn))
    i0 = min(i0, len(ts_arr) - 2)
    lams = (ss_arr[:, -1] - ss_arr[:, i0]) / (ts_arr[-1] - ts_arr[i0])

    b = int(np.argmin(lams))
    ci = _tail_ci(ts_arr, ss_arr[b])
    converged = bool(cone_ok[b] and (ci[1] - ci[0]) < cfg.tol and ci[0] <= lams[b] <= ci[1])
    return LyapunovEstimate(
        lam=float(lams[b]),
        renorm_count=int(renorms[b]),
        tail_slope_ci=ci,
        converged=converged,
        positive_cone=bool(cone_ok[b]),
        shift=float(shifts[b]),
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

