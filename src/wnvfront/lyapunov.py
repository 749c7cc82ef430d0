"""Principal Lyapunov exponent of the linear cooperative system.

Integrates I_t = D I_xx + A(x,t) I on [-L, L] with Dirichlet ends from a
strictly positive profile, one solve of the solver's banded operator per
step (no drift, the Jacobian at zero as the reaction matrix), renormalising
the sup norm against over/underflow.  The spatial terms of the coefficients
are evaluated once per estimate.  An autonomous matrix is factored once
(LAPACK ``gbtrf``) and each step is one ``gbtrs`` solve; any other matrix is
rebuilt and factored at every step.  ``lam`` is the mean growth rate of
log(sum of I) over [T/4, T], weighted by the bump exp(-1/(tau (1 - tau))):
for quasi-periodic forcing it converges faster than any power of 1/T (Das,
Sander, Yorke et al., Nonlinearity 30, 2017).  It is read at the checkpoints
T = 25, 50, 100, ... below the horizon and at the horizon, a cap.  ``err``
is ERR_FACTOR times the larger of two changes of ``lam``: since the previous
checkpoint, and when the window shrinks to [T/4, 5T/8].  An estimate is
decided at its first checkpoint with err < tol.  Several spatial shifts are
integrated together as the blocks of one block-diagonal system.

A search that needs only the sign of the worst exponent (``find_L_star``)
asks for sign mode: an estimate then also stops at the first checkpoint
whose error bars fix that sign, a block in the positive cone with
lam + err < 0, or every block in the cone with lam - err > 0.  Until then
it is the estimate of the tol rule, to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .coefficients import LinearizationMatrix
from .solver import NonFiniteError, banded_operator, factor_banded, interleave, solve_banded

FIRST_CHECKPOINT = 25.0  # checkpoints at FIRST_CHECKPOINT * 2**k below the horizon, then the horizon
BURN_IN = 0.25  # the averaging window at checkpoint T is [BURN_IN * T, T]
SHORT_END = 0.625  # the shortened window for the error bar ends at SHORT_END * T
ERR_FACTOR = 3.0  # the error bar over the larger of its two changes
RENORM_LO, RENORM_HI = 1e-6, 1e6  # a block is renormalised when its sup norm leaves this range


@dataclass(frozen=True)
class EstimatorConfig:
    J: int = 256
    dt: float = 0.01
    horizon: float = 2000.0  # cap on the integrated time
    tol: float = 5e-3  # an estimate is decided once its error bar is below tol

    def __post_init__(self):
        if self.J < 2:
            raise ValueError("J must be >= 2")
        if not 0 < self.dt <= self.horizon < np.inf:
            raise ValueError("need 0 < dt <= horizon, both finite")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class LyapunovEstimate:
    lam: float
    renorm_count: int
    err: float  # error bar on lam; inf at the first checkpoint
    converged: bool  # decided (err < tol, or in sign mode a sign fixed) with the positive cone kept
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
    *,
    sign_only: bool = False,
) -> LyapunovEstimate:
    """Estimate the principal Lyapunov exponent on [-L, L]; the worst over ``shifts``.

    Each shift s is the problem with the coefficients evaluated at x + s, and
    one block (a row of the state) of one block-diagonal system: one banded
    solve per step for all of them, after one evaluation of the temporal
    factors and one factorisation unless the matrix is autonomous.  A
    block's lam, err, renorm count and cone flag are frozen at the checkpoint
    that decides it, and the call returns once every block is decided.  The
    smallest ``lam`` is returned (the first on a tie) with its shift; each
    block's arithmetic is that of a lone shift, so it equals the minimum of
    the single-shift estimates exactly.

    With ``sign_only`` the call also returns, converged, at the first
    checkpoint whose error bars fix the sign of the worst exponent, with the
    block that ``_sign_block`` names.
    """
    if not 0 < L < np.inf:
        raise ValueError("L must be positive and finite")
    nb = len(shifts)
    if nb < 1:
        raise ValueError("need at least one shift")
    D1, D2 = float(D[0]), float(D[1])
    J, dt = cfg.J, cfg.dt
    dx = 2.0 * L / J
    x_int = -L + dx * np.arange(1, J)
    x_all = np.concatenate([x_int + s for s in shifts])
    inv_dx2 = 1.0 / (dx * dx)
    no_drift = np.zeros(nb * (J - 1))
    entries = mat.evaluator(x_all)

    def operator(t):
        return banded_operator(D1, D2, inv_dx2, no_drift, *entries(t), dt, blocks=nb)

    # step counts of the checkpoints; the schedule below the horizon does not depend on it
    n_cap = int(round(cfg.horizon / dt))
    T, ends = FIRST_CHECKPOINT, set()
    while T < cfg.horizon:
        ends.add(int(round(T / dt)))
        T *= 2.0
    ends = sorted(n for n in ends if 0 < n < n_cap) + [n_cap]

    # strictly positive start: principal Dirichlet mode in both components
    bump = np.sin(np.pi * (x_int + L) / (2.0 * L))
    u = np.tile(interleave(bump, bump) / np.max(bump), (nb, 1))  # one row per block

    autonomous = mat.is_autonomous
    if autonomous:
        factors = factor_banded(operator(0.0))

    log_acc = np.zeros(nb)
    renorms = np.zeros(nb, dtype=int)
    cone_ok = np.ones(nb, dtype=bool)
    s = np.empty((nb, n_cap + 1))  # log of the sum of each block's state, every step
    s[:, 0] = np.log(np.sum(u, axis=1))
    lam, err = np.full(nb, np.inf), np.full(nb, np.inf)  # per block, at its last checkpoint
    decided = np.zeros(nb, dtype=bool)
    signed = None  # in sign mode, the block that fixed the sign
    for k in range(1, n_cap + 1):
        t = k * dt
        if not autonomous:
            factors = factor_banded(operator(t))
        # the solve scans nothing: a non-finite state is the NonFiniteError below
        u = solve_banded(factors, u.ravel() / dt).reshape(nb, -1)
        if not np.all(np.isfinite(u)):
            raise NonFiniteError(f"non-finite state in exponent integration at t={t}")
        sup = np.max(np.abs(u), axis=1)
        out = (sup < RENORM_LO) | (sup > RENORM_HI)  # the blocks to renormalise
        if out.any():
            counted = out & ~decided  # a decided block's renorm count and cone flag are frozen
            cone_ok[counted] &= np.min(u[counted], axis=1) > 0.0
            renorms += counted
            log_acc[out] += np.log(sup[out])
            u[out] /= sup[out, None]
        s[:, k] = log_acc + np.log(np.sum(u, axis=1))
        if k != ends[0]:
            continue
        ends.pop(0)
        i0 = int(BURN_IN * k)
        new = _bump_mean(s, dt, i0, k)
        short = _bump_mean(s, dt, i0, max(i0 + 1, int(SHORT_END * k)))
        change = np.maximum(np.abs(new - lam), np.abs(new - short))
        open_ = ~decided
        lam[open_], err[open_] = new[open_], ERR_FACTOR * change[open_]
        cone_ok[open_] &= np.min(u[open_], axis=1) > 0.0
        decided |= err < cfg.tol
        if sign_only:
            signed = _sign_block(lam, err, cone_ok)
            if signed is not None:
                break
        if decided.all():
            break

    b = int(np.argmin(lam)) if signed is None else signed
    return LyapunovEstimate(
        lam=float(lam[b]),
        renorm_count=int(renorms[b]),
        err=float(err[b]),
        converged=signed is not None or bool(decided[b] and cone_ok[b]),
        positive_cone=bool(cone_ok[b]),
        shift=float(shifts[b]),
    )


def _sign_block(lam: np.ndarray, err: np.ndarray, cone_ok: np.ndarray) -> Optional[int]:
    """The block whose error bar fixes the sign of the smallest lam, or None while it is open.

    A block in the positive cone with lam + err < 0 makes the worst exponent
    negative: the smallest such lam is returned.  Every block in the cone
    with lam - err > 0 makes it positive: the smallest lam is returned.  An
    infinite err (the first checkpoint) fixes nothing.
    """
    negative = cone_ok & (lam + err < 0.0)
    if negative.any():
        return int(np.argmin(np.where(negative, lam, np.inf)))
    if np.all(cone_ok & (lam - err > 0.0)):
        return int(np.argmin(lam))
    return None


def _bump_mean(s: np.ndarray, dt: float, i0: int, i1: int) -> np.ndarray:
    """Per row of s, the bump-weighted mean growth rate over steps i0 to i1."""
    tau = (np.arange(i1 - i0) + 0.5) / (i1 - i0)  # step midpoints on the window
    w = np.exp(-1.0 / (tau * (1.0 - tau)))
    return np.sum(w * np.diff(s[:, i0:i1 + 1], axis=1), axis=1) / (dt * np.sum(w))


def checked_L_list(L_list: Sequence[float]) -> Tuple[float, ...]:
    """L_list as a tuple; a ValueError unless it is finite, positive and strictly increasing."""
    Ls = tuple(L_list)
    if not all(a < b for a, b in zip((0.0,) + Ls, Ls + (np.inf,))):
        raise ValueError(f"half-widths must be finite, positive and increasing, got {Ls}")
    return Ls


@dataclass
class SweepResult:
    entries: List[Tuple[float, LyapunovEstimate]]
    violations: List[Tuple[float, float, float]]  # (L_prev, L_next, decrease)


def lambda_sweep(
    mat: LinearizationMatrix, D, L_list: Sequence[float], cfg: EstimatorConfig = EstimatorConfig()
) -> SweepResult:
    """Estimate the exponent at each L; flag decreases beyond the two error bars."""
    entries = [(L, lyapunov_exponent(mat, L, D, cfg)) for L in checked_L_list(L_list)]
    violations = []
    for (L1, e1), (L2, e2) in zip(entries, entries[1:]):
        if e2.lam < e1.lam - (e1.err + e2.err):
            violations.append((L1, L2, e1.lam - e2.lam))
    return SweepResult(entries=entries, violations=violations)

