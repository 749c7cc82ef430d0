"""Critical half-width and expansion-rate thresholds, plus trajectory classification.

The spreading/vanishing verdicts are finite-horizon surrogates for the
asymptotic dichotomy: vanishing means the densities have dropped below
an extinction floor with a stalled front, spreading means the infected
width has cleared twice the critical half-width with persistent
densities.  Anything else is Undetermined, a first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Dict, List, Sequence, Tuple

import numpy as np

from .coefficients import LinearizationMatrix
from .lyapunov import EstimatorConfig, lyapunov_exponent
from .model import InitialData, ModelSpec
from .solver import SolverConfig, Trajectory, extend, simulate

DEFAULT_SHIFTS = (-20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 20.0)

# The evidence rules of ``classify``
EXTINCTION_EPS = 1e-6
WIDTH_SLOPE_EPS = 1e-4
WINDOW_FRAC = 0.2  # trailing fraction of the horizon used as evidence
SPREADING_MARGIN = 0.5  # added to 2*L_star for the spreading width bar

MAX_ITER = 40  # iteration cap of the bisection, for L* and mu* alike


class BadBracketError(ValueError):
    """The supplied bracket does not straddle the threshold."""


class NotConvergedError(RuntimeError):
    """Search aborted without meeting its stopping rule."""


@dataclass(frozen=True)
class Classification:
    verdict: str  # Spreading | Vanishing | Undetermined
    evidence: Dict[str, float]


def checked_L_star(L_star: float) -> float:
    """L_star itself; a ValueError unless it is positive and finite."""
    if not 0 < L_star < np.inf:
        raise ValueError(f"L_star must be positive and finite, got {L_star}")
    return L_star


def classify(traj: Trajectory, L_star: float) -> Classification:
    """Classify a completed trajectory against the finite-horizon evidence rules."""
    checked_L_star(L_star)
    t = traj.t
    span = t[-1] - t[0]
    tail = t >= t[-1] - WINDOW_FRAC * span
    if np.count_nonzero(tail) < 2:
        tail = np.ones_like(t, dtype=bool)

    width = traj.width
    floor_tail = float(np.min(np.minimum(traj.sup_m, traj.sup_n)[tail]))
    width_slope = float(np.polyfit(t[tail], width[tail], 1)[0])
    evidence = {
        "final_width": float(width[-1]),
        "final_sup_U": float(traj.sup_m[-1]),
        "final_sup_V": float(traj.sup_n[-1]),
        "width_slope": width_slope,
        "tail_norm_floor": floor_tail,
        "max_width": float(np.max(width)),
        "width_bar": 2.0 * L_star + SPREADING_MARGIN,
    }
    final_norm = max(evidence["final_sup_U"], evidence["final_sup_V"])
    if final_norm < EXTINCTION_EPS and width_slope < WIDTH_SLOPE_EPS:
        return Classification("Vanishing", evidence)
    if evidence["max_width"] > evidence["width_bar"] and floor_tail > EXTINCTION_EPS:
        return Classification("Spreading", evidence)
    return Classification("Undetermined", evidence)


def _bisect(above: Callable[[float], bool], lo: float, hi: float, tol: float) -> Tuple[float, int]:
    """(midpoint, iterations) once ``above`` is false at lo and true at hi, at most tol apart."""
    iterations = 0
    while hi - lo > tol and iterations < MAX_ITER:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if above(mid):
            hi = mid
        else:
            lo = mid
    if hi - lo > tol:
        raise NotConvergedError(f"bisection hit the iteration cap with ({lo}, {hi}) left")
    return 0.5 * (lo + hi), iterations


@dataclass(frozen=True)
class LStarConfig:
    # cheaper than a lone estimate's defaults; find-lstar runs it at the [lyapunov] tol
    estimator: EstimatorConfig = EstimatorConfig(J=128, dt=0.02, horizon=400.0)
    shifts: Tuple[float, ...] = DEFAULT_SHIFTS
    bracket_tol: ClassVar[float] = 1e-2

    def __post_init__(self):
        if not (self.shifts and np.all(np.isfinite(self.shifts))):
            raise ValueError(f"shifts must be finite and at least one, got {self.shifts}")


def find_L_star(
    mat: LinearizationMatrix, D, bracket: Tuple[float, float], cfg: LStarConfig = LStarConfig()
) -> Tuple[float, int]:
    """Bisect the exponent's zero crossing in L down to ``cfg.bracket_tol``.

    Returns (L_star, iterations).  The exponent at each half-width is the
    worst (smallest) over ``cfg.shifts``, from one estimate that integrates
    all the shifts together.  The bisection reads only its sign, so each
    estimate runs in sign mode: it stops once its error bars fix the sign,
    or else once err < tol.  An estimate decided by neither rule at the
    horizon, or out of the positive cone, raises NotConvergedError.
    """
    L_lo, L_hi = bracket
    if not 0 < L_lo < L_hi < np.inf:
        raise ValueError("need 0 < L_lo < L_hi, both finite")

    def lam(L: float) -> float:
        est = lyapunov_exponent(mat, L, D, cfg.estimator, shifts=cfg.shifts, sign_only=True)
        if not est.converged:
            raise NotConvergedError(f"exponent at L={L} not converged at the horizon: its error "
                                    f"bars neither fixed its sign nor fell below tol in the "
                                    f"positive cone: {est}")
        return est.lam

    lam_lo, lam_hi = lam(L_lo), lam(L_hi)
    if not (lam_lo < 0.0 < lam_hi):
        raise BadBracketError(
            f"no sign change: lambda({L_lo})={lam_lo:.4g}, lambda({L_hi})={lam_hi:.4g}"
        )
    return _bisect(lambda L: lam(L) >= 0.0, L_lo, L_hi, cfg.bracket_tol)


# Undetermined mu* probes are continued to doubled horizons up to this multiple
MAX_HORIZON_FACTOR = 8


@dataclass(frozen=True)
class MuStarConfig:
    L_star: float  # the model's L*, the width bar of each probe's classification
    solver: SolverConfig = SolverConfig()
    rel_tol: ClassVar[float] = 1e-2  # the final bracket's width, relative to mu_hi

    def __post_init__(self):
        checked_L_star(self.L_star)


@dataclass(frozen=True)
class ProbeRecord:
    mu: float
    verdict: str
    t_end: float


def find_mu_star(
    spec: ModelSpec,
    init: InitialData,
    bracket: Tuple[float, float],
    cfg: MuStarConfig,
) -> Tuple[float, int, List[ProbeRecord]]:
    """Bisect the expansion rate on the simulate+classify predicate.

    Returns (mu_star, iterations, transcript).  ``cfg`` is required: every
    probe is classified against its ``L_star``.  A probe that comes out
    Undetermined has its horizon doubled, again and again up to
    MAX_HORIZON_FACTOR times the configured ``cfg.solver.t_end``;
    bisection places its last probes close to mu*, where extinction is
    slowest, so one doubling is not always enough.  Each doubling
    continues the run from the state and step size it reached
    (``solver.extend``), so a probe decided at 8x integrates 8 horizons,
    not 1 + 2 + 4 + 8.  A probe still Undetermined at that bound aborts
    the search with NotConvergedError.
    """
    transcript: List[ProbeRecord] = []
    t_limit = MAX_HORIZON_FACTOR * cfg.solver.t_end

    def probe(mu: float) -> str:
        spec_mu, scfg = replace(spec, mu=mu), cfg.solver
        traj = simulate(spec_mu, init, scfg)
        while True:
            verdict = classify(traj, cfg.L_star).verdict
            if verdict != "Undetermined" or scfg.t_end >= t_limit:
                break
            scfg = replace(scfg, t_end=2.0 * scfg.t_end)
            traj = extend(spec_mu, traj, scfg)
        transcript.append(ProbeRecord(mu, verdict, scfg.t_end))
        if verdict == "Undetermined":
            raise NotConvergedError(f"probe at mu={mu} undetermined at horizon t_end={scfg.t_end:g}")
        return verdict

    mu_lo, mu_hi = bracket
    if not 0 < mu_lo < mu_hi < np.inf:
        raise ValueError("need 0 < mu_lo < mu_hi, both finite")
    if probe(mu_lo) != "Vanishing":
        raise BadBracketError(f"mu_lo={mu_lo} does not vanish")
    if probe(mu_hi) != "Spreading":
        raise BadBracketError(f"mu_hi={mu_hi} does not spread")
    mu_star, iterations = _bisect(lambda mu: probe(mu) == "Spreading", mu_lo, mu_hi,
                                  cfg.rel_tol * mu_hi)
    return mu_star, iterations, transcript


def transcript_monotone(transcript: Sequence[ProbeRecord]) -> bool:
    """True when no larger-mu probe vanished below a smaller-mu spreading probe."""
    lowest_spreading = min((r.mu for r in transcript if r.verdict == "Spreading"), default=np.inf)
    return all(r.mu <= lowest_spreading for r in transcript if r.verdict == "Vanishing")

