"""Reference computations and output checks, made apart from the program.

Nothing here calls into ``wnvfront``.  The bounds come from the config files
themselves (read with ``configparser``) and from numpy eigenvalues; the checks
take plain arrays and numbers, so the self-test can feed them corrupted data.

The bracket on L* rests on the comparison principle for cooperative systems:
if A_min <= A(x, t) <= A_max entrywise, the principal exponent on [-L, L]
satisfies lam(A_min) <= lam(A) <= lam(A_max), so L*(A_max) <= L* <= L*(A_min).
A vanishing run's width stays within 2 L* (Du and Lin, SIAM J. Math. Anal.
42, 2010), so 2 L*(A_min) bounds it from above.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

EXTINCT = 1e-6  # sup-norm floor below which a density counts as gone

# The program's named spatial profiles, written out again here
_PROFILES = {
    "constant_one": lambda x: np.ones_like(x),
    "ratio2_cos": lambda x: (2.0 + x) / (1.0 + x * x) * np.cos(x),
    "ratio1_cos": lambda x: (1.0 + x) / (1.0 + x * x) * np.cos(x),
    "ratio2_sin": lambda x: (2.0 + x) / (1.0 + x * x) * np.sin(x),
    "ratio1_sin": lambda x: (1.0 + x) / (1.0 + x * x) * np.sin(x),
}
# Every profile decays like 1/|x| or is constant, so its extremes lie near 0
_X_DENSE = np.linspace(-100.0, 100.0, 400_001)


def read_model(cfg_path) -> dict:
    """The [model] section of a config file, as a dict of strings."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(Path(cfg_path).read_text(encoding="utf-8"))
    return dict(parser["model"])


def field_range(model: dict, name: str) -> tuple:
    """(min, max) over x and t of base * prod(1 + a cos/sin) + amp * profile(x)."""
    base = float(model[f"{name}_base"])
    amps = [abs(float(h.split(":")[0])) for h in model.get(f"{name}_harmonics", "").split(",") if h.strip()]
    profile = _PROFILES[model.get(f"{name}_spatial", "constant_one").strip()]
    spatial = float(model.get(f"{name}_spatial_amp", "0")) * profile(_X_DENSE)
    lo = base * float(np.prod([1.0 - a for a in amps])) + float(spatial.min())
    hi = base * float(np.prod([1.0 + a for a in amps])) + float(spatial.max())
    return lo, hi


def comparison_matrices(model: dict) -> tuple:
    """(A_min, A_max): entrywise bounds of the linearisation [[-d1, a1 N1], [a2 N2, -d2]].

    With a1 = alpha1 beta / N1 and a2 = alpha2 beta / N1 (the model's
    documented scaling), a1 N1 = alpha1 beta and a2 N2 = alpha2 beta N2 / N1.
    """
    beta, N1, N2 = (float(model[k]) for k in ("beta", "N1", "N2"))
    a1 = field_range(model, "alpha1")
    a2 = field_range(model, "alpha2")
    d1 = field_range(model, "gamma")
    d2 = field_range(model, "death")
    A_min = np.array([[-d1[1], a1[0] * beta], [a2[0] * beta * N2 / N1, -d2[1]]])
    A_max = np.array([[-d1[0], a1[1] * beta], [a2[1] * beta * N2 / N1, -d2[0]]])
    return A_min, A_max


def principal_exponent(A, L: float, D) -> float:
    """Largest eigenvalue of A - (pi / 2L)^2 diag(D): the Dirichlet exponent on [-L, L]."""
    k = (np.pi / (2.0 * L)) ** 2
    return float(np.max(np.linalg.eigvals(np.asarray(A) - k * np.diag(D)).real))


def critical_halfwidth(A, D, lo: float = 1e-3, hi: float = 1e3) -> float:
    """The L at which the constant-matrix exponent crosses zero, by bisection."""
    if not principal_exponent(A, lo, D) < 0.0 < principal_exponent(A, hi, D):
        raise ValueError("the constant-matrix exponent does not change sign on the search range")
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if principal_exponent(A, mid, D) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lstar_bracket(model: dict) -> tuple:
    """(L*(A_max), L*(A_min)), the comparison bracket on the heterogeneous L*."""
    D = (float(model["D1"]), float(model["D2"]))
    A_min, A_max = comparison_matrices(model)
    return critical_halfwidth(A_max, D), critical_halfwidth(A_min, D)


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of failure messages; an empty list is a pass.


def check_spreading(bnd: dict, snapshots, N1: float, N2: float, L_upper: float) -> list:
    """Densities within [0, N], fronts that never recede, and a wide, persistent final state."""
    errors = _check_bounds(bnd, snapshots, N1, N2) + _check_fronts_monotone(bnd)
    width = bnd["h"][-1] - bnd["g"][-1]
    if not width > 2.0 * L_upper:
        errors.append(f"final width {width:.6g} not above 2 * L*_upper = {2.0 * L_upper:.6g}")
    for key in ("supU", "supV"):
        if not bnd[key][-1] > EXTINCT:
            errors.append(f"final {key} {bnd[key][-1]:.3g} not above {EXTINCT:g}")
    return errors


def check_vanishing(bnd: dict, L_upper: float) -> list:
    """Both sup norms below the floor at the end, and a final width within 2 L*_upper."""
    errors = []
    for key in ("supU", "supV"):
        if not bnd[key][-1] < EXTINCT:
            errors.append(f"final {key} {bnd[key][-1]:.3g} not below {EXTINCT:g}")
    width = bnd["h"][-1] - bnd["g"][-1]
    if not width <= 2.0 * L_upper:
        errors.append(f"final width {width:.6g} above 2 * L*_upper = {2.0 * L_upper:.6g}")
    return errors


def _check_bounds(bnd, snapshots, N1, N2) -> list:
    errors = []
    for label, U, V in [("boundaries", bnd["supU"], bnd["supV"])] + list(snapshots):
        if not (np.all(U >= 0.0) and np.all(U <= N1)):
            errors.append(f"{label}: U leaves [0, {N1:g}] (range {U.min():.6g}..{U.max():.6g})")
        if not (np.all(V >= 0.0) and np.all(V <= N2)):
            errors.append(f"{label}: V leaves [0, {N2:g}] (range {V.min():.6g}..{V.max():.6g})")
    return errors


def _check_fronts_monotone(bnd) -> list:
    errors = []
    if np.any(np.diff(bnd["h"]) < 0.0):
        errors.append("right front h recedes")
    if np.any(np.diff(bnd["g"]) > 0.0):
        errors.append("left front g recedes")
    return errors


def check_lstar(L_star: float, bracket: tuple) -> list:
    lo, hi = bracket
    if not lo <= L_star <= hi:
        return [f"L* = {L_star:.6g} outside the comparison bracket [{lo:.6g}, {hi:.6g}]"]
    return []


def check_sign_change(lam_lo: float, lam_hi: float, bracket: tuple) -> list:
    """The program's exponent must be negative at L*(A_max) and positive at L*(A_min)."""
    if not lam_lo < 0.0 < lam_hi:
        return [f"lambda does not change sign over [{bracket[0]:.6g}, {bracket[1]:.6g}]: "
                f"{lam_lo:.6g}, {lam_hi:.6g}"]
    return []


def check_constant_lstar(L_found: float, L_exact: float, tol: float) -> list:
    if not abs(L_found - L_exact) <= tol:
        return [f"constant-matrix L* = {L_found:.6g} is {abs(L_found - L_exact):.3g} "
                f"from the closed form {L_exact:.6g} (tolerance {tol:g})"]
    return []


def check_mustar(mu_star: float, transcript, bracket: tuple, rel_tol: float) -> list:
    """transcript: (mu, verdict) pairs.  mu* strictly inside, every probe decided,
    no vanishing probe above a spreading one, and a final bracket within rel_tol * mu_hi."""
    lo, hi = bracket
    errors = []
    if not lo < mu_star < hi:
        errors.append(f"mu* = {mu_star:.6g} not strictly inside ({lo:g}, {hi:g})")
    undecided = [mu for mu, v in transcript if v not in ("Spreading", "Vanishing")]
    if undecided:
        errors.append(f"undecided probes at mu = {undecided}")
    vanish = [mu for mu, v in transcript if v == "Vanishing"]
    spread = [mu for mu, v in transcript if v == "Spreading"]
    if not vanish or not spread:
        return errors + ["transcript lacks a vanishing or a spreading probe"]
    if max(vanish) >= min(spread):
        errors.append(f"transcript not monotone: mu = {max(vanish):.6g} vanishes above "
                      f"mu = {min(spread):.6g}, which spreads")
    elif min(spread) - max(vanish) > rel_tol * hi:
        errors.append(f"final bracket ({max(vanish):.6g}, {min(spread):.6g}) wider than "
                      f"{rel_tol:g} * {hi:g}")
    elif not max(vanish) < mu_star < min(spread):
        errors.append(f"mu* = {mu_star:.6g} outside the final bracket")
    return errors
