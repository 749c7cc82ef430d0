"""Self-test of the harness: every check must reject a corrupted output.

    python3 perfbench/selftest.py

Each check is fed one output that satisfies it and one or more corrupted
copies, and must pass the first and fail the others.  The tracer is
installed on stand-in modules from which hook targets have been removed;
it must leave the metrics that depend on them out, and must not crash.
Needs numpy and the repository's configs/, not the program.  Exits 1 if
any case goes the wrong way.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

FAILURES = []


def expect(passes: bool, errors: list, case: str) -> None:
    """A case that should pass must return no errors; one that should fail must return some."""
    if passes != (not errors):
        FAILURES.append(f"{case}: expected {'pass' if passes else 'failure'}, got {errors or 'no errors'}")


def _spreading_run():
    t = np.linspace(0.0, 300.0, 301)
    bnd = {"t": t, "h": 2.0 + 0.05 * t, "g": -2.0 - 0.05 * t,
           "supU": np.full_like(t, 0.5), "supV": np.full_like(t, 10.0)}
    x = np.linspace(-1.0, 1.0, 11)
    return bnd, [("snapshot", 0.5 * (1 - x * x), 10.0 * (1 - x * x))]


def _vanishing_run():
    t = np.linspace(0.0, 300.0, 301)
    return {"t": t, "h": 0.6 + 0.01 * (1 - np.exp(-t)), "g": -0.6 - 0.01 * (1 - np.exp(-t)),
            "supU": 0.1 * np.exp(-t), "supV": 2.0 * np.exp(-t)}


def test_regime_checks(L_upper):
    bnd, snaps = _spreading_run()
    expect(True, checks.check_spreading(bnd, snaps, 1.0, 20.0, L_upper), "spreading run")
    receding = dict(bnd, h=bnd["h"].copy())
    receding["h"][150] -= 1.0
    expect(False, checks.check_spreading(receding, snaps, 1.0, 20.0, L_upper), "receding front")
    over = [("snapshot", snaps[0][1] * 3.0, snaps[0][2])]
    expect(False, checks.check_spreading(bnd, over, 1.0, 20.0, L_upper), "U above N1")
    dying = dict(bnd, supV=np.full_like(bnd["t"], 1e-9))
    expect(False, checks.check_spreading(dying, snaps, 1.0, 20.0, L_upper), "spreading run that dies out")

    van = _vanishing_run()
    expect(True, checks.check_vanishing(van, L_upper), "vanishing run")
    wide = dict(van, h=van["h"] + 3.0)
    expect(False, checks.check_vanishing(wide, L_upper), "vanishing run wider than 2 L*")
    alive = dict(van, supU=np.full_like(van["t"], 1e-3))
    expect(False, checks.check_vanishing(alive, L_upper), "vanishing run that persists")


def test_lstar_checks(model, bracket):
    lo, hi = bracket
    expect(True, [] if abs(lo - 1.004) < 1e-3 and abs(hi - 1.840) < 1e-3 else [bracket],
           "comparison bracket near [1.004, 1.840]")
    expect(True, checks.check_lstar(1.2703, bracket), "L* inside the bracket")
    expect(False, checks.check_lstar(0.9, bracket), "L* below the bracket")
    expect(False, checks.check_lstar(2.5, bracket), "L* above the bracket")
    expect(True, checks.check_sign_change(-0.15, 0.35, bracket), "lambda changes sign")
    expect(False, checks.check_sign_change(0.01, 0.35, bracket), "lambda positive at both ends")

    A_min, A_max = checks.comparison_matrices(model)
    D = (float(model["D1"]), float(model["D2"]))
    L_exact = checks.critical_halfwidth(A_min, D)
    expect(True, [] if abs(checks.principal_exponent(A_min, L_exact, D)) < 1e-9 else [L_exact],
           "closed-form L* is a zero of the exponent")
    expect(True, checks.check_constant_lstar(L_exact + 0.002, L_exact, 0.01), "constant L* within tol")
    expect(False, checks.check_constant_lstar(L_exact + 0.05, L_exact, 0.01), "constant L* off by 0.05")


def test_mustar_checks():
    good = [(0.1, "Vanishing"), (1.0, "Spreading"), (0.55, "Vanishing"), (0.775, "Vanishing"),
            (0.8875, "Spreading"), (0.83125, "Vanishing"), (0.859375, "Vanishing"),
            (0.8734375, "Spreading"), (0.86640625, "Vanishing")]
    mu = 0.5 * (0.86640625 + 0.8734375)
    expect(True, checks.check_mustar(mu, good, (0.1, 1.0), 0.01), "monotone transcript")
    swapped = good[:-1] + [(0.86640625, "Spreading"), (0.95, "Vanishing")]
    expect(False, checks.check_mustar(mu, swapped, (0.1, 1.0), 0.01), "non-monotone transcript")
    undecided = good[:-1] + [(0.86640625, "Undetermined")]
    expect(False, checks.check_mustar(mu, undecided, (0.1, 1.0), 0.01), "undecided probe")
    expect(False, checks.check_mustar(mu, good[:-2], (0.1, 1.0), 0.01), "final bracket too wide")
    expect(False, checks.check_mustar(1.0, good, (0.1, 1.0), 0.01), "mu* on the bracket end")


def test_missing_hooks():
    def step(spec, state, dt, cfg):
        return state

    solver = types.ModuleType("solver")  # has step, lacks solve_banded
    solver.step = step
    tracer = Tracer()
    tracer.install({"solver": solver})
    try:
        solver.step(None, 1, 0.1, None)
        metrics = tracer.metrics(rounds=1)
    finally:
        tracer.uninstall()
    expect(True, [] if solver.step is step else ["hook not removed"], "uninstall restores the target")
    expect(True, [] if metrics.get("solver.step_calls") == 1 else [metrics], "present hook counts its call")
    reported = [m for m in ("solver.solve_us", "solver.solves_per_step", "lyapunov.estimates") if m in metrics]
    expect(True, reported, "metrics of missing hooks are absent")
    expect(True, [] if "solver.solve_banded" in tracer.missing else [tracer.missing],
           "missing hook is listed")


def main() -> int:
    root = HERE.parent
    model = checks.read_model(root / "configs" / "reference.cfg")
    bracket = checks.lstar_bracket(model)
    test_regime_checks(bracket[1])
    test_lstar_checks(model, bracket)
    test_mustar_checks()
    test_missing_hooks()
    for f in FAILURES:
        print(f"FAIL {f}")
    print(f"selftest: {'FAIL' if FAILURES else 'ok'} ({len(FAILURES)} wrong)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
