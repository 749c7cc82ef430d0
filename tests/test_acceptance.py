"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so a plain pytest run also gates on every criterion.  The heavy
shared artifacts (critical half-width, regime trajectories) are computed
once per session.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wnvfront as w
from wnvfront.coefficients import LinearizationMatrix
from wnvfront.lyapunov import (
    EstimatorConfig,
    lambda_sweep,
    lyapunov_constant_oracle,
    lyapunov_exponent,
)
from wnvfront.cli import cli_main
from wnvfront.model import InitialData
from wnvfront.reproduce import (
    CASES,
    LSTAR_BRACKET,
    MU_BRACKET,
    MU_STAR_H0,
    halfwidth_bracket,
)
from wnvfront.solver import SolverConfig
from wnvfront.thresholds import (
    BadBracketError,
    LStarConfig,
    MuStarConfig,
    NotConvergedError,
    classify,
    find_L_star,
    find_mu_star,
    transcript_monotone,
)
from wnvfront.verify import (
    ORDER_BANDS,
    comparison_suite,
    manufactured_convergence,
    observed_orders,
    probe_series,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _report(num, title, ok, detail=""):
    import conftest

    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {title}"
    if detail:
        line += f" -- {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def L_star(ref_spec):
    value, _ = find_L_star(ref_spec.linearization(), (ref_spec.D1, ref_spec.D2),
                           LSTAR_BRACKET, LStarConfig())
    return value


@pytest.fixture(scope="module")
def regime_runs(ref_spec):
    """(h0, mu) -> (trajectory, runtime seconds) at the reference resolution."""
    tail = tuple(np.linspace(240.0, 300.0, 61))
    cfg = SolverConfig(J=400, t_end=300.0, output_times=tail)
    runs = {}
    for h0, mu in CASES:
        spec = replace(ref_spec, h0=h0, mu=mu)
        t0 = time.time()
        traj = w.simulate(spec, InitialData(), cfg)
        runs[(h0, mu)] = (traj, time.time() - t0)
    return runs


@pytest.fixture(scope="module")
def regime_verdicts(regime_runs, L_star):
    return {case: classify(traj, L_star) for case, (traj, _) in regime_runs.items()}


def test_lstar_is_the_one_readme_quotes(L_star):
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    assert f"`L_star={L_star:.4f} iterations=" in readme


def test_criterion_01_regime_dichotomy(regime_runs, regime_verdicts):
    details = []
    ok = True
    for case, expected in CASES.items():
        traj, runtime = regime_runs[case]
        verdict = regime_verdicts[case].verdict
        good = verdict == expected and runtime <= 60.0
        ok = ok and good
        details.append(f"h0={case[0]},mu={case[1]}: {verdict}"
                       f"{'' if verdict == expected else ' (expected ' + expected + ')'}"
                       f" [{runtime:.1f}s]")
    _report(1, "regime dichotomy at reference parameters", ok, "; ".join(details))


def test_criterion_02_threshold_brackets(ref_spec, regime_verdicts, L_star):
    expected = halfwidth_bracket(CASES)
    l_bracket = halfwidth_bracket({case: c.verdict for case, c in regime_verdicts.items()})
    l_ok = l_bracket == expected
    mu_detail = ""
    mu_ok = False
    try:
        mcfg = MuStarConfig(solver=SolverConfig(J=400, t_end=300.0), L_star=L_star)
        mu_star, _, transcript = find_mu_star(replace(ref_spec, h0=MU_STAR_H0), InitialData(),
                                              MU_BRACKET, mcfg)
        mu_ok = MU_BRACKET[0] < mu_star < MU_BRACKET[1] and transcript_monotone(transcript)
        mu_detail = f"mu*={mu_star:.4f}"
    except BadBracketError as e:
        mu_detail = f"mu bracket rejected: {e}"
    except NotConvergedError as e:
        mu_detail = f"mu* search not converged: {e}"
    _report(2, f"threshold brackets (L in ({expected[0]},{expected[1]}), "
            f"mu* in ({MU_BRACKET[0]},{MU_BRACKET[1]}))", bool(l_ok and mu_ok),
            f"L bracket ({l_bracket[0]}, {l_bracket[1]}); {mu_detail}")


def test_criterion_03_lyapunov_oracle_grid():
    mats = (
        ((-1.0, 0.5), (0.5, -1.0)),
        ((-0.5, 0.8), (0.3, -0.7)),
        ((-1.2, 1.0), (0.6, -0.4)),
        ((-0.3, 0.4), (0.9, -1.1)),
        ((-0.8, 0.6), (1.2, -0.9)),
    )
    Ls = (1.5, 2.0, 2.5, 3.0, 4.0)
    D = (0.5, 0.25)
    cfg = EstimatorConfig(J=192, dt=0.002, horizon=150.0)
    t0 = time.time()
    err = max(
        abs(lyapunov_exponent(LinearizationMatrix.constant(A0), L, D, cfg).lam
            - lyapunov_constant_oracle(A0, L, D))
        for A0 in mats for L in Ls
    )
    runtime = time.time() - t0
    ok = err <= 2e-3 and runtime <= 300.0
    _report(3, "exponent estimator vs closed form on 5x5 grid", ok,
            f"max err {err:.2e}, {runtime:.0f}s")


def test_criterion_04_monotonicity(ref_spec):
    Ls = list(np.linspace(0.5, 3.2, 10))
    sweep = lambda_sweep(ref_spec.linearization(), (ref_spec.D1, ref_spec.D2), Ls,
                         LStarConfig().estimator)
    sweep_ok = sweep.violations == []

    cfg = SolverConfig(J=200, dt_min=0.02, dt_max=0.02, t_end=30.0)
    hs, gs = [], []
    for mu in (0.05, 0.1, 0.2):
        traj = w.simulate(replace(ref_spec, mu=mu), InitialData(), cfg)
        hs.append(traj.h)
        gs.append(traj.g)
    margin = min(
        min(float(np.min(hs[i + 1] - hs[i])), float(np.min(gs[i] - gs[i + 1])))
        for i in range(2)
    )
    front_ok = margin >= -1e-8
    _report(4, "lambda nondecreasing in L; fronts monotone in mu",
            bool(sweep_ok and front_ok),
            f"sweep violations {len(sweep.violations)}, front margin {margin:.2e}")


def test_criterion_05_bounds_and_front_signs(ref_spec, regime_runs):
    traj, _ = regime_runs[(2.0, 0.1)]
    ok = (
        bool(np.all(traj.sup_m >= 0.0))
        and bool(np.all(traj.sup_n >= 0.0))
        and bool(np.all(traj.sup_m <= ref_spec.N1 * (1 + 1e-8)))
        and bool(np.all(traj.sup_n <= ref_spec.N2 * (1 + 1e-8)))
        and bool(np.all(np.diff(traj.h) >= 0.0))
        and bool(np.all(np.diff(traj.g) <= 0.0))
        and all(float(np.min(st.m)) >= 0.0 and float(np.min(st.n)) >= 0.0
                and float(np.max(st.m)) <= ref_spec.N1 * (1 + 1e-8)
                and float(np.max(st.n)) <= ref_spec.N2 * (1 + 1e-8)
                for st in traj.snapshots)
    )
    _report(5, "state bounds and front sign invariants on the spreading run", ok,
            f"max supU {np.max(traj.sup_m):.6f}, max supV {np.max(traj.sup_n):.4f}")


def test_criterion_06_comparison_principle(ref_spec):
    cfg = SolverConfig(J=200, dt_min=0.02, dt_max=0.02, t_end=50.0,
                       output_times=(10.0, 25.0, 50.0))
    lo = InitialData(amp_U=0.1, amp_V=2.0)
    hi = InitialData(amp_U=0.15, amp_V=3.0)
    report = comparison_suite(ref_spec, lo, hi, cfg)
    _report(6, "comparison principle for ordered data to t=50", bool(report["passed"]),
            f"front margin {report['front_margin']:.2e}, "
            f"field margin {report['field_margin']:.2e}")


def test_criterion_07_convergence_orders():
    t0 = time.time()
    rows = manufactured_convergence()
    runtime = time.time() - t0
    last = {study: observed_orders(rows, study)[-1] for study in ORDER_BANDS}
    ok = all(lo <= last[study] <= hi for study, (lo, hi) in ORDER_BANDS.items()) and runtime <= 600.0
    _report(7, "manufactured-solution convergence orders", ok,
            f"spatial {last['spatial']:.3f}, temporal {last['temporal']:.3f}, {runtime:.0f}s")


def test_criterion_08_vanishing_width_bound(regime_verdicts, L_star):
    bound = 2.0 * L_star + 0.1
    vanishing = {case: c for case, c in regime_verdicts.items() if c.verdict == "Vanishing"}
    widths = {case: c.evidence["final_width"] for case, c in vanishing.items()}
    ok = bool(vanishing) and all(wd <= bound for wd in widths.values())
    _report(8, "vanishing verdicts respect the 2L* width bound", ok,
            f"L*={L_star:.4f}, bound {bound:.3f}, widths "
            + ", ".join(f"{c}: {wd:.3f}" for c, wd in widths.items()))


def test_criterion_09_spreading_persistence(regime_runs):
    traj, _ = regime_runs[(2.0, 0.1)]
    ts, us, vs = probe_series(traj, 0.0)
    tail = ts >= 240.0
    ok = np.count_nonzero(tail) >= 10 and float(np.min(us[tail])) > 0 \
        and float(np.min(vs[tail])) > 0
    _report(9, "spreading-run tail persistence at x=0", bool(ok),
            f"floor U {np.min(us[tail]):.3e}, floor V {np.min(vs[tail]):.3e} "
            f"over t in [240, 300]")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli_main(["--config", str(CONFIGS / "paper_fig1c.cfg"), "--out", str(out),
                       "simulate", "--t-end", "20", "--grid", "200"])
        assert rc == 0
        files = sorted(p for p in out.iterdir() if p.suffix == ".csv")
        outputs.append({p.name: p.read_bytes() for p in files})
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(10, "bitwise-identical CSV outputs for identical configs", ok,
            f"{len(outputs[0])} files compared")
