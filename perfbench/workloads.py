"""The three workloads: their inputs, their operations and the checks on each output.

The ``build_*`` functions are the set-up that ``setup_s`` times: they import
the program and construct the inputs.  ``reference`` makes the independent figures the
checks compare against; it is not part of set-up.  Every input is fixed:
no workload draws random numbers, so the seed only labels a run.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

# Search settings sized so that one round takes seconds, not minutes.  The
# horizon stays at the program's search value (400): the L* bisection stops
# early when |lambda| falls under the spread of the tail slopes, and that
# spread is set by the horizon, not by J or dt.
LSTAR_BRACKET = (0.3, 3.0)
LSTAR_ESTIMATOR = dict(J=32, dt=0.5, horizon=400.0)
MU_BRACKET = (0.1, 1.0)
MU_SOLVER = dict(J=64, dt_max=0.5, t_end=300.0)
# L* of the reference linearisation from find_L_star at the program's own
# search settings (J=128, dt=0.02, horizon=400, the 7 default shifts)
L_STAR_INPUT = 1.2703


@dataclass
class Op:
    """One timed call into the program, with the check on its result."""

    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], List[str]]
    prepare: Optional[Callable[[], None]] = None  # untimed, before each call


@dataclass
class Workload:
    ops: List[Op]
    # run once after the last round, with no hook installed
    final_check: Callable[[dict], List[str]] = field(default=lambda ref: [])


def _cfg(root: Path, name: str) -> Path:
    return root / "configs" / name


def _read_table(path: Path) -> dict:
    import numpy as np

    header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


# -- regime-simulate ----------------------------------------------------------


def _simulate_op(cli, name: str, cfg_path: Path, outdir: Path, verdict_check) -> Op:
    argv = ["--config", str(cfg_path), "--out", str(outdir), "simulate"]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"wnvfront simulate exited with code {code}")

    def check(_, ref):
        bnd = _read_table(outdir / "boundaries.csv")
        snaps = [(p.name, t["U"], t["V"]) for p in sorted(outdir.glob("snapshot_*.csv"))
                 for t in [_read_table(p)]]
        if not snaps:
            return ["no snapshot CSV written"]
        if not (outdir / "fronts.svg").is_file():
            return ["no fronts.svg written"]
        return verdict_check(bnd, snaps, ref)

    return Op(name, call, check, prepare=lambda: shutil.rmtree(outdir, ignore_errors=True))


def build_regime_simulate(root: Path) -> Workload:
    from wnvfront import cli
    from checks import check_spreading, check_vanishing

    out = root / "perfbench" / "out" / "regime-simulate"
    return Workload([
        _simulate_op(cli, "simulate_spread", _cfg(root, "reference.cfg"), out / "spread",
                     lambda b, s, r: check_spreading(b, s, r["reference.cfg"]["N1"], r["reference.cfg"]["N2"],
                                                     r["reference.cfg"]["L_upper"])),
        _simulate_op(cli, "simulate_vanish", _cfg(root, "paper_fig1c.cfg"), out / "vanish",
                     lambda b, s, r: check_vanishing(b, r["paper_fig1c.cfg"]["L_upper"])),
    ])


# -- lstar-search ---------------------------------------------------------------


def build_lstar_search(root: Path) -> Workload:
    from wnvfront import LinearizationMatrix, lyapunov, thresholds, load_config
    from checks import (check_constant_lstar, check_lstar, check_sign_change,
                        comparison_matrices, critical_halfwidth, read_model)

    spec = load_config(_cfg(root, "reference.cfg")).model_spec()
    mat, D = spec.linearization(), (spec.D1, spec.D2)
    A_min, _ = comparison_matrices(read_model(_cfg(root, "reference.cfg")))
    const = LinearizationMatrix.constant(A_min)
    estimator = lyapunov.EstimatorConfig(**LSTAR_ESTIMATOR)
    cfg = thresholds.LStarConfig(estimator=estimator)
    const_cfg = thresholds.LStarConfig(estimator=estimator, shifts=(0.0,))

    def sign_change(ref):
        lo, hi = ref["reference.cfg"]["bracket"]
        lam_lo = lyapunov.lyapunov_exponent(mat, lo, D, estimator).lam
        lam_hi = lyapunov.lyapunov_exponent(mat, hi, D, estimator).lam
        return check_sign_change(lam_lo, lam_hi, (lo, hi))

    return Workload(
        [
            Op("lstar", lambda: thresholds.find_L_star(mat, D, LSTAR_BRACKET, cfg),
               lambda res, ref: check_lstar(res[0], ref["reference.cfg"]["bracket"])),
            Op("lstar_const", lambda: thresholds.find_L_star(const, D, LSTAR_BRACKET, const_cfg),
               lambda res, ref: check_constant_lstar(
                   res[0], critical_halfwidth(A_min, D), const_cfg.bracket_tol)),
        ],
        final_check=sign_change,
    )


# -- mustar-search ----------------------------------------------------------------


def build_mustar_search(root: Path) -> Workload:
    from wnvfront import SolverConfig, load_config, thresholds
    from checks import check_mustar

    run_cfg = load_config(_cfg(root, "paper_fig1c.cfg"))
    spec, init = run_cfg.model_spec(), run_cfg.initial_data()
    cfg = thresholds.MuStarConfig(solver=SolverConfig(**MU_SOLVER), L_star=L_STAR_INPUT)

    def check(res, ref):
        mu_star, _, transcript = res
        errors = check_mustar(mu_star, [(r.mu, r.verdict) for r in transcript], MU_BRACKET, cfg.rel_tol)
        lo, hi = ref["paper_fig1c.cfg"]["bracket"]
        if not lo <= L_STAR_INPUT <= hi:
            errors.append(f"input L* = {L_STAR_INPUT} outside the comparison bracket [{lo:.6g}, {hi:.6g}]")
        return errors

    return Workload([Op("mustar", lambda: thresholds.find_mu_star(spec, init, MU_BRACKET, cfg), check)])


BUILDERS = {
    "regime-simulate": build_regime_simulate,
    "lstar-search": build_lstar_search,
    "mustar-search": build_mustar_search,
}


def reference(root: Path) -> dict:
    """Per config: the comparison bracket on L*, its upper end, and the capacities N1, N2."""
    from checks import lstar_bracket, read_model

    ref = {}
    for name in ("reference.cfg", "paper_fig1c.cfg"):
        model = read_model(_cfg(root, name))
        bracket = lstar_bracket(model)
        ref[name] = dict(bracket=bracket, L_upper=bracket[1], N1=float(model["N1"]), N2=float(model["N2"]))
    return ref
