"""Command-line orchestration of simulate / exponent / threshold / verify workflows.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from .config import RunConfig, load_config, render_config
from .lyapunov import lambda_sweep, lyapunov_exponent
from .model import InitialData
from .output import (check_snapshot_names, write_csv, write_plots, write_sweep_plot,
                     write_trajectory_csv)
from .reproduce import CASES, MU_STAR_H0, halfwidth_bracket
from .solver import simulate
from .thresholds import (
    BadBracketError,
    MuStarConfig,
    NotConvergedError,
    checked_L_star,
    classify,
    find_L_star,
    find_mu_star,
    transcript_monotone,
)
from .verify import ORDER_BANDS, comparison_suite, manufactured_convergence, observed_orders

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# every subcommand flag; _COMMANDS lists the flags each subcommand reads
_FLAGS = {
    "--h0": dict(type=float, help="initial half-width"),
    "--mu": dict(type=float, help="expansion rate"),
    "--t-end": dict(type=float, help="end of the simulated time"),
    "--grid": dict(type=int, help="spatial resolution J"),
    "--half-width": dict(type=float, help="interval half-width L (default: h0 of the config)"),
    "--L-list": dict(type=lambda text: tuple(float(v) for v in text.split(",")),
                     help="comma-separated half-widths"),
    "--L-star": dict(type=float, help="critical half-width (default: find it)"),
}


def _override(section, **values):
    """The section with every value that is not None put in."""
    return replace(section, **{k: v for k, v in values.items() if v is not None})


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    check_snapshot_names(cfg.solver.output_times)
    return replace(
        cfg,
        model=_override(cfg.model, h0=getattr(args, "h0", None), mu=getattr(args, "mu", None)),
        solver=_override(cfg.solver, t_end=getattr(args, "t_end", None),
                         J=getattr(args, "grid", None)),
        run=_override(cfg.run, out=args.out, L_list=getattr(args, "L_list", None)),
    )


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.run.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _simulate(cfg: RunConfig):
    """simulate on the [solver] section, with seven evenly spaced snapshots when none are listed."""
    scfg = cfg.solver
    if not scfg.output_times:
        scfg = replace(scfg, output_times=tuple(np.linspace(0.0, scfg.t_end, 7)))
    return simulate(cfg.model, cfg.init, scfg)


def cmd_simulate(cfg: RunConfig, args) -> int:
    out = _outdir(cfg)
    traj = _simulate(cfg)
    write_trajectory_csv(traj, out)
    write_plots(traj, out)
    (out / "config_used.cfg").write_text(render_config(cfg), encoding="utf-8", newline="\n")
    print(f"t_end={traj.t[-1]:g} width={traj.width[-1]:.4f} "
          f"supU={traj.sup_m[-1]:.3e} supV={traj.sup_n[-1]:.3e}")
    return EXIT_OK


def cmd_lyapunov(cfg: RunConfig, args) -> int:
    spec = cfg.model
    L = args.half_width if args.half_width is not None else spec.h0
    est = lyapunov_exponent(spec.linearization(), L, (spec.D1, spec.D2), cfg.lyapunov)
    print(f"lambda={est.lam:.6f} L={L:g} err={est.err:.3g} converged={est.converged}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    spec = cfg.model
    out = _outdir(cfg)
    Ls = cfg.run.L_list or np.linspace(0.4, 3.0, 10)
    result = lambda_sweep(spec.linearization(), (spec.D1, spec.D2), Ls, cfg.lyapunov)
    write_csv(
        out / "lambda_sweep.csv",
        ["L", "lambda", "err"],
        [(L, e.lam, e.err) for L, e in result.entries],
    )
    write_sweep_plot(result.entries, out / "lambda_vs_L.svg")
    for L, e in result.entries:
        print(f"L={L:g} lambda={e.lam:.6f} err={e.err:.3g} converged={e.converged}")
    if result.violations:
        print(f"monotonicity violations: {result.violations}", file=sys.stderr)
    return EXIT_OK


def _find_lstar(cfg: RunConfig):
    """find_L_star on the [run] bracket with the program's search."""
    spec = cfg.model
    return find_L_star(spec.linearization(), (spec.D1, spec.D2), (cfg.run.L_lo, cfg.run.L_hi),
                       cfg.search_config())


def _resolve_lstar(cfg: RunConfig, args) -> float:
    return checked_L_star(args.L_star) if args.L_star is not None else _find_lstar(cfg)[0]


def _check_start(cfg: RunConfig, h0s) -> None:
    """Validate [init] at every h0 a command will run, before any search: a sampled start fixes h0."""
    for h0 in h0s:
        try:
            cfg.init.validate(replace(cfg.model, h0=h0))
        except ValueError as e:
            raise ValueError(f"{e} (h0={h0:g})") from None


def _classify(cfg: RunConfig, L_star: float):
    return classify(_simulate(cfg), L_star)


def _find_mustar(cfg: RunConfig, L_star: float, out: Path):
    """find_mu_star on the [run] bracket with [solver] probes, writing its transcript to out.

    Returns (mu_star, iterations, transcript monotone).
    """
    mcfg = MuStarConfig(solver=cfg.solver, L_star=L_star)
    mu_star, iters, transcript = find_mu_star(cfg.model, cfg.init, (cfg.run.mu_lo, cfg.run.mu_hi), mcfg)
    write_csv(
        out / "mustar_transcript.csv",
        ["mu", "spreading", "t_end"],
        [(r.mu, 1.0 if r.verdict == "Spreading" else 0.0, r.t_end) for r in transcript],
    )
    return mu_star, iters, transcript_monotone(transcript)


def cmd_find_lstar(cfg: RunConfig, args) -> int:
    L_star, iters = _find_lstar(cfg)
    print(f"L_star={L_star:.4f} iterations={iters}")
    return EXIT_OK


def cmd_find_mustar(cfg: RunConfig, args) -> int:
    _check_start(cfg, [cfg.model.h0])
    out = _outdir(cfg)
    mu_star, iters, monotone = _find_mustar(cfg, _resolve_lstar(cfg, args), out)
    print(f"mu_star={mu_star:.4f} iterations={iters} monotone={monotone}")
    return EXIT_OK


def cmd_classify(cfg: RunConfig, args) -> int:
    _check_start(cfg, [cfg.model.h0])
    cls = _classify(cfg, _resolve_lstar(cfg, args))
    print(f"verdict={cls.verdict} final_width={cls.evidence['final_width']:.4f} "
          f"supU={cls.evidence['final_sup_U']:.3e}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    out = _outdir(cfg)
    rows = manufactured_convergence()
    write_csv(
        out / "convergence.csv",
        ["spatial", "J", "dt", "error", "order"],
        [
            (1.0 if r["study"] == "spatial" else 0.0, r["J"], r["dt"], r["error"],
             r["order"] if np.isfinite(r["order"]) else -1.0)
            for r in rows
        ],
    )
    for r in rows:
        print(f"{r['study']:>8}  J={r['J']:<4d} dt={r['dt']:.2e} "
              f"error={r['error']:.3e} order={r['order']:.3f}")
    ok = all(lo <= observed_orders(rows, study)[-1] <= hi for study, (lo, hi) in ORDER_BANDS.items())

    spec = replace(cfg.model, h0=max(cfg.model.h0, 1.0))
    scfg = replace(cfg.solver, t_end=10.0, dt_min=0.02, dt_max=0.02, J=200,
                   output_times=(5.0, 10.0))
    # an ordered pair within capacity: 8 % and 12 % of N1, 7.5 % and 11.25 % of N2
    base = InitialData(amp_U=0.08 * spec.N1, amp_V=1.5 * spec.N2 / 20.0)
    upper = InitialData(amp_U=0.12 * spec.N1, amp_V=2.25 * spec.N2 / 20.0)
    report = comparison_suite(spec, base, upper, scfg)
    print(f"comparison passed={report['passed']}")
    ok = ok and report["passed"]
    print(f"verify {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_reproduce_paper(cfg: RunConfig, args) -> int:
    _check_start(cfg, [h0 for h0, _ in CASES] + [MU_STAR_H0])
    out = _outdir(cfg)
    print("estimating exponent-based critical half-width ...")
    L_star, _ = _find_lstar(cfg)
    print(f"  L_star(lambda) = {L_star:.4f}")

    verdicts = {}
    rows = []
    for h0, mu in CASES:
        cls = _classify(replace(cfg, model=replace(cfg.model, h0=h0, mu=mu)), L_star)
        verdicts[(h0, mu)] = cls.verdict
        rows.append((h0, mu, 1.0 if cls.verdict == "Spreading" else 0.0,
                     cls.evidence["final_width"], cls.evidence["final_sup_U"]))
        print(f"  h0={h0:<4} mu={mu:<4} -> {cls.verdict:<12} "
              f"width={cls.evidence['final_width']:.3f} supU={cls.evidence['final_sup_U']:.2e}")
    write_csv(out / "verdicts.csv", ["h0", "mu", "spreading", "final_width", "final_supU"], rows)

    L_bracket = halfwidth_bracket(verdicts)
    bracket_ok = not np.isnan(L_bracket[0])
    print(f"  half-width threshold bracket from verdicts: ({L_bracket[0]:g}, {L_bracket[1]:g})")

    mu_bracket = (cfg.run.mu_lo, cfg.run.mu_hi)
    mu_star = float("nan")
    monotone = True
    mu_bracket_ok = True
    try:
        mu_star, _, monotone = _find_mustar(replace(cfg, model=replace(cfg.model, h0=MU_STAR_H0)),
                                            L_star, out)
    except BadBracketError as e:
        mu_bracket_ok = False
        print(f"mu bracket does not straddle the threshold: {e}", file=sys.stderr)
    print(f"  mu threshold bracket: ({mu_bracket[0]:g}, {mu_bracket[1]:g}), "
          f"refined mu_star={mu_star:.4f}, transcript monotone={monotone}")

    write_csv(
        out / "summary.csv",
        ["L_star_lambda", "L_bracket_lo", "L_bracket_hi", "mu_lo", "mu_hi", "mu_star"],
        [(L_star, L_bracket[0], L_bracket[1], mu_bracket[0], mu_bracket[1], mu_star)],
    )
    regimes_ok = all(verdicts[c] == v for c, v in CASES.items())
    print(f"regimes {'PASS' if regimes_ok else 'FAIL'}; "
          f"bracket {'PASS' if bracket_ok else 'FAIL'}; "
          f"mu bracket {'PASS' if mu_bracket_ok else 'FAIL'}")
    return EXIT_OK if (regimes_ok and bracket_ok and mu_bracket_ok and monotone) else EXIT_VERIFY


# each subcommand: its handler, its help and the flags it reads; a flag that
# a subcommand would ignore is a usage error there
_COMMANDS = {
    "simulate": (cmd_simulate, "integrate the free-boundary system",
                 ("--h0", "--mu", "--t-end", "--grid")),
    "lyapunov": (cmd_lyapunov, "one principal-exponent estimate", ("--half-width",)),
    "sweep-lambda": (cmd_sweep, "exponent sweep over half-widths", ("--L-list",)),
    "find-lstar": (cmd_find_lstar, "bisect the exponent zero crossing", ()),
    "find-mustar": (cmd_find_mustar, "bisect the critical expansion rate",
                    ("--h0", "--t-end", "--grid", "--L-star")),
    "classify": (cmd_classify, "simulate and classify spreading/vanishing",
                 ("--h0", "--mu", "--t-end", "--grid", "--L-star")),
    "verify": (cmd_verify, "convergence and comparison suites", ("--h0", "--mu")),
    "reproduce-paper": (cmd_reproduce_paper, "run the reference experiment battery", ()),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="wnvfront", description=__doc__)
    p.add_argument("--config", type=str, default=None, help="path to a run config file")
    p.add_argument("--out", type=str, default=None, help="output directory")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.set_defaults(handler=handler)
        for flag in flags:
            sp.add_argument(flag, default=None, **_FLAGS[flag])
    return p


def cli_main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _load(args)
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(cfg, args)
    except (BadBracketError, NotConvergedError, ArithmeticError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as e:
        # inputs the config cannot check alone, such as --half-width -1 or
        # --L-star nan, or verify's comparison data above a small capacity N1
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # an output that cannot be written, such as an --out naming a file
        print(f"cannot write output: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> int:
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
