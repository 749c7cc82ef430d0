"""Benchmark of wnvfront: regime runs, the L* search and the mu* search.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  Each run repeats whole rounds of the workload's
operations while another round still fits in ``--seconds`` (at least one),
checks every output, and prints one JSON object as the last line of
standard output.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it runs one round untraced, then traced rounds, and
reports the per-layer metrics.  Details and reference figures: README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s; the median is reported
# per-layer names of the untraced operation times, one per operation
OP_METRICS = {
    "simulate_spread": "cli.simulate_spread_s",
    "simulate_vanish": "cli.simulate_vanish_s",
    "lstar": "thresholds.lstar_s",
    "lstar_const": "thresholds.lstar_const_s",
    "mustar": "thresholds.mustar_s",
}


def _import_program():
    """Import wnvfront from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "wnvfront" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'wnvfront'}")
    sys.path[:0] = [str(src), str(HERE)]
    import wnvfront

    if Path(wnvfront.__file__).resolve().parent != (src / "wnvfront").resolve():
        raise SystemExit(f"error: wnvfront imported from {wnvfront.__file__}, not from {src}")
    return wnvfront


def _setup_probe(workload: str) -> None:
    """Child mode: time the import of the program and the construction of the inputs."""
    t0 = time.perf_counter()
    _import_program()
    import workloads

    workloads.BUILDERS[workload](ROOT)
    print(repr(time.perf_counter() - t0))


def _setup_seconds(workload: str) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up of {workload} failed")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _program_modules() -> dict:
    """The program's modules that hooks target; a module that is gone is left out."""
    modules = {}
    for name in ("cli", "solver", "coefficients", "transform", "lyapunov", "thresholds"):
        try:
            modules[name] = importlib.import_module(f"wnvfront.{name}")
        except ImportError:
            pass
    return modules


class Runner:
    """Runs rounds of operations, counting attempts and failures and collecting check failures."""

    def __init__(self, wl, ref):
        self.wl, self.ref = wl, ref
        self.attempted = self.failed = 0
        self.errors = []
        self.tracer = None  # once set, each operation is the root span of its calls

    def round(self) -> dict:
        """Run every operation once; returns the wall time of each call that did not fail."""
        times = {}
        for op in self.wl.ops:
            if op.prepare is not None:
                op.prepare()
            self.attempted += 1
            span = self.tracer.span(f"op.{op.name}") if self.tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    result = op.call()
            except Exception as exc:  # a failed operation is counted, and the run goes on
                self.failed += 1
                self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            times[op.name] = time.perf_counter() - t0
            try:
                failures = op.check(result, self.ref)
            except Exception as exc:  # unreadable output fails the check, not the run
                failures = [f"check raised {type(exc).__name__}: {exc}"]
            self.errors += [f"{op.name}: {e}" for e in failures]
        return times


def _measure(runner: Runner, seconds: float) -> list:
    """Whole rounds while the next one still fits in ``seconds`` (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(runner.round())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return rounds


def _traced_metrics(runner: Runner, seconds: float, tracer) -> tuple:
    """One untraced round, then traced rounds in the time left; per-layer metrics."""
    t0, cpu0 = time.perf_counter(), time.process_time()
    untraced = runner.round()
    cpu = time.process_time() - cpu0
    tracer.install(_program_modules())
    runner.tracer = tracer
    try:
        traced = _measure(runner, seconds - (time.perf_counter() - t0))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(traced))
    metrics["process.cpu_s"] = cpu
    metrics["trace.overhead_s"] = statistics.mean(sum(r.values()) for r in traced) - sum(untraced.values())
    for op, name in OP_METRICS.items():
        metrics[name] = untraced.get(op, 0.0)
    return [untraced, *traced], metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0, help="recorded only: every input is fixed")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload)
        return 0

    _import_program()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.BUILDERS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    setup = _setup_seconds(args.workload)
    wl = workloads.BUILDERS[args.workload](ROOT)
    runner = Runner(wl, workloads.reference(ROOT))
    tracer = Tracer()
    t_run = time.perf_counter()

    if args.trace:
        rounds, metrics = _traced_metrics(runner, args.seconds, tracer)
    else:
        rounds = _measure(runner, args.seconds)
        metrics = {
            "round_s": statistics.median(sum(r.values()) for r in rounds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    runner.errors += wl.final_check(runner.ref)
    for e in runner.errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        # in the declared order; a metric whose hook target is gone is left out
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  rounds=rounds, setup_samples=setup, run_s=time.perf_counter() - t_run, errors=runner.errors)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        tracer.write(path, record)
    else:
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
