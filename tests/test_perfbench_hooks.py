"""The benchmark's hooks still find every program attribute they wrap.

perfbench/tracing.py wraps module functions from outside the program and
reads their arguments and results by name.  A renamed function, argument or
result field would leave a hook missing, and the per-layer metrics that need
it would silently drop out of a traced benchmark run.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from wnvfront import InitialData, LinearizationMatrix, ModelSpec
from wnvfront.lyapunov import EstimatorConfig
from wnvfront.solver import SolverConfig
from wnvfront.thresholds import LStarConfig, MuStarConfig

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_is_installed_and_runs():
    tracing, run = _load("tracing"), _load("run")
    modules = run._program_modules()
    thresholds = modules["thresholds"]
    unwrapped = thresholds.find_L_star
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert tracer.missing == []
        # L* = pi / (2 sqrt(0.4)) ~ 2.48 for this matrix and unit diffusion
        const = LinearizationMatrix.constant(np.array([[-0.1, 0.5], [0.5, -0.1]]))
        # T=50 is the first checkpoint that can decide an estimate
        lcfg = LStarConfig(estimator=EstimatorConfig(J=16, dt=0.5, horizon=50.0), shifts=(0.0,))
        thresholds.find_L_star(const, (1.0, 1.0), (0.5, 10.0), lcfg)
        spec = ModelSpec(mu=0.1, h0=0.6)
        thresholds.simulate(spec, InitialData(), SolverConfig(J=16, t_end=0.5))
        scfg = SolverConfig(J=16, dt_min=0.5, dt_max=0.5, t_end=50.0)
        thresholds.find_mu_star(spec, InitialData(), (0.1, 3.0),
                                MuStarConfig(solver=scfg, L_star=1.2703))
        metrics = tracer.metrics(rounds=1)
    finally:
        tracer.uninstall()
    for hook in tracer.hooks:
        if hook.on_return is not None:
            assert tracer.stats[hook.name].calls > 0, hook.name
    for counter in ("lyapunov.exponent_steps", "lyapunov.renorms", "lyapunov.unconverged",
                    "thresholds.probe_sim_time", "thresholds.probes"):
        assert counter in tracer.counters, counter
    assert metrics["thresholds.halfwidths"] > 0
    assert thresholds.find_L_star is unwrapped


def test_benchmark_selftest_and_inputs_build():
    # the benchmark reads configs/ with configparser (checks.py) and with load_config
    # (the workload builders); build every input without running a round
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        ref = workloads.reference(ROOT)
        for name, build in workloads.BUILDERS.items():
            assert build(ROOT).ops, name
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("workloads", "checks"):
            sys.modules.pop(name, None)
    assert set(ref) == {"reference.cfg", "paper_fig1c.cfg"}
