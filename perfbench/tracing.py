"""Tracing from outside the program: hooks around the public calls into each module.

A hook replaces one attribute (a module function, a name another module
imported, or a class method) with a wrapper that counts calls, calls that
raised, and time spent.  Coarse calls also record spans (name, start, end,
parent) in memory; calls made thousands of times per run (a step, a banded
solve, a coefficient evaluation) record counts and time only, so that the
trace stays small and its overhead low.  A hook whose target no longer exists
is reported as missing, and every metric that depends on it is left out of
the result rather than reported wrong.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Hook:
    name: str  # the name used in spans and metrics
    module: str  # short module name, a key of the modules mapping
    target: str  # attribute path inside the module, e.g. "FrontGeometry.metric_terms"
    span: bool = False  # record a span per call (coarse calls only)
    on_return: Optional[Callable] = None  # (tracer, bound arguments, result): extra counters


def _lyapunov_return(tracer, args, est):
    cfg = args["cfg"]
    tracer.add("lyapunov.exponent_steps", int(round(cfg.horizon / cfg.dt)))
    tracer.add("lyapunov.renorms", est.renorm_count)
    tracer.add("lyapunov.unconverged", 0 if est.converged else 1)
    search = tracer.enclosing("thresholds.find_L_star")
    tracer.halfwidths.add((search, float(args["L"])))


def _simulate_return(tracer, args, traj):
    tracer.add("thresholds.probe_sim_time", float(args["cfg"].t_end))


def _mustar_return(tracer, args, result):
    tracer.add("thresholds.probes", len(result[2]))


HOOKS: Tuple[Hook, ...] = (
    Hook("config.load_config", "cli", "load_config", span=True),
    Hook("cli.simulate", "cli", "simulate", span=True),
    Hook("output.write_trajectory_csv", "cli", "write_trajectory_csv", span=True),
    Hook("output.write_plots", "cli", "write_plots", span=True),
    Hook("solver.step", "solver", "step"),
    Hook("solver.solve_banded", "solver", "solve_banded"),
    Hook("coefficients.eval", "coefficients", "CoefficientField.eval"),
    Hook("coefficients.entries", "coefficients", "LinearizationMatrix.entries"),
    Hook("transform.metric_terms", "transform", "FrontGeometry.metric_terms"),
    Hook("lyapunov.lyapunov_exponent", "thresholds", "lyapunov_exponent", span=True,
         on_return=_lyapunov_return),
    Hook("lyapunov.solve_banded", "lyapunov", "solve_banded"),
    Hook("thresholds.find_L_star", "thresholds", "find_L_star", span=True),
    Hook("thresholds.find_mu_star", "thresholds", "find_mu_star", span=True,
         on_return=_mustar_return),
    Hook("thresholds.simulate", "thresholds", "simulate", span=True, on_return=_simulate_return),
    Hook("thresholds.classify", "thresholds", "classify", span=True),
)


@dataclass
class Stat:
    calls: int = 0
    raised: int = 0
    seconds: float = 0.0


@dataclass
class Tracer:
    """Installs hooks, collects spans and counts, and derives per-layer metrics."""

    hooks: Tuple[Hook, ...] = HOOKS
    stats: Dict[str, Stat] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    halfwidths: set = field(default_factory=set)
    spans: List[tuple] = field(default_factory=list)  # (id, name, start, end, parent)
    missing: List[str] = field(default_factory=list)
    _stack: List[Tuple[int, str]] = field(default_factory=list)
    _ids: Iterator[int] = field(default_factory=itertools.count)
    _installed: List[tuple] = field(default_factory=list)

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def enclosing(self, name: str) -> Optional[int]:
        """Id of the innermost open span with this name, if any."""
        for span_id, span_name in reversed(self._stack):
            if span_name == name:
                return span_id
        return None

    def install(self, modules: Dict[str, object]) -> None:
        for hook in self.hooks:
            owner = modules.get(hook.module)
            *path, attr = hook.target.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(hook.name)
                continue
            self.stats[hook.name] = Stat()
            setattr(owner, attr, self._wrap(hook, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, hook: Hook, fn):
        stat = self.stats[hook.name]
        clock = time.perf_counter

        if not hook.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat.raised += 1
                    raise
                finally:
                    stat.calls += 1
                    stat.seconds += clock() - t0
            return counted

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(hook.name, stat):
                result = fn(*args, **kwargs)
            if hook.on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook.on_return(self, bound.arguments, result)
            return result
        return spanned

    @contextlib.contextmanager
    def span(self, name: str, stat: Optional[Stat] = None):
        """Record one span; the innermost open span is its parent."""
        span_id = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, name))
        start = time.perf_counter()
        raised = False
        try:
            yield
        except BaseException:
            raised = True
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))
            if stat is not None:
                stat.calls += 1
                stat.seconds += end - start
                stat.raised += raised

    # -- results ------------------------------------------------------------

    def metrics(self, rounds: int) -> Dict[str, float]:
        """Per-layer metrics per traced round; those that need a missing hook are left out."""
        out = {}
        for name, (needs, fn) in _METRICS.items():
            if any(h not in self.stats for h in needs):
                continue
            out[name] = fn(self, rounds)
        return out

    def self_times(self) -> Dict[str, float]:
        """Span duration minus the part its child spans cover, summed by name."""
        child = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for span_id, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child.get(span_id, 0.0)
        return out

    def write(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["missing_hooks"] = self.missing
        doc["stats"] = {k: vars(v) for k, v in self.stats.items()}
        doc["counters"] = self.counters
        doc["self_time_s"] = self.self_times()
        doc["spans"] = [dict(zip(("id", "name", "start", "end", "parent"), s)) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def _per_call(tracer, name, scale):
    s = tracer.stats[name]
    return s.seconds / s.calls * scale if s.calls else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


# metric -> (hooks it needs, value from the tracer and the number of traced rounds)
_METRICS = {
    "solver.step_calls": (("solver.step",), lambda t, r: t.stats["solver.step"].calls / r),
    "solver.steps_rejected": (("solver.step",), lambda t, r: t.stats["solver.step"].raised / r),
    "solver.step_us": (("solver.step",), lambda t, r: _per_call(t, "solver.step", 1e6)),
    "solver.solves_per_step": (
        ("solver.step", "solver.solve_banded"),
        lambda t, r: _ratio(t.stats["solver.solve_banded"].calls, t.stats["solver.step"].calls),
    ),
    "solver.solve_us": (("solver.solve_banded",), lambda t, r: _per_call(t, "solver.solve_banded", 1e6)),
    "coefficients.eval_calls": (("coefficients.eval",), lambda t, r: t.stats["coefficients.eval"].calls / r),
    "coefficients.eval_us": (("coefficients.eval",), lambda t, r: _per_call(t, "coefficients.eval", 1e6)),
    "coefficients.entries_us": (
        ("coefficients.entries",), lambda t, r: _per_call(t, "coefficients.entries", 1e6)),
    "transform.metric_terms_us": (
        ("transform.metric_terms",), lambda t, r: _per_call(t, "transform.metric_terms", 1e6)),
    "lyapunov.estimates": (
        ("lyapunov.lyapunov_exponent",), lambda t, r: t.stats["lyapunov.lyapunov_exponent"].calls / r),
    "lyapunov.exponent_steps": (
        ("lyapunov.lyapunov_exponent",), lambda t, r: t.counters.get("lyapunov.exponent_steps", 0) / r),
    "lyapunov.estimate_s": (
        ("lyapunov.lyapunov_exponent",), lambda t, r: _per_call(t, "lyapunov.lyapunov_exponent", 1.0)),
    "lyapunov.step_us": (
        ("lyapunov.lyapunov_exponent",),
        lambda t, r: _ratio(t.stats["lyapunov.lyapunov_exponent"].seconds * 1e6,
                            t.counters.get("lyapunov.exponent_steps", 0)),
    ),
    "lyapunov.solve_us": (("lyapunov.solve_banded",), lambda t, r: _per_call(t, "lyapunov.solve_banded", 1e6)),
    "lyapunov.unconverged": (
        ("lyapunov.lyapunov_exponent",), lambda t, r: t.counters.get("lyapunov.unconverged", 0) / r),
    "lyapunov.renorms": (
        ("lyapunov.lyapunov_exponent",), lambda t, r: t.counters.get("lyapunov.renorms", 0) / r),
    "thresholds.halfwidths": (
        ("lyapunov.lyapunov_exponent", "thresholds.find_L_star"),
        lambda t, r: sum(1 for search, _ in t.halfwidths if search is not None) / r,
    ),
    "thresholds.probes": (
        ("thresholds.find_mu_star",), lambda t, r: t.counters.get("thresholds.probes", 0) / r),
    "thresholds.probe_sims": (
        ("thresholds.simulate",), lambda t, r: t.stats["thresholds.simulate"].calls / r),
    "thresholds.probe_sim_time": (
        ("thresholds.simulate",), lambda t, r: t.counters.get("thresholds.probe_sim_time", 0) / r),
    "thresholds.classify_ms": (
        ("thresholds.classify",), lambda t, r: _per_call(t, "thresholds.classify", 1e3)),
    "output.write_s": (
        ("output.write_trajectory_csv", "output.write_plots"),
        lambda t, r: _ratio(t.stats["output.write_trajectory_csv"].seconds
                            + t.stats["output.write_plots"].seconds,
                            t.stats["output.write_plots"].calls),
    ),
    "config.load_ms": (("config.load_config",), lambda t, r: _per_call(t, "config.load_config", 1e3)),
}
