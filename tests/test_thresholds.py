import numpy as np
import pytest
from scipy.optimize import brentq

import wnvfront.thresholds as th
from wnvfront.coefficients import LinearizationMatrix
from wnvfront.lyapunov import EstimatorConfig, lyapunov_constant_oracle
from wnvfront.solver import SolverConfig, Trajectory
from wnvfront.thresholds import (
    BadBracketError,
    LStarConfig,
    MuStarConfig,
    ProbeRecord,
    classify,
    find_L_star,
    find_mu_star,
    transcript_monotone,
)


def _traj(t, width, sup):
    """Synthetic completed trajectory with symmetric fronts."""
    t = np.asarray(t, float)
    width = np.broadcast_to(np.asarray(width, float), t.shape)
    sup = np.broadcast_to(np.asarray(sup, float), t.shape)
    zeros = np.zeros_like(t)
    return Trajectory(
        t=t, g=-0.5 * width, h=0.5 * width, gdot=zeros, hdot=zeros,
        sup_m=sup.copy(), sup_n=sup.copy(),
        snapshots=[], status="completed",
    )


def test_classify_zero_data_vanishing():
    traj = _traj(np.linspace(0, 100, 50), 2.0, 0.0)
    assert classify(traj, L_star=1.0).verdict == "Vanishing"


def test_classify_spreading():
    t = np.linspace(0, 100, 200)
    traj = _traj(t, 2.0 + 0.5 * t, 0.5)
    cls = classify(traj, L_star=1.0)
    assert cls.verdict == "Spreading"
    assert cls.evidence["max_width"] > cls.evidence["width_bar"]


def test_classify_undetermined_and_determinism():
    traj = _traj(np.linspace(0, 100, 50), 2.0, 0.5)
    a = classify(traj, L_star=2.0)
    b = classify(traj, L_star=2.0)
    assert a.verdict == "Undetermined"
    assert a == b


def test_classify_rejects_failed_runs():
    traj = _traj(np.linspace(0, 10, 20), 2.0, 0.5)
    traj.status = "blowup"
    with pytest.raises(th.FailedRunError):
        classify(traj, 1.0)


@pytest.mark.parametrize("L_star", [0.0, -1.0, np.nan, np.inf])
def test_lstar_must_be_positive_and_finite(L_star):
    traj = _traj(np.linspace(0, 10, 20), 2.0, 0.5)
    with pytest.raises(ValueError, match="L_star"):
        classify(traj, L_star)
    with pytest.raises(ValueError, match="L_star"):
        MuStarConfig(L_star=L_star)


AUTONOMOUS_LSTAR = LStarConfig(
    estimator=EstimatorConfig(J=128, dt=0.005, horizon=150.0),
    shifts=(0.0,),
)


def test_find_lstar_matches_analytic_root():
    A0 = [[-0.1, 0.528], [1.92, -0.029]]
    D = (3.0, 0.125)
    root = brentq(lambda L: lyapunov_constant_oracle(A0, L, D), 0.3, 3.0)
    L_star, iters = find_L_star(LinearizationMatrix.constant(A0), D, (0.3, 3.0),
                                AUTONOMOUS_LSTAR)
    assert iters >= 1
    assert L_star == pytest.approx(root, abs=1e-2)


def test_find_lstar_bad_bracket():
    # strongly damped matrix: exponent negative for every L
    A0 = [[-5.0, 0.1], [0.1, -5.0]]
    with pytest.raises(BadBracketError):
        find_L_star(LinearizationMatrix.constant(A0), (1.0, 1.0), (0.3, 3.0),
                    LStarConfig(estimator=EstimatorConfig(J=64, dt=0.01, horizon=40.0),
                                shifts=(0.0,)))


def test_find_lstar_raises_on_undecided_estimate():
    # a horizon of 25 reads only the first checkpoint, where err is inf
    cfg = LStarConfig(estimator=EstimatorConfig(J=32, dt=0.1, horizon=25.0), shifts=(0.0,))
    with pytest.raises(th.NotConvergedError, match="not converged"):
        find_L_star(LinearizationMatrix.constant([[-0.1, 0.528], [1.92, -0.029]]),
                    (3.0, 0.125), (0.3, 3.0), cfg)


def test_find_lstar_rejects_bad_interval():
    mat = LinearizationMatrix.constant([[-0.1, 0.528], [1.92, -0.029]])
    with pytest.raises(ValueError):
        find_L_star(mat, (3.0, 0.125), (2.0, 1.0), AUTONOMOUS_LSTAR)


def test_lstar_independent_of_horizon(ref_spec):
    mat, D = ref_spec.linearization(), (ref_spec.D1, ref_spec.D2)
    found = []
    for horizon in (400.0, 800.0, 1600.0):
        cfg = LStarConfig(estimator=EstimatorConfig(J=32, dt=0.5, horizon=horizon))
        found.append(find_L_star(mat, D, (0.3, 3.0), cfg)[0])
    assert max(found) - min(found) <= LStarConfig.bracket_tol, found


class _MuProbeStub:
    """Replaces simulate/classify so the bisection logic runs without PDE solves."""

    def __init__(self, mu_star):
        self.mu_star = mu_star

    def simulate(self, spec, init, cfg):
        return spec  # carry mu through

    def classify(self, spec, L_star):
        verdict = "Spreading" if spec.mu > self.mu_star else "Vanishing"
        return th.Classification(verdict, {})


def test_find_mustar_bisection_with_stub(monkeypatch, ref_spec):
    stub = _MuProbeStub(mu_star=0.147)
    monkeypatch.setattr(th, "simulate", stub.simulate)
    monkeypatch.setattr(th, "classify", stub.classify)
    mu_star, iters, transcript = find_mu_star(
        ref_spec, None, (0.1, 0.2), MuStarConfig(rel_tol=1e-2)
    )
    assert mu_star == pytest.approx(0.147, abs=0.2 * 1e-2 + 5e-4)
    assert iters >= 1
    assert transcript_monotone(transcript)


def test_find_mustar_degenerate_bracket(monkeypatch, ref_spec):
    stub = _MuProbeStub(mu_star=0.01)  # even mu_lo spreads
    monkeypatch.setattr(th, "simulate", stub.simulate)
    monkeypatch.setattr(th, "classify", stub.classify)
    with pytest.raises(BadBracketError):
        find_mu_star(ref_spec, None, (0.1, 0.2), MuStarConfig())
    with pytest.raises(ValueError):
        find_mu_star(ref_spec, None, (0.2, 0.1), MuStarConfig())


def test_find_mustar_raises_at_iteration_cap(monkeypatch, ref_spec):
    # a tolerance of 2e-16 on mu needs more halvings of 0.1 than the cap allows
    stub = _MuProbeStub(mu_star=0.147)
    monkeypatch.setattr(th, "simulate", stub.simulate)
    monkeypatch.setattr(th, "classify", stub.classify)
    with pytest.raises(th.NotConvergedError):
        find_mu_star(ref_spec, None, (0.1, 0.2), MuStarConfig(rel_tol=1e-15))


@pytest.mark.parametrize("build", [
    lambda: MuStarConfig(rel_tol=0.0), lambda: LStarConfig(bracket_tol=0.0),
])
def test_search_tolerances_must_be_positive(build):
    with pytest.raises(ValueError):
        build()


class _SlowProbeStub(_MuProbeStub):
    """Probes stay Undetermined until the horizon reaches ``decided_at``."""

    def __init__(self, mu_star, decided_at):
        super().__init__(mu_star)
        self.decided_at = decided_at
        self.horizons = []

    def simulate(self, spec, init, cfg):
        self.horizons.append(cfg.t_end)
        return spec, cfg.t_end

    def classify(self, run, L_star):
        spec, t_end = run
        if t_end < self.decided_at:
            return th.Classification("Undetermined", {})
        return super().classify(spec, L_star)


def test_find_mustar_extends_horizon_until_decided(monkeypatch, ref_spec):
    stub = _SlowProbeStub(mu_star=0.147, decided_at=1200.0)
    monkeypatch.setattr(th, "simulate", stub.simulate)
    monkeypatch.setattr(th, "classify", stub.classify)
    mu_star, _, transcript = find_mu_star(
        ref_spec, None, (0.1, 0.2), MuStarConfig(solver=SolverConfig(t_end=300.0))
    )
    assert stub.horizons[:3] == [300.0, 600.0, 1200.0]
    assert mu_star == pytest.approx(0.147, abs=0.2 * 1e-2 + 5e-4)
    assert all(r.verdict != "Undetermined" and r.t_end == 1200.0 for r in transcript)
    assert transcript_monotone(transcript)


def test_find_mustar_undetermined_at_horizon_bound(monkeypatch, ref_spec):
    stub = _SlowProbeStub(mu_star=0.147, decided_at=4800.0)
    monkeypatch.setattr(th, "simulate", stub.simulate)
    monkeypatch.setattr(th, "classify", stub.classify)
    with pytest.raises(th.NotConvergedError):
        find_mu_star(ref_spec, None, (0.1, 0.2), MuStarConfig(solver=SolverConfig(t_end=300.0)))
    # the configured horizon and three doublings: the bound is 8x
    assert stub.horizons == [300.0, 600.0, 1200.0, 2400.0]


def test_transcript_monotone():
    good = [ProbeRecord(0.1, "Vanishing", 300.0), ProbeRecord(0.2, "Spreading", 300.0),
            ProbeRecord(0.15, "Vanishing", 300.0)]
    assert transcript_monotone(good)
    bad = good + [ProbeRecord(0.25, "Vanishing", 300.0)]
    assert not transcript_monotone(bad)

