import numpy as np
import pytest

from wnvfront.coefficients import LinearizationMatrix
from wnvfront.lyapunov import (
    EstimatorConfig,
    lambda_sweep,
    lyapunov_constant_oracle,
    lyapunov_exponent,
)

FAST = EstimatorConfig(J=96, dt=0.01, horizon=60.0)


def test_oracle_symmetric_zero_row_sum():
    assert lyapunov_constant_oracle([[-1.0, 1.0], [1.0, -1.0]], 2.0, (0.0, 0.0)) == 0.0


def test_oracle_decoupled_diagonal():
    # L = pi/2 makes (pi/2L)^2 = 1, so M = diag(-2, -3)
    lam = lyapunov_constant_oracle([[-1.0, 0.0], [0.0, -2.0]], 0.5 * np.pi, (1.0, 1.0))
    assert lam == pytest.approx(-2.0, abs=1e-14)


def test_oracle_coupled_quadratic_root():
    lam = lyapunov_constant_oracle([[-1.0, 2.0], [3.0, -2.0]], 5.0, (0.0, 0.0))
    assert lam == pytest.approx(1.0, abs=1e-12)
    # cross-check against the dense eigenvalue routine
    eig = np.max(np.linalg.eigvals(np.array([[-1.0, 2.0], [3.0, -2.0]])).real)
    assert lam == pytest.approx(eig, abs=1e-12)


def test_estimator_matches_oracle_constant_matrix():
    A0 = [[-0.8, 0.6], [1.2, -0.9]]
    D = (0.5, 0.25)
    cfg = EstimatorConfig(J=160, dt=0.005, horizon=120.0)
    for L in (1.5, 3.0):
        est = lyapunov_exponent(LinearizationMatrix.constant(A0), L, D, cfg)
        assert est.lam == pytest.approx(lyapunov_constant_oracle(A0, L, D), abs=2e-3)
        assert est.positive_cone


def test_estimator_near_decoupled_limit():
    # off-diagonals at 1e-8 perturb the decoupled exponent only at that scale
    A0 = [[-0.3, 1e-8], [1e-8, -0.35]]
    D = (1.0, 0.5)
    L = 2.0
    est = lyapunov_exponent(LinearizationMatrix.constant(A0), L, D,
                            EstimatorConfig(J=160, dt=0.002, horizon=120.0))
    expected = max(-d - Di * (np.pi / (2 * L)) ** 2
                   for d, Di in zip((0.3, 0.35), D))
    assert est.lam == pytest.approx(expected, abs=1e-3)


def test_estimator_grid_robustness():
    A0 = [[-0.5, 0.8], [0.3, -0.7]]
    D = (0.5, 0.25)
    e1 = lyapunov_exponent(LinearizationMatrix.constant(A0), 2.0, D,
                           EstimatorConfig(J=96, dt=0.005, horizon=120.0))
    e2 = lyapunov_exponent(LinearizationMatrix.constant(A0), 2.0, D,
                           EstimatorConfig(J=192, dt=0.005, horizon=120.0))
    assert e1.lam == pytest.approx(e2.lam, abs=5e-3)


def test_sweep_monotone_and_matches_oracle():
    A0 = [[-1.0, 0.5], [0.5, -1.0]]
    D = (0.5, 0.25)
    Ls = list(np.linspace(1.5, 4.0, 6))
    res = lambda_sweep(LinearizationMatrix.constant(A0), D, Ls,
                       EstimatorConfig(J=128, dt=0.002, horizon=120.0))
    assert res.violations == []
    for L, est in res.entries:
        assert est.lam == pytest.approx(lyapunov_constant_oracle(A0, L, D), abs=2e-3)
    lams = [est.lam for _, est in res.entries]
    assert all(b >= a - 1e-6 for a, b in zip(lams, lams[1:]))


def test_sweep_requires_sorted_L():
    with pytest.raises(ValueError):
        lambda_sweep(LinearizationMatrix.constant([[-1.0, 0.5], [0.5, -1.0]]),
                     (1.0, 1.0), [2.0, 1.0], FAST)


def test_large_L_limit_reaches_perron_root():
    A0 = np.array([[-1.0, 1.0], [1.0, -1.0]])
    perron = float(np.max(np.linalg.eigvals(A0).real))
    lam = lyapunov_constant_oracle(A0, 1e3, (1.0, 1.0))
    assert abs(lam - perron) < 1e-3


def test_reference_mean_matrix_has_sign_change():
    # the reference rates frozen at their temporal/spatial means give a
    # constant cooperative matrix whose exponent crosses zero in L
    A0 = [[-0.1, 0.88 * 0.6], [0.16 * 0.6 * 20.0, -0.029]]
    D = (3.0, 0.125)
    lams = [lyapunov_constant_oracle(A0, L, D) for L in (0.3, 3.0)]
    assert lams[0] < 0 < lams[1]


def test_reference_estimate_positive_at_wide_interval(ref_spec):
    est = lyapunov_exponent(ref_spec.linearization(), 2.0, (ref_spec.D1, ref_spec.D2),
                            EstimatorConfig(J=96, dt=0.02, horizon=200.0))
    assert est.lam > 0


def test_invalid_L_rejected(ref_spec):
    with pytest.raises(ValueError):
        lyapunov_exponent(ref_spec.linearization(), -1.0, (1.0, 1.0), FAST)


@pytest.mark.parametrize("kind", ["reference", "constant", "renormalising"])
def test_batched_shifts_equal_worst_single_shift(kind, ref_spec):
    # exact equality: no coupling leaks across the block edges
    if kind == "constant":
        mat = LinearizationMatrix.constant([[-0.1, 0.528], [1.92, -0.029]])
    else:
        mat = ref_spec.linearization()
    D = (ref_spec.D1, ref_spec.D2)
    cfg = EstimatorConfig(J=24, dt=0.1, horizon=40.0)
    cases = [(shifts, L) for shifts in ((-20.0, 0.0, 20.0), (20.0, 3.5, -5.0, -20.0))
             for L in (0.5, 2.0)]
    if kind == "renormalising":
        # at L=1.25 shift 0 grows and shift 2.5 decays: both blocks renormalise,
        # at different steps, and shift -10 does not within the horizon.  At this
        # tol shifts 2.5 and -10 are decided at T=800 and shift 0 only at the cap,
        # so the batched call carries two frozen blocks to T=1000
        cfg = EstimatorConfig(J=24, dt=0.5, horizon=1000.0, tol=3.8e-5)
        cases = [((0.0, 2.5, -10.0), 1.25)]
    for shifts, L in cases:
        batched = lyapunov_exponent(mat, L, D, cfg, shifts=shifts)
        single = [lyapunov_exponent(mat, L, D, cfg, shifts=(s,)) for s in shifts]
        worst = min(single, key=lambda e: e.lam)
        assert batched == worst
        assert batched.shift == shifts[single.index(worst)]
    if kind == "renormalising":
        grows, decays, still = single
        assert grows.lam > 0 and grows.renorm_count > 0
        assert decays.lam < 0 and decays.renorm_count > 0
        assert still.renorm_count == 0


# lam of the same runs to horizon 1600 at tol=1e-14, whose own error bars are below 1.5e-5
@pytest.mark.parametrize("L, shift, limit", [
    (1.27, 0.0, 0.0541838), (1.27, -20.0, -0.0062844), (3.0, 10.0, 0.5825943),
])
@pytest.mark.parametrize("tol", [5e-3, 2.5e-3])
def test_error_bar_holds_the_long_horizon_limit(ref_spec, L, shift, limit, tol):
    # the search estimator's settings; at tol=2.5e-3 a factor of 2 in place of
    # ERR_FACTOR = 3 would miss the limit
    est = lyapunov_exponent(ref_spec.linearization(), L, (ref_spec.D1, ref_spec.D2),
                            EstimatorConfig(J=128, dt=0.02, horizon=400.0, tol=tol),
                            shifts=(shift,))
    assert est.converged
    assert abs(est.lam - limit) <= est.err


def test_batched_shifts_require_one():
    with pytest.raises(ValueError):
        lyapunov_exponent(LinearizationMatrix.constant([[-1.0, 0.5], [0.5, -1.0]]),
                          1.0, (1.0, 1.0), FAST, shifts=())


@pytest.mark.parametrize("bad", [
    dict(dt=0.0), dict(dt=-0.1), dict(horizon=0.005), dict(J=1), dict(dt=float("nan")),
    dict(horizon=float("nan")), dict(tol=float("nan")), dict(tol=0.0),
])
def test_estimator_config_validation(bad):
    with pytest.raises(ValueError):
        EstimatorConfig(**{**vars(FAST), **bad})
