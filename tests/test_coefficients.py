import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wnvfront.coefficients import (
    _PROFILE_RANGES,
    PROFILE_KINDS,
    CoefficientField,
    LinearizationMatrix,
    TemporalHarmonic,
    spatial_profile,
)
from wnvfront.lyapunov import EstimatorConfig, lyapunov_exponent
from wnvfront.model import ModelSpec


def almost_period(field: CoefficientField, eps: float, t_max: float = 1e4) -> float:
    """Search for an eps-translation number of the field's temporal factor.

    Candidates are integer multiples of the first harmonic's period; the
    best simultaneous near-period of all harmonics within t_max is
    returned.  Raises if no candidate achieves discrepancy < eps.
    """
    if field.is_autonomous:
        return 1.0  # every tau works; return a token value
    base_period = 2.0 * np.pi / field.harmonics[0].frequency
    n_max = max(1, int(t_max / base_period))
    k = np.arange(1, n_max + 1)
    taus = k * base_period
    # phase misfit of each remaining harmonic, as distance to the nearest 2*pi multiple
    misfit = np.zeros_like(taus)
    for h in field.harmonics[1:]:
        ang = h.frequency * taus
        d = np.abs(ang - 2.0 * np.pi * np.round(ang / (2.0 * np.pi)))
        misfit = np.maximum(misfit, np.abs(h.amplitude) * d)
    best = int(np.argmin(misfit))
    tau = float(taus[best])
    # verify by direct sampling of the temporal factor
    t = np.linspace(0.0, 4.0 * base_period, 400)
    diff = np.max(np.abs(field.eval(0.0, t + tau) - field.eval(0.0, t)))
    if diff >= eps:
        raise ValueError(
            f"no eps-translation number below t_max={t_max:g} (best diff {diff:.3g})"
        )
    return tau


def test_constant_field_identity():
    f = CoefficientField(0.37)
    x = np.linspace(-10, 10, 7)
    t = np.linspace(0, 100, 5)
    assert np.all(f.eval(x[:, None], t[None, :]) == 0.37)


def test_alpha1_reference_value():
    # 0.88 * (1 + 0.56) + 0.088 * 2 * 1 at the origin
    spec = ModelSpec()
    assert spec.alpha1.eval(0.0, 0.0) == pytest.approx(1.5488, abs=1e-12)


def test_other_reference_values_at_origin():
    spec = ModelSpec()
    assert spec.alpha2.eval(0.0, 0.0) == pytest.approx(0.216, abs=1e-12)
    assert spec.gamma.eval(0.0, 0.0) == pytest.approx(0.1, abs=1e-12)
    assert spec.death.eval(0.0, 0.0) == pytest.approx(0.029, abs=1e-12)


def test_shift_by_zero_is_identity():
    spec = ModelSpec()
    x = np.linspace(-5, 5, 11)
    t = np.linspace(0, 40, 13)
    f = spec.alpha1
    np.testing.assert_array_equal(f.shifted(0.0).eval(x[:, None], t), f.eval(x[:, None], t))


def test_constant_shift_is_identity():
    f = CoefficientField(1.3)
    t = np.linspace(0, 10, 9)
    np.testing.assert_array_equal(f.shifted(123.4).eval(0.0, t), f.eval(0.0, t))


def test_alpha1_exact_period_shift():
    # cos(t/2) has period 4*pi; shifting by it reproduces the field exactly
    spec = ModelSpec()
    x = np.linspace(-5, 5, 11)
    t = np.linspace(0, 40, 13)
    shifted = spec.alpha1.shifted(4.0 * np.pi)
    np.testing.assert_allclose(shifted.eval(x[:, None], t), spec.alpha1.eval(x[:, None], t),
                               rtol=0, atol=1e-12)


def test_shift_semantics_and_composition():
    spec = ModelSpec()
    f = spec.gamma
    tau = 2.7
    t = np.linspace(0, 30, 17)
    np.testing.assert_allclose(f.shifted(tau).eval(1.0, t), f.eval(1.0, t + tau),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(f.shifted(1.1).shifted(2.2).eval(0.5, t),
                               f.shifted(3.3).eval(0.5, t), rtol=0, atol=1e-12)


def test_positivity_on_dense_sample():
    spec = ModelSpec()
    x = np.linspace(-50, 50, 200)[:, None]
    t = np.linspace(0, 200, 200)[None, :]
    for f in (spec.alpha1, spec.alpha2, spec.gamma, spec.death):
        sampled = np.min(f.eval(x, t))
        assert sampled >= 1e-3
        assert f.infimum <= sampled


def test_negative_field_rejected():
    with pytest.raises(ValueError):
        CoefficientField(base=0.1, spatial_amp=5.0, spatial="ratio2_cos")


def test_dip_between_samples_rejected():
    # two incommensurate harmonics bring the field below -0.003 near t = 15.6, between
    # the points of a 200 x 200 sample of [-50, 50] x [0, 200]; its infimum is -0.004
    harmonics = (TemporalHarmonic(0.9, 1.0), TemporalHarmonic(0.9, np.sqrt(2.0)))
    with pytest.raises(ValueError, match="infimum over x and t is -0.004"):
        CoefficientField(1.0, harmonics, -0.014, "constant_one")
    positive = CoefficientField(1.0, harmonics, 0.0, "constant_one")
    assert np.min(positive.eval(0.0, np.linspace(15.5, 15.7, 2001))) - 0.014 < -0.003
    assert np.min(positive.eval(0.0, np.linspace(0.0, 200.0, 200))) - 0.014 > 1e-3


@pytest.mark.parametrize("kind", [k for k in PROFILE_KINDS if k != "constant_one"])
def test_profile_ranges_bracket_a_dense_sample(kind):
    # beyond |x| = 60 each profile is below (2 + |x|) / (1 + x^2) < 0.02 in size, so
    # its extremes over the real line lie in [-60, 60]
    values = spatial_profile(kind, np.linspace(-60.0, 60.0, 1_200_001))
    lo, hi = _PROFILE_RANGES[kind]
    assert lo <= values.min() <= lo + 1e-7
    assert hi - 1e-7 <= values.max() <= hi
    assert min(-lo, hi) > 62.0 / 3601.0


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-0.95, 0.95), st.floats(0.1, 3.0),
       st.sampled_from(("cos", "sin")), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0),
       st.sampled_from(PROFILE_KINDS))
@example(-0.5, 0.5, 1.0, "cos", 0.0, 1.0, "constant_one")  # a negative base: infimum 0.25
def test_single_harmonic_infimum_matches_sample(base, amp, freq, kind, phase, spatial_amp,
                                                profile):
    harmonic = TemporalHarmonic(amp, freq, kind, phase)
    # one period in t, and the part of the line that holds every profile's extremes
    t = np.linspace(0.0, 2.0 * np.pi / freq, 20_001)
    x = np.linspace(-6.0, 6.0, 24_001)
    sampled = np.min(base * harmonic.factor(t)) + np.min(spatial_amp * spatial_profile(profile, x))
    if sampled > 1e-6:
        field = CoefficientField(base, (harmonic,), spatial_amp, profile)
        assert field.infimum == pytest.approx(sampled, abs=1e-6)
    elif sampled < -1e-6:
        with pytest.raises(ValueError, match="positive"):
            CoefficientField(base, (harmonic,), spatial_amp, profile)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        spatial_profile("no_such_profile", 0.0)
    with pytest.raises(ValueError):
        CoefficientField(base=1.0, spatial="no_such_profile")


def test_harmonic_validation():
    with pytest.raises(ValueError):
        TemporalHarmonic(amplitude=1.5, frequency=1.0)
    with pytest.raises(ValueError):
        TemporalHarmonic(amplitude=0.5, frequency=-1.0)
    with pytest.raises(ValueError):
        TemporalHarmonic(amplitude=0.5, frequency=1.0, kind="tan")


def test_almost_period_translation():
    spec = ModelSpec()
    tau = almost_period(spec.alpha2, eps=1e-3)
    t = np.linspace(0, 50, 400)
    diff = np.max(np.abs(spec.alpha2.eval(0.0, t + tau) - spec.alpha2.eval(0.0, t)))
    assert diff < 1e-3


def test_linearization_constant_matrix():
    mat = LinearizationMatrix.constant([[-1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_allclose(np.reshape(mat.entries(3.0, 7.0), (2, 2)),
                               [[-1.0, 1.0], [1.0, -1.0]], atol=1e-15)


def test_linearization_reference_entries():
    # a1 = alpha1*beta/N1, a2 = alpha2*beta/N1 with beta=0.6, N1=1
    spec = ModelSpec()
    A = np.reshape(spec.linearization().entries(0.0, 0.0), (2, 2))
    np.testing.assert_allclose(
        A, [[-0.1, 1.5488 * 0.6], [0.216 * 0.6 * 20.0, -0.029]], rtol=0, atol=1e-12
    )


def test_cooperative_signs_random_sample(rng):
    spec = ModelSpec()
    mat = spec.linearization()
    x = rng.uniform(-100, 100, 10_000)
    t = rng.uniform(0, 500, 10_000)
    m11, m12, m21, m22 = mat.entries(x, t)
    assert np.all(m12 > 0) and np.all(m21 > 0)
    assert np.all(m11 < 0) and np.all(m22 < 0)


def test_shift_evaluates_coefficients_at_x_plus_s(monkeypatch):
    # the estimate for shift s sees the coefficients at x + s, not x - s, and
    # builds its evaluator once, not once per step
    spec = ModelSpec()
    seen = []
    evaluator = LinearizationMatrix.evaluator

    def spy(self, x):
        seen.append(np.array(x))
        return evaluator(self, x)

    monkeypatch.setattr(LinearizationMatrix, "evaluator", spy)
    L, J, s = 2.0, 16, 3.0
    lyapunov_exponent(spec.linearization(), L, (spec.D1, spec.D2),
                      EstimatorConfig(J=J, dt=0.5, horizon=2.0), shifts=(s,))
    expected = -L + (2.0 * L / J) * np.arange(1, J) + s
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], expected)


def test_constant_matrix_validation():
    with pytest.raises(ValueError):
        LinearizationMatrix.constant([[-1.0, -0.5], [0.5, -1.0]])
    with pytest.raises(ValueError):
        LinearizationMatrix.constant([[1.0, 0.5], [0.5, -1.0]])


_harmonics = st.lists(
    st.builds(TemporalHarmonic, st.floats(-0.9, 0.9), st.floats(0.01, 10.0),
              st.sampled_from(("cos", "sin")), st.floats(-10.0, 10.0)),
    max_size=3,
).map(tuple)
_shifts = st.floats(-1e3, 1e3)


@settings(max_examples=60, deadline=None)
@given(_harmonics, _shifts, _shifts)
def test_shifts_compose(harmonics, a, b):
    f = CoefficientField(1.0, harmonics, 0.0)
    x = np.linspace(-5.0, 5.0, 7)[:, None]
    t = np.linspace(0.0, 50.0, 11)[None, :]
    # the phases add in a different order, so equal up to rounding
    np.testing.assert_allclose(f.shifted(a).shifted(b).eval(x, t), f.shifted(a + b).eval(x, t),
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(f.shifted(a).eval(x, t), f.eval(x, t + a), rtol=1e-9, atol=1e-12)


@st.composite
def _fields(draw):
    """A positive field: base 1, harmonics and a spatial term small enough to keep it positive."""
    harmonics = draw(_harmonics)
    temporal_inf = float(np.prod([1.0 - abs(h.amplitude) for h in harmonics]))
    # every profile lies in [-0.59, 2.08], so this amplitude keeps the infimum positive
    amp = draw(st.floats(-0.45 * temporal_inf, 0.45 * temporal_inf))
    return CoefficientField(1.0, harmonics, amp, draw(st.sampled_from(PROFILE_KINDS)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_fields(), min_size=4, max_size=4), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
       st.floats(0.0, 1e3))
def test_evaluator_equals_entries(fields, N1, N2, t):
    a1, a2, d1, d2 = fields
    mat = LinearizationMatrix(a1, a2, d1, d2, N1, N2)
    x = np.linspace(-5.0, 5.0, 7)
    by_field = (-d1.eval(x, t), a1.eval(x, t) * N1, a2.eval(x, t) * N2, -d2.eval(x, t))
    for got, entry, expected in zip(mat.evaluator(x)(t), mat.entries(x, t), by_field):
        np.testing.assert_array_equal(got, entry)
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(_fields(), st.floats(0.0, 1e4))
def test_temporal_at_a_float_equals_the_array_path(field, t):
    # a float time (the solver's step and the estimator) takes math's trig; the bits are numpy's
    at_float = field.temporal(t)
    assert type(at_float) is float
    times = np.array([t, 0.5 * t, 2.0 * t])
    assert at_float == np.broadcast_to(field.temporal(times), times.shape)[0]
    assert at_float == field.temporal(np.asarray(t))
