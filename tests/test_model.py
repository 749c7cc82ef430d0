from dataclasses import replace

import numpy as np
import pytest

from wnvfront.coefficients import CoefficientField
from wnvfront.model import InitialData, ModelSpec


def test_disease_free_equilibrium():
    spec = ModelSpec()
    dU, dV = spec.reaction(0.0, 0.0, 0.0, 0.0)
    assert dU == 0.0 and dV == 0.0


def test_capacities_repel_from_above():
    spec = ModelSpec()
    dU, _ = spec.reaction(0.3, 1.7, spec.N1, 5.0)
    _, dV = spec.reaction(0.3, 1.7, 0.5, spec.N2)
    assert dU < 0
    assert dV < 0


def test_reaction_reference_point():
    # hand evaluation at (x,t,U,V) = (0,0,0.1,2):
    #   a1 = 1.5488*0.6 = 0.92928, d1 = 0.1  -> dU = 0.92928*0.9*2 - 0.01
    #   a2 = 0.216*0.6  = 0.1296,  d2 = 0.029 -> dV = 0.1296*18*0.1 - 0.058
    spec = ModelSpec()
    dU, dV = spec.reaction(0.0, 0.0, 0.1, 2.0)
    assert dU == pytest.approx(1.662704, abs=1e-12)
    assert dV == pytest.approx(0.17528, abs=1e-12)


def test_jacobian_matches_finite_differences():
    spec = ModelSpec()
    x, t = 0.7, 3.1
    A = np.reshape(spec.linearization().entries(x, t), (2, 2))
    eps = 1e-6
    fd = np.empty((2, 2))
    for j, (dUq, dVq) in enumerate(((eps, 0.0), (0.0, eps))):
        dU, dV = spec.reaction(x, t, dUq, dVq)
        fd[0, j] = dU / eps
        fd[1, j] = dV / eps
    np.testing.assert_allclose(fd, A, rtol=1e-5)


def test_jacobian_off_diagonals_exact():
    spec = ModelSpec()
    x, t = -1.3, 12.0
    A = np.reshape(spec.linearization().entries(x, t), (2, 2))
    assert A[0, 1] == spec.linearization().a1.eval(x, t) * spec.N1
    assert A[1, 0] == spec.linearization().a2.eval(x, t) * spec.N2


def test_constant_coefficient_jacobian():
    spec = ModelSpec(
        D1=1.0, D2=1.0, N1=2.0, N2=3.0, beta=1.0,
        alpha1=CoefficientField(0.8), alpha2=CoefficientField(0.5),
        gamma=CoefficientField(0.2), death=CoefficientField(0.3),
        mu=0.1, h0=1.0,
    )
    # a1 = 0.8/2 = 0.4, a2 = 0.5/2 = 0.25
    np.testing.assert_allclose(
        np.reshape(spec.linearization().entries(0.0, 0.0), (2, 2)),
        [[-0.2, 0.4 * 2.0], [0.25 * 3.0, -0.3]], rtol=0, atol=1e-14,
    )


def test_default_spec_parameters():
    spec = ModelSpec()
    assert (spec.D1, spec.D2) == (3.0, 0.125)
    assert (spec.N1, spec.N2) == (1.0, 20.0)
    assert spec.beta == 0.6
    assert spec.linearization().a1.eval(0.0, 0.0) == pytest.approx(1.5488 * 0.6, abs=1e-12)


def test_replace_mu_h0():
    spec = ModelSpec()
    assert replace(spec, mu=0.7).mu == 0.7
    assert replace(spec, h0=0.5).h0 == 0.5
    with pytest.raises(ValueError):
        replace(spec, mu=-1.0)


def test_linearization_is_built_once_per_model():
    spec = ModelSpec()
    assert spec.linearization() is spec.linearization()
    other = replace(spec, mu=0.7).linearization()
    assert other is not spec.linearization()
    assert other == spec.linearization()


def test_initial_data_cosine():
    init = InitialData()
    h0 = 2.0
    x = np.linspace(-h0, h0, 5)
    np.testing.assert_allclose(init.u0(x, h0), 0.1 * np.cos(np.pi * x / (2 * h0)), atol=1e-15)
    assert init.v0(0.0, h0) == 2.0


def test_initial_data_validation():
    spec = ModelSpec()
    InitialData().validate(spec)
    with pytest.raises(ValueError):
        InitialData(amp_U=1.5).validate(spec)  # exceeds N1
    with pytest.raises(ValueError):
        InitialData(amp_V=-1.0).validate(spec)


def _samples_file(path, x, U, V) -> str:
    np.savetxt(path, np.column_stack([x, U, V]), delimiter=",", header="x,U,V", comments="")
    return str(path)


def test_sampled_initial_data(tmp_path):
    x = np.linspace(-1.0, 1.0, 21)
    U = 0.05 * np.cos(0.5 * np.pi * x)
    V = 1.0 * np.cos(0.5 * np.pi * x)
    init = InitialData(file=_samples_file(tmp_path / "increasing.csv", x, U, V))
    init.validate(ModelSpec(h0=1.0))
    reversed_file = _samples_file(tmp_path / "reversed.csv", x[::-1], U, V)
    with pytest.raises(ValueError, match="strictly increasing"):
        InitialData(file=reversed_file).validate(ModelSpec(h0=1.0))
