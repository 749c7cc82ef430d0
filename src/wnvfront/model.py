"""Model parameterization, reaction terms, and initial data.

The two infected compartments are U (birds) and V (mosquitoes):

    U_t = D1 U_xx + a1(x,t) (N1 - U) V - d1(x,t) U
    V_t = D2 V_xx + a2(x,t) (N2 - V) U - d2(x,t) V

with a1 = alpha1*beta/N1, a2 = alpha2*beta/N1, d1 = gamma, d2 = death.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .coefficients import CoefficientField, LinearizationMatrix, TemporalHarmonic


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterization of the two-compartment free-boundary model.

    The defaults are the reference parameterization, with four heterogeneous
    almost-periodic rate fields (two transmission probabilities, recovery,
    mosquito death).
    """

    D1: float = 3.0
    D2: float = 0.125
    N1: float = 1.0
    N2: float = 20.0
    beta: float = 0.6
    mu: float = 0.1
    h0: float = 2.0
    alpha1: CoefficientField = CoefficientField(
        0.88, (TemporalHarmonic(0.56, 0.5, "cos"),), 0.088, "ratio2_cos"
    )
    alpha2: CoefficientField = CoefficientField(
        0.16, (TemporalHarmonic(0.2, np.pi / 3.0, "cos"),), 0.024, "ratio1_cos"
    )
    # bird recovery rate d1
    gamma: CoefficientField = CoefficientField(
        0.1, (TemporalHarmonic(0.3, 1.0 / 3.0, "sin"),), 0.02, "ratio2_sin"
    )
    # mosquito death rate d2
    death: CoefficientField = CoefficientField(
        0.029, (TemporalHarmonic(0.1, np.pi / 2.0, "sin"),), 0.0016, "ratio1_sin"
    )

    def __post_init__(self):
        for name in ("D1", "D2", "N1", "N2", "beta", "mu", "h0"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")

    def reaction(self, x, t, U, V):
        """Reaction terms (dU, dV); vectorized over all arguments."""
        a1, a2, d1, d2 = self.linearization().rates(x)(t)
        dU = a1 * (self.N1 - U) * V - d1 * U
        dV = a2 * (self.N2 - V) * U - d2 * V
        return dU, dV

    def linearization(self) -> LinearizationMatrix:
        """Jacobian of the reaction at (U, V) = (0, 0) as a matrix field, built once per model:
        the one holder of the reduced fields a1, a2, d1, d2 and of their map ``rates``."""
        return self._linearization

    @cached_property
    def _linearization(self) -> LinearizationMatrix:
        scale = self.beta / self.N1
        return LinearizationMatrix(a1=self.alpha1.scaled(scale), a2=self.alpha2.scaled(scale),
                                   d1=self.gamma, d2=self.death, N1=self.N1, N2=self.N2)


@dataclass(frozen=True)
class InitialData:
    """Initial infected profiles on [-h0, h0]: the [init] section of a run config.

    Default is the cosine-bump family

        U0(x) = amp_U * cos(pi x / (2 h0)),  V0(x) = amp_V * cos(pi x / (2 h0)),

    replaced when ``file`` is set by the linear interpolant of its samples: a CSV
    with the header x,U,V and >= 3 rows, x strictly increasing, zero values at +-h0.
    """

    amp_U: float = 0.1
    amp_V: float = 2.0
    file: str = ""

    def __post_init__(self):
        if self.file and (self.amp_U, self.amp_V) != (InitialData.amp_U, InitialData.amp_V):
            raise ValueError("amp_U and amp_V set the cosine bump, which [init] file replaces")

    @property
    def is_sampled(self) -> bool:
        return bool(self.file)

    @cached_property
    def samples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columns (x, U, V) of ``file``, read once, at their first use."""
        data = np.genfromtxt(self.file, delimiter=",", names=True)
        x, U, V = (np.asarray(data[c], dtype=float) for c in ("x", "U", "V"))
        if not (x.shape == U.shape == V.shape) or x.ndim != 1 or x.size < 3:
            raise ValueError("sampled initial data needs matching 1-D columns x, U, V, >= 3 points")
        if np.any(np.diff(x) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        return x, U, V

    def u0(self, x, h0: float):
        return self._eval(x, h0, self.amp_U, 1)

    def v0(self, x, h0: float):
        return self._eval(x, h0, self.amp_V, 2)

    def _eval(self, x, h0, amp, column):
        x = np.asarray(x, dtype=float)
        if self.is_sampled:
            return np.interp(x, self.samples[0], self.samples[column])
        return amp * np.cos(np.pi * x / (2.0 * h0))

    def validate(self, spec: ModelSpec):
        """Check endpoint zeros and 0 < U0 <= N1, 0 < V0 <= N2 on the interior."""
        h0 = spec.h0
        x = np.linspace(-h0, h0, 401)
        if self.is_sampled:  # a piecewise-linear profile takes its extremes at the samples
            x = np.union1d(x, self.samples[0][np.abs(self.samples[0]) < h0])
        U = self.u0(x, h0)
        V = self.v0(x, h0)
        if abs(U[0]) > 1e-12 or abs(U[-1]) > 1e-12 or abs(V[0]) > 1e-12 or abs(V[-1]) > 1e-12:
            raise ValueError("initial profiles must vanish at the fronts x = +-h0")
        Ui, Vi = U[1:-1], V[1:-1]
        if not np.all((0 < Ui) & (Ui <= spec.N1)):
            raise ValueError("U0 must satisfy 0 < U0 <= N1 on (-h0, h0)")
        if not np.all((0 < Vi) & (Vi <= spec.N2)):
            raise ValueError("V0 must satisfy 0 < V0 <= N2 on (-h0, h0)")
