"""Model parameterization, reaction terms, and initial data.

The two infected compartments are U (birds) and V (mosquitoes):

    U_t = D1 U_xx + a1(x,t) (N1 - U) V - d1(x,t) U
    V_t = D2 V_xx + a2(x,t) (N2 - V) U - d2(x,t) V

with a1 = alpha1*beta/N1, a2 = alpha2*beta/N1, d1 = gamma, d2 = d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

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
    gamma_field: CoefficientField = CoefficientField(
        0.1, (TemporalHarmonic(0.3, 1.0 / 3.0, "sin"),), 0.02, "ratio2_sin"
    )
    # mosquito death rate d2
    death_field: CoefficientField = CoefficientField(
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
                                   d1=self.gamma_field, d2=self.death_field, N1=self.N1, N2=self.N2)


@dataclass(frozen=True)
class InitialData:
    """Initial infected profiles on [-h0, h0].

    Default is the cosine-bump family

        U0(x) = amp_U * cos(pi x / (2 h0)),  V0(x) = amp_V * cos(pi x / (2 h0)),

    optionally replaced by sampled arrays (x_samples strictly increasing,
    endpoints at +-h0 with zero values).
    """

    amp_U: float = 0.1
    amp_V: float = 2.0
    x_samples: Optional[np.ndarray] = field(default=None)
    U_samples: Optional[np.ndarray] = field(default=None)
    V_samples: Optional[np.ndarray] = field(default=None)

    @property
    def is_sampled(self) -> bool:
        return self.x_samples is not None

    def u0(self, x, h0: float):
        return self._eval(x, h0, self.amp_U, self.U_samples)

    def v0(self, x, h0: float):
        return self._eval(x, h0, self.amp_V, self.V_samples)

    def _eval(self, x, h0, amp, samples):
        x = np.asarray(x, dtype=float)
        if self.is_sampled:
            return np.interp(x, self.x_samples, samples)
        return amp * np.cos(np.pi * x / (2.0 * h0))

    def validate(self, spec: ModelSpec):
        """Check endpoint zeros and 0 < U0 <= N1, 0 < V0 <= N2 on the interior."""
        h0 = spec.h0
        x = np.linspace(-h0, h0, 401)
        if self.is_sampled:  # a piecewise-linear profile takes its extremes at the samples
            x = np.union1d(x, self.x_samples[np.abs(self.x_samples) < h0])
        U = self.u0(x, h0)
        V = self.v0(x, h0)
        if abs(U[0]) > 1e-12 or abs(U[-1]) > 1e-12 or abs(V[0]) > 1e-12 or abs(V[-1]) > 1e-12:
            raise ValueError("initial profiles must vanish at the fronts x = +-h0")
        Ui, Vi = U[1:-1], V[1:-1]
        if not np.all((0 < Ui) & (Ui <= spec.N1)):
            raise ValueError("U0 must satisfy 0 < U0 <= N1 on (-h0, h0)")
        if not np.all((0 < Vi) & (Vi <= spec.N2)):
            raise ValueError("V0 must satisfy 0 < V0 <= N2 on (-h0, h0)")

    @classmethod
    def from_samples(cls, x, U, V) -> "InitialData":
        x = np.asarray(x, dtype=float)
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        if not (x.shape == U.shape == V.shape) or x.ndim != 1 or x.size < 3:
            raise ValueError("sampled initial data needs matching 1-D arrays, >= 3 points")
        if np.any(np.diff(x) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        return cls(x_samples=x, U_samples=U, V_samples=V)
