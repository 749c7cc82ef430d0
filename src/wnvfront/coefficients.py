"""Almost-periodic, spatially heterogeneous model coefficients.

A coefficient is represented as

    c(x, t) = base * prod_i (1 + amp_i * trig_i(freq_i * t + phase_i))
              + spatial_amp * profile(x)

which covers the trig-polynomial transmission/recovery/death rates used
throughout, plus constants as a degenerate case.  All evaluation is
vectorized over x and t.  The temporal factor and the spatial term are
evaluated apart, so that on a fixed grid the spatial terms are computed once
(``LinearizationMatrix.rates``, the one map of the model's four rate fields,
which the solver step, the reactions and the estimator share).
Time shifts act exactly on the harmonic phases, so hull elements of these
fields are reproduced without limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

# Named spatial heterogeneity profiles.  All are bounded on the real line.
_PROFILES = {
    "constant_one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
    "ratio2_cos": lambda x: (2.0 + x) / (1.0 + x * x) * np.cos(x),
    "ratio1_cos": lambda x: (1.0 + x) / (1.0 + x * x) * np.cos(x),
    "ratio2_sin": lambda x: (2.0 + x) / (1.0 + x * x) * np.sin(x),
    "ratio1_sin": lambda x: (1.0 + x) / (1.0 + x * x) * np.sin(x),
}

# Each profile's (min, max) over the real line, rounded outward; beyond |x| = 60 all are < 0.02
_PROFILE_RANGES = {
    "constant_one": (1.0, 1.0),
    "ratio2_cos": (-0.51283956, 2.07922037),
    "ratio1_cos": (-0.40507100, 1.14083233),
    "ratio2_sin": (-0.58243932, 1.26245416),
    "ratio1_sin": (-0.25309395, 0.84688070),
}

PROFILE_KINDS = tuple(_PROFILES)


def spatial_profile(kind: str, x):
    """Evaluate a named spatial profile at x (scalar or array)."""
    try:
        f = _PROFILES[kind]
    except KeyError:
        raise ValueError(f"unknown spatial profile {kind!r}") from None
    return f(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class TemporalHarmonic:
    """One multiplicative temporal modulation factor 1 + amp*trig(freq*t + phase)."""

    amplitude: float
    frequency: float
    kind: str = "cos"  # "cos" or "sin"
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cos", "sin"):
            raise ValueError(f"harmonic kind must be 'cos' or 'sin', got {self.kind!r}")
        if not 0 < self.frequency < np.inf:
            raise ValueError("harmonic frequency must be positive and finite")
        if not abs(self.amplitude) < 1:
            raise ValueError("harmonic amplitude must satisfy |amp| < 1")
        if not -np.inf < self.phase < np.inf:
            raise ValueError("harmonic phase must be finite")

    def factor(self, t):
        """1 + amp*trig(freq*t + phase); a float t takes ``math``'s trig, without numpy's 0-d overhead."""
        scalar = isinstance(t, float)
        arg = self.frequency * (t if scalar else np.asarray(t, dtype=float)) + self.phase
        return 1.0 + self.amplitude * getattr(math if scalar else np, self.kind)(arg)

    def shifted(self, tau: float) -> "TemporalHarmonic":
        return replace(self, phase=self.phase + self.frequency * tau)


@dataclass(frozen=True)
class CoefficientField:
    """Scalar field c(x,t), almost periodic in t, whose ``infimum`` must be positive."""

    base: float
    harmonics: Tuple[TemporalHarmonic, ...] = ()
    spatial_amp: float = 0.0
    spatial: str = "constant_one"

    def __post_init__(self):
        if self.spatial not in _PROFILES:
            raise ValueError(f"unknown spatial profile {self.spatial!r}")
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        if not 0 < self.infimum < np.inf:
            raise ValueError(f"coefficient field infimum over x and t is {self.infimum:.6g}, not "
                             "positive and finite (exact for one harmonic or rationally "
                             "independent frequencies, a lower bound otherwise)")

    @property
    def infimum(self) -> float:
        """The infimum of eval over x and t: the temporal product's plus the spatial term's.

        Exact for one harmonic or rationally independent frequencies (Kronecker's
        theorem), which reach their extreme factors together; a lower bound otherwise.
        """
        sign = 1.0 if self.base < 0 else -1.0
        temporal = self.base * np.prod([1.0 + sign * abs(h.amplitude) for h in self.harmonics])
        lo, hi = _PROFILE_RANGES[self.spatial]
        return float(temporal + self.spatial_amp * (lo if self.spatial_amp >= 0 else hi))

    def eval(self, x, t):
        """Evaluate the field; broadcasts over x and t."""
        return self.temporal(t) + self.spatial_term(x)

    def temporal(self, t):
        """The temporal factor base * prod_i (1 + amp_i * trig_i(...)) at t; a float at a float t."""
        out = float(self.base) if isinstance(t, float) else np.asarray(self.base, dtype=float)
        for h in self.harmonics:
            out = out * h.factor(t)
        return out

    def spatial_term(self, x):
        """The spatial term spatial_amp * profile(x)."""
        return self.spatial_amp * spatial_profile(self.spatial, x)

    def shifted(self, tau: float) -> "CoefficientField":
        """Field whose eval(x, t) equals this field's eval(x, t + tau), exactly."""
        return replace(self, harmonics=tuple(h.shifted(tau) for h in self.harmonics))

    def scaled(self, c: float) -> "CoefficientField":
        """Field equal to c * this field; construction rejects it unless c > 0."""
        return replace(self, base=c * self.base, spatial_amp=c * self.spatial_amp)

    @property
    def is_autonomous(self) -> bool:
        return not self.harmonics


@dataclass(frozen=True)
class LinearizationMatrix:
    """The 2x2 matrix [[-d1, a1*N1], [a2*N2, -d2]] of coefficient fields."""

    a1: CoefficientField  # already includes the beta / N1 scaling
    a2: CoefficientField
    d1: CoefficientField
    d2: CoefficientField
    N1: float
    N2: float

    def entries(self, x, t):
        """Return (m11, m12, m21, m22) arrays broadcast over x, t."""
        return self.evaluator(x)(t)

    def rates(self, x):
        """The map t -> (a1, a2, d1, d2) at x that the solver step, the reactions and
        ``evaluator`` share; the spatial terms are computed once, here."""
        fields = (self.a1, self.a2, self.d1, self.d2)
        s1, s2, s3, s4 = (f.spatial_term(x) for f in fields)
        t1, t2, t3, t4 = (f.temporal for f in fields)

        def at(t):
            return t1(t) + s1, t2(t) + s2, t3(t) + s3, t4(t) + s4

        return at

    def evaluator(self, x):
        """The map t -> entries(x, t); the spatial terms at x are computed once, by ``rates``."""
        rate = self.rates(x)
        N1, N2 = self.N1, self.N2

        def at(t):
            a1, a2, d1, d2 = rate(t)
            return -d1, a1 * N1, a2 * N2, -d2

        return at

    @property
    def is_autonomous(self) -> bool:
        return all(f.is_autonomous for f in (self.a1, self.a2, self.d1, self.d2))

    @classmethod
    def constant(cls, A0) -> "LinearizationMatrix":
        """Wrap a constant cooperative matrix [[-d1, c12], [c21, -d2]]."""
        A0 = np.asarray(A0, dtype=float)
        if A0.shape != (2, 2):
            raise ValueError("constant matrix must be 2x2")
        if A0[0, 1] <= 0 or A0[1, 0] <= 0:
            raise ValueError("off-diagonal entries must be positive (cooperative)")
        if A0[0, 0] >= 0 or A0[1, 1] >= 0:
            raise ValueError("diagonal entries must be negative")
        return cls(
            a1=CoefficientField(A0[0, 1]),
            a2=CoefficientField(A0[1, 0]),
            d1=CoefficientField(-A0[0, 0]),
            d2=CoefficientField(-A0[1, 1]),
            N1=1.0,
            N2=1.0,
        )
