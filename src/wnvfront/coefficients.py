"""Almost-periodic, spatially heterogeneous model coefficients.

A coefficient is represented as

    c(x, t) = base * prod_i (1 + amp_i * trig_i(freq_i * t + phase_i))
              + spatial_amp * profile(x)

which covers the trig-polynomial transmission/recovery/death rates used
throughout, plus constants as a degenerate case.  All evaluation is
vectorized over x and t.  Time shifts act exactly on the harmonic phases,
so hull elements of these fields are reproduced without limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
        if not self.frequency > 0:
            raise ValueError("harmonic frequency must be positive")
        if not abs(self.amplitude) < 1:
            raise ValueError("harmonic amplitude must satisfy |amp| < 1")

    def factor(self, t):
        arg = self.frequency * np.asarray(t, dtype=float) + self.phase
        trig = np.cos(arg) if self.kind == "cos" else np.sin(arg)
        return 1.0 + self.amplitude * trig

    def shifted(self, tau: float) -> "TemporalHarmonic":
        return replace(self, phase=self.phase + self.frequency * tau)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.frequency


@dataclass(frozen=True)
class CoefficientField:
    """Positive scalar field c(x,t), almost periodic in t.

    ``floor`` is a positivity guard: construction verifies on a dense
    (x, t) sample that eval never drops below it.
    """

    base: float
    harmonics: Tuple[TemporalHarmonic, ...] = ()
    spatial_amp: float = 0.0
    spatial: str = "constant_one"
    floor: float = 1e-6
    _validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        if self.spatial not in _PROFILES:
            raise ValueError(f"unknown spatial profile {self.spatial!r}")
        if not self.floor > 0:
            raise ValueError("floor must be positive")
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        if self._validate:
            self._check_positive()

    def _check_positive(self, nx: int = 200, nt: int = 200):
        x = np.linspace(-50.0, 50.0, nx)
        # cover several of the longest harmonic periods
        t_span = 200.0
        if self.harmonics:
            t_span = max(t_span, 4.0 * max(h.period for h in self.harmonics))
        t = np.linspace(0.0, t_span, nt)
        vals = self.eval(x[:, None], t[None, :])
        m = float(np.min(vals))
        if m < self.floor:
            raise ValueError(
                f"coefficient field dips to {m:.6g} below floor {self.floor:.6g} "
                "on the validation sample"
            )

    def eval(self, x, t):
        """Evaluate the field; broadcasts over x and t."""
        temporal = np.asarray(self.base, dtype=float)
        for h in self.harmonics:
            temporal = temporal * h.factor(t)
        out = temporal + self.spatial_amp * spatial_profile(self.spatial, x)
        return out

    def shifted(self, tau: float) -> "CoefficientField":
        """Field whose eval(x, t) equals this field's eval(x, t + tau), exactly."""
        return replace(
            self,
            harmonics=tuple(h.shifted(tau) for h in self.harmonics),
            _validate=False,
        )

    def scaled(self, c: float) -> "CoefficientField":
        """Field equal to c * this field, for c > 0 (rescales base, spatial term, floor)."""
        if not c > 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            base=c * self.base,
            spatial_amp=c * self.spatial_amp,
            floor=c * self.floor,
            _validate=False,
        )

    @property
    def is_autonomous(self) -> bool:
        return not self.harmonics


def constant_field(value: float) -> CoefficientField:
    """A spatially and temporally constant positive coefficient."""
    return CoefficientField(base=value, floor=0.5 * value)


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
        return (
            -self.d1.eval(x, t),
            self.a1.eval(x, t) * self.N1,
            self.a2.eval(x, t) * self.N2,
            -self.d2.eval(x, t),
        )

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
            a1=constant_field(A0[0, 1]),
            a2=constant_field(A0[1, 0]),
            d1=constant_field(-A0[0, 0]),
            d2=constant_field(-A0[1, 1]),
            N1=1.0,
            N2=1.0,
        )
