"""Front-fixing change of variables between [g(t), h(t)] and [-1, 1].

The moving interval maps to fixed coordinates through

    y = (2x - (h + g)) / (h - g),

turning the moving-domain problem into one with variable diffusion
scaling Acoef = 4/(h-g)^2 (multiplying d2/dy2) and induced drift
Bcoef = -(y (h'-g') + (h'+g'))/(h-g) (multiplying d/dy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FrontGeometry:
    """Front positions and velocities at one instant."""

    g: float
    h: float
    gdot: float = 0.0
    hdot: float = 0.0

    def __post_init__(self):
        if not self.h > self.g:
            raise ValueError("front geometry needs h > g")

    @property
    def width(self) -> float:
        return self.h - self.g

    def to_y(self, x):
        """Map physical x in [g, h] to fixed y in [-1, 1]."""
        x = np.asarray(x, dtype=float)
        if np.any(x < self.g - 1e-12 * max(1.0, abs(self.g))) or np.any(
            x > self.h + 1e-12 * max(1.0, abs(self.h))
        ):
            raise ValueError("x outside [g, h]")
        return (2.0 * x - (self.h + self.g)) / self.width

    def to_x(self, y):
        """Map fixed y in [-1, 1] to physical x in [g, h]."""
        y = np.asarray(y, dtype=float)
        if np.any(np.abs(y) > 1.0 + 1e-12):
            raise ValueError("y outside [-1, 1]")
        return 0.5 * (y * self.width + (self.h + self.g))

    def metric_terms(self, y):
        """(Acoef, Bcoef) of the transformed equations at y.

        Acoef = 4/(h-g)^2 scales the second derivative; Bcoef is the
        drift induced by the moving frame.
        """
        y = np.asarray(y, dtype=float)
        w = self.width
        Acoef = 4.0 / (w * w)
        Bcoef = -(y * (self.hdot - self.gdot) + (self.hdot + self.gdot)) / w
        return Acoef, Bcoef
