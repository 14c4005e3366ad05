"""Problem statement for 1-D conservation-diffusion equations

    u_t + f(u)_x = nu * u_xx

on an interval whose Dirichlet walls hold u = 0, so u(0, x) must vanish there
(Burgers' -sin(pi x) on [-1, 1] does).  ``flux``/``dflux``/``ddflux`` (f, f'
and f'') are written as plain arithmetic.  The package applies them to real
ndarrays only; the training loss's gradient takes f''(u) from ``ddflux``,
which may return a scalar for a constant f''.  The tests' oracle applies them
to autodiff graph nodes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["PdeSpec", "burgers"]


@dataclass(frozen=True)
class PdeSpec:
    flux: Callable  # f(u)
    dflux: Callable  # f'(u), the characteristic speed
    ddflux: Callable  # f''(u), an array or a scalar
    viscosity: float = 0.0
    domain: tuple = (-1.0, 1.0)
    initial: Optional[Callable] = None  # u(0, x)

    def __post_init__(self):
        if not 0.0 <= self.viscosity < math.inf:
            raise ValueError("viscosity must be finite and nonnegative")
        if not -math.inf < self.domain[0] < self.domain[1] < math.inf:
            raise ValueError("domain must be a nonempty interval with finite ends")

    def max_speed(self, u: np.ndarray) -> float:
        return float(np.max(np.abs(self.dflux(u))))

    def grid(self, n: int):
        """n points from one wall to the other, both walls included, and dx."""
        x_left, x_right = self.domain
        dx = (x_right - x_left) / (n - 1)
        return x_left + dx * np.arange(n), dx


# Burgers' functions are module-level, so its spec pickles.
def _half_square(u):
    return u * u * 0.5


def _identity(u):
    return u


def _one(u):
    return 1.0


def _minus_sine(x):
    return -np.sin(np.pi * x)


def burgers(viscosity: float = 0.0) -> PdeSpec:
    """Burgers equation on [-1,1] with u(0,x) = -sin(pi x) and u(t,+-1) = 0."""
    return PdeSpec(flux=_half_square, dflux=_identity, ddflux=_one, viscosity=viscosity,
                   initial=_minus_sine)
