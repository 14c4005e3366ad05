"""Problem statement for 1-D conservation-diffusion equations

    u_t + f(u)_x = nu * u_xx

on [-1, 1], whose Dirichlet walls hold u = 0, so u(0, x) must vanish there
(Burgers' -sin(pi x) does); ``initial_field`` samples it on the one grid.
``flux``/``dflux``/``ddflux`` (f, f' and f'') are written as plain arithmetic.
The package applies them to real ndarrays only; the training loss's gradient
takes f''(u) from ``ddflux``, which may return a scalar for a constant f''.
The tests' oracle applies them to autodiff graph nodes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .weno import GridField

__all__ = ["PdeSpec", "burgers"]


@dataclass(frozen=True)
class PdeSpec:
    flux: Callable  # f(u)
    dflux: Callable  # f'(u), the characteristic speed
    ddflux: Callable  # f''(u), an array or a scalar
    viscosity: float = 0.0
    initial: Optional[Callable] = None  # u(0, x)

    def __post_init__(self):
        if not 0.0 <= self.viscosity < math.inf:
            raise ValueError("viscosity must be finite and nonnegative")

    def max_speed(self, u: np.ndarray) -> float:
        return float(np.max(np.abs(self.dflux(u))))

    def initial_field(self, n: int) -> GridField:
        """u(0, x) at n points from the wall at -1 to the wall at 1, both included."""
        if self.initial is None:
            raise ValueError("the PdeSpec has no initial condition")
        dx = 2.0 / (n - 1)
        return GridField(self.initial(-1.0 + dx * np.arange(n)), -1.0, dx)


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
