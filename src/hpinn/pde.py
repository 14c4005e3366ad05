"""Problem statement for 1-D conservation-diffusion equations

    u_t + f(u)_x = nu * u_xx

on [-1, 1] from u(0, x) = -sin(pi x), with Dirichlet walls that hold u = 0.
The interval, the walls and the initial condition are facts, not fields:
``initial_field`` samples -sin(pi x) on the one grid.
``flux``/``dflux``/``ddflux`` (f, f' and f'') are written as plain arithmetic.
The package applies them to real ndarrays only; the training loss's gradient
takes f''(u) from ``ddflux``, which may return a scalar for a constant f''.
The tests' oracle applies them to autodiff graph nodes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .weno import GridField

__all__ = ["PdeSpec", "burgers"]


@dataclass(frozen=True)
class PdeSpec:
    flux: Callable  # f(u)
    dflux: Callable  # f'(u), the characteristic speed
    ddflux: Callable  # f''(u), an array or a scalar
    viscosity: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.viscosity < math.inf:
            raise ValueError("viscosity must be finite and nonnegative")

    def max_speed(self, u: np.ndarray) -> float:
        return float(np.max(np.abs(self.dflux(u))))

    def initial_field(self, n: int) -> GridField:
        """u(0, x) = -sin(pi x) at n points from the wall at -1 to the wall at 1."""
        dx = 2.0 / (n - 1)
        return GridField(-np.sin(np.pi * (-1.0 + dx * np.arange(n))), -1.0, dx)


# Burgers' functions are module-level, so its spec pickles.
def _half_square(u):
    return u * u * 0.5


def _identity(u):
    return u


def _one(u):
    return 1.0


def burgers(viscosity: float = 0.0) -> PdeSpec:
    """Burgers equation on [-1,1] with u(0,x) = -sin(pi x) and u(t,+-1) = 0."""
    return PdeSpec(flux=_half_square, dflux=_identity, ddflux=_one, viscosity=viscosity)
