"""Problem statement: Burgers' equation

    u_t + (u^2 / 2)_x = nu * u_xx

on [-1, 1] from u(0, x) = -sin(pi x), with Dirichlet walls that hold u = 0.
The viscosity nu is the one setting, the one field of ``PdeSpec``.  The flux
f and its derivatives f' and f'' are its methods, written as plain
arithmetic, and ``initial_field`` samples -sin(pi x) on the one grid.  The
package applies f, f' and f'' to real ndarrays only; the training loss's
gradient takes f''(u) from ``ddflux`` as the scalar 1.0.  The tests' oracle
applies them to autodiff graph nodes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weno import GridField

__all__ = ["PdeSpec", "burgers"]


@dataclass(frozen=True)
class PdeSpec:
    viscosity: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.viscosity < math.inf:
            raise ValueError("viscosity must be finite and nonnegative")

    @staticmethod
    def flux(u):  # f(u) = u^2 / 2
        return u * u * 0.5

    @staticmethod
    def dflux(u):  # f'(u) = u, the characteristic speed
        return u

    @staticmethod
    def ddflux(u):  # f''(u) = 1, a scalar
        return 1.0

    def max_speed(self, u: np.ndarray) -> float:
        return float(np.max(np.abs(self.dflux(u))))

    def initial_field(self, n: int) -> GridField:
        """u(0, x) = -sin(pi x) at n points from the wall at -1 to the wall at 1."""
        dx = 2.0 / (n - 1)
        return GridField(-np.sin(np.pi * (-1.0 + dx * np.arange(n))), -1.0, dx)


def burgers(viscosity: float = 0.0) -> PdeSpec:
    """Burgers equation on [-1,1] with u(0,x) = -sin(pi x) and u(t,+-1) = 0."""
    return PdeSpec(viscosity=viscosity)
