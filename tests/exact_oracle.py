"""Exact solutions of both presets, u_t + (u^2/2)_x = nu u_xx on [-1, 1] from
u(0, x) = -sin(pi x) with u(t, +-1) = 0, for the tests of the reference solver.

Inviscid (nu = 0), by characteristics: u = -sign(x) sin(pi xi) where xi
solves g(xi) = xi - t sin(pi xi) = |x|.  g is convex on [0, 1] with g(0) = 0
and g(1) = 1; after the shock forms (t > 1/pi) it dips below 0 and has one
more root xi_s in (0, 1), and it rises monotonically from xi_s to 1, so
bisection on [xi_s, 1] finds the one root there.  The characteristics from
(0, xi_s) have met the shock, which stands at x = 0 by odd symmetry; there
u = 0, the mean of its two sides.

Viscous (nu > 0), by the Cole-Hopf transform (Basdevant et al., Comput.
Fluids 14 (1986) 23):

    u(t, x) = -int sin(pi (x - e)) F(x - e) G(e) de / int F(x - e) G(e) de,
    F(y) = exp(-cos(pi y) / (2 pi nu)),  G(e) = exp(-e^2 / (4 nu t)),

each integral by the trapezoid rule on e in [-2.5, 2.5] with the exponents
shifted by their maximum (log-sum-exp).  The window spans more than one
period of F, so it holds the peak of F G for every x in [-1, 1]; a window of a
few heat-kernel widths misses it and is wrong by O(0.1).
"""

from __future__ import annotations

import numpy as np

BISECTIONS = 60  # halvings of [0, 1]: 2^-60 is below one ulp of 1
COLE_HOPF_NODES = 10_001  # 10^4 intervals; 10^6 agree to 2e-15 at 300 points
COLE_HOPF_WINDOW = 2.5


def _bisect(g, target, lo, hi):
    """The root of the increasing g(xi) = target in [lo, hi], elementwise."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    lo, hi = lo.copy(), hi.copy()
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = g(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def inviscid(x, t: float) -> np.ndarray:
    """The entropy solution of inviscid Burgers at time t, at the points x."""
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        return -np.sin(np.pi * x)

    def g(xi):
        return xi - t * np.sin(np.pi * xi)

    # g falls until cos(pi xi) = 1 / (pi t), then rises: its nonzero root
    # xi_s lies past that minimum (and is 0 before the shock forms)
    low = np.arccos(min(1.0, 1.0 / (np.pi * t))) / np.pi
    xi_s = _bisect(g, 0.0, low, 1.0) if low > 0.0 else 0.0
    xi = _bisect(g, np.abs(x), xi_s, 1.0)
    return np.where(x == 0.0, 0.0, -np.sign(x) * np.sin(np.pi * xi))


def viscous(x, t: float, nu: float) -> np.ndarray:
    """The Cole-Hopf solution of viscous Burgers at time t > 0, at the points x."""
    x = np.asarray(x, dtype=float)
    eta = np.linspace(-COLE_HOPF_WINDOW, COLE_HOPF_WINDOW, COLE_HOPF_NODES)
    weights = np.full(COLE_HOPF_NODES, eta[1] - eta[0])
    weights[[0, -1]] *= 0.5
    y = np.pi * (x[:, None] - eta[None, :])
    exponent = -np.cos(y) / (2.0 * np.pi * nu) - eta * eta / (4.0 * nu * t)
    exponent -= exponent.max(axis=1, keepdims=True)
    kernel = np.exp(exponent) * weights
    return -(np.sin(y) * kernel).sum(axis=1) / kernel.sum(axis=1)
