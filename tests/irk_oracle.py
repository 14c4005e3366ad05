"""The Gauss-Legendre tableau as the package first built it, shared by the
tests of `irk.gauss_legendre_tableau`.

`gauss_legendre_tableau` evaluates each a_ij one stage i and one rule point m
at a time, with the barycentric Lagrange basis as a closure that returns the
unit vector when its argument hits a node.  The package builds every stage of
one rule point at once and keeps no such branch; its a, b and c must match
these bit for bit.
"""

import numpy as np

from hpinn.irk import ButcherTableau, _gauss_nodes_weights


def gauss_legendre_tableau(q: int) -> ButcherTableau:
    x, w = _gauss_nodes_weights(q)
    c = 0.5 * (x + 1.0)
    b = 0.5 * w

    diffs = c[:, None] - c[None, :]
    np.fill_diagonal(diffs, 1.0)
    bary = 1.0 / np.prod(diffs / 0.25, axis=1)

    def lagrange_all(t: float) -> np.ndarray:
        d = t - c
        hit = np.abs(d) < 1e-14
        if hit.any():
            out = np.zeros(q)
            out[hit] = 1.0
            return out
        r = bary / d
        return r / r.sum()

    a = np.zeros((q, q))
    for i in range(q):
        for m in range(q):
            a[i] += (c[i] * b[m]) * lagrange_all(c[i] * c[m])

    return ButcherTableau(q=q, a=a, b=b, c=c)
