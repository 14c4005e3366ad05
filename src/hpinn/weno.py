"""Fifth-order WENO-Z convection discretization on a uniform grid, plus the
scale-separation indicator that classifies each grid point as smooth or
discontinuous.

One kernel, ``_wenoz``, reconstructs the WENO-Z interface flux for both the
reference solver (``weno_derivative``, every interface of a field the caller
has padded with ghost cells) and the training loss (``SparseWenoZ``, the
flagged points and their 3-cell halos, with a hand-written vector-Jacobian
product that ``model.loss_node`` calls).
The kernels here serve ndarrays.  The WENO-Z composition over autodiff Values,
which the tests keep as an oracle, lives in ``tests/weno_oracle.py``; it
reuses the plain arithmetic of ``candidate_fluxes`` and
``smoothness_indicators``.

Smoothness indicators use the Jiang-Shu form with BOTH terms squared.  The
unsquared 13/12 term sometimes seen in print can go negative, which breaks
the weight formula; the squared form is the standard one and is what is
implemented here.

The scheme's numbers are module constants: the WENO-Z floor `EPS` (Borges et
al., JCP 227 (2008) 3191), the indicator's `DELTA`, `POWER` and `THRESHOLD`,
and the `MASK_DILATION` cells a flagged region grows by to cover shock motion
within one step (arXiv 2112.01696).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridField",
    "DiscontinuityMask",
    "candidate_fluxes",
    "smoothness_indicators",
    "beta3",
    "split_flux",
    "weno_derivative",
    "SparseWenoZ",
    "discontinuity_flags",
    "dilate_mask",
]

GHOST = 3  # stencil half-width: three ghost cells on each side


@dataclass
class GridField:
    """Scalar samples on a uniform 1-D grid; the currency between modules."""

    values: np.ndarray
    x0: float
    dx: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("GridField values must be one-dimensional")
        if self.values.shape[0] < 2 * GHOST + 1:
            raise ValueError("GridField needs at least 7 points (one WENO stencil)")
        if self.dx <= 0:
            raise ValueError("grid spacing must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridField values must be finite")

    def __len__(self):
        return self.values.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self))


LINEAR_WEIGHTS = (0.1, 0.6, 0.3)  # optimal (linear) WENO-Z weights d_0..d_2
EPS = 1e-40  # floor of the weight denominators beta_k + EPS
DELTA = 1e-4  # indicator regularization, 1-D value
POWER = 6  # indicator scale-separation exponent
THRESHOLD = 5e-4  # indicator threshold c_t
MASK_DILATION = 3  # cells a flagged region grows by on each side


@dataclass
class DiscontinuityMask:
    """Per-point binary flag: 1 selects the WENO convection path."""

    flags: np.ndarray

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=np.int64)
        bad = (self.flags != 0) & (self.flags != 1)
        if bad.any():
            raise ValueError("mask entries must be 0 or 1")

    def __len__(self):
        return self.flags.shape[0]

    def count(self) -> int:
        return int(self.flags.sum())


# -- stencil kernels (backend-agnostic arithmetic) ---------------------------


def candidate_fluxes(stencil):
    """Third-order candidate fluxes at x_{j+1/2} from f_{j-2..j+2}."""
    fm2, fm1, f0, fp1, fp2 = stencil
    f_hat0 = (2.0 * fm2 - 7.0 * fm1 + 11.0 * f0) * (1.0 / 6.0)
    f_hat1 = (-1.0 * fm1 + 5.0 * f0 + 2.0 * fp1) * (1.0 / 6.0)
    f_hat2 = (2.0 * f0 + 5.0 * fp1 - 1.0 * fp2) * (1.0 / 6.0)
    return f_hat0, f_hat1, f_hat2


def smoothness_indicators(stencil):
    """Jiang-Shu beta_0..beta_2 over the three substencils (both terms squared)."""
    fm2, fm1, f0, fp1, fp2 = stencil
    b0 = (13.0 / 12.0) * (fm2 - 2.0 * fm1 + f0) ** 2 + 0.25 * (fm2 - 4.0 * fm1 + 3.0 * f0) ** 2
    b1 = (13.0 / 12.0) * (fm1 - 2.0 * f0 + fp1) ** 2 + 0.25 * (fm1 - fp1) ** 2
    b2 = (13.0 / 12.0) * (f0 - 2.0 * fp1 + fp2) ** 2 + 0.25 * (3.0 * f0 - 4.0 * fp1 + fp2) ** 2
    return b0, b1, b2


def beta3(stencil):
    """Downstream smoothness indicator over f_{j+1..j+3} (indicator only).

    The quadratic form (22 f1^2 - 73 f1 f2 + 29 f1 f3 + 61 f2^2 - 49 f2 f3
    + 10 f3^2) / 3 vanishes on constants, so it is evaluated in the
    differences: a field offset does not cancel, and the result cannot go
    negative (the form is positive definite in them).
    """
    f1, f2, f3 = stencil
    d1, d2 = f2 - f1, f3 - f2
    return (1.0 / 3.0) * (22.0 * d1 * d1 - 29.0 * d1 * d2 + 10.0 * d2 * d2)


# -- field-level operators ----------------------------------------------------


def split_flux(u_ext, flux_fn, lam: float):
    """Global Lax-Friedrichs splitting f+- = (f(u) +- lam*u) / 2.

    `lam` must bound |f'(u)| for the split fluxes to be monotone.  `u_ext`
    is an ndarray or a graph node; the result is a (f+, f-) pair of the same.
    """
    fe = flux_fn(u_ext)
    return (fe + lam * u_ext) * 0.5, (fe - lam * u_ext) * 0.5


def _wenoz(s):
    """WENO-Z flux at x_{j+1/2} from the upwind stencil arrays `s` = f_{j-2..j+2}.

    The arithmetic is elementwise, so the callers stack both upwind sides on
    a leading axis and reconstruct them in one call.  Returns the flux first,
    then the intermediates `_wenoz_vjp` reads.  No divisor can vanish: each
    beta_k is a sum of squares, so beta_k + EPS >= EPS, and each alpha_k >=
    d_k, so the alpha sum is at least 1.
    """
    c = candidate_fluxes(s)
    b0, b1, b2 = smoothness_indicators(s)
    spread = b0 - b2
    tau5 = abs(spread)
    dens = (b0 + EPS, b1 + EPS, b2 + EPS)
    ratios = tuple(tau5 / den for den in dens)
    alphas = tuple(d * (1.0 + r ** 2) for d, r in zip(LINEAR_WEIGHTS, ratios))
    asum = alphas[0] + alphas[1] + alphas[2]
    w = tuple(a / asum for a in alphas)
    fhat = w[0] * c[0] + w[1] * c[1] + w[2] * c[2]
    return fhat, s, c, w, asum, dens, ratios, spread


def _wenoz_vjp(g, tape):
    """Gradient on the five stencil values of <g, reconstructed flux>."""
    fhat, (v0, v1, v2, v3, v4), c, w, asum, dens, ratios, spread = tape
    # fhat = sum_k w_k c_k with w_k = alpha_k / asum
    gc0, gc1, gc2 = (g * wk for wk in w)
    # alpha_k = d_k (1 + r_k^2), r_k = tau5 / (beta_k + EPS)
    gr = [g * (ck - fhat) / asum * (2.0 * d) * r
          for ck, d, r in zip(c, LINEAR_WEIGHTS, ratios)]
    gtau = gr[0] / dens[0] + gr[1] / dens[1] + gr[2] / dens[2]
    gb0, gb1, gb2 = (-grk * r / den for grk, r, den in zip(gr, ratios, dens))
    sign = np.sign(spread)  # tau5 = |beta_0 - beta_2|
    gb0 = gb0 + gtau * sign
    gb2 = gb2 - gtau * sign
    # candidate fluxes
    s0 = (2.0 / 6.0) * gc0
    s1 = (-7.0 * gc0 - gc1) * (1.0 / 6.0)
    s2 = (11.0 * gc0 + 5.0 * gc1 + 2.0 * gc2) * (1.0 / 6.0)
    s3 = (2.0 * gc1 + 5.0 * gc2) * (1.0 / 6.0)
    s4 = (-1.0 / 6.0) * gc2
    # beta_k = 13/12 P_k^2 + 1/4 Q_k^2
    t, q = (13.0 / 6.0) * gb0 * (v0 - 2.0 * v1 + v2), 0.5 * gb0 * (v0 - 4.0 * v1 + 3.0 * v2)
    s0 = s0 + t + q
    s1 = s1 - 2.0 * t - 4.0 * q
    s2 = s2 + t + 3.0 * q
    t, q = (13.0 / 6.0) * gb1 * (v1 - 2.0 * v2 + v3), 0.5 * gb1 * (v1 - v3)
    s1 = s1 + t + q
    s2 = s2 - 2.0 * t
    s3 = s3 + t - q
    t, q = (13.0 / 6.0) * gb2 * (v2 - 2.0 * v3 + v4), 0.5 * gb2 * (3.0 * v2 - 4.0 * v3 + v4)
    s2 = s2 + t + 3.0 * q
    s3 = s3 - 2.0 * t - 4.0 * q
    s4 = s4 + t + q
    return s0, s1, s2, s3, s4


class SparseWenoZ:
    """WENO-Z f(u)_x at a fixed set of grid points, with a hand-written VJP.

    Construction fixes, once per frozen mask, the flagged points, the
    interfaces they difference (x_{j-1/2} and x_{j+1/2}) and the six
    ghost-padded columns each interface reads; ghosts hold `boundary_value`.
    A call runs the `_wenoz` kernel on those interfaces alone, so each value
    is bit for bit the one `weno_derivative` gives at that point from the
    field padded with `boundary_value`, the two sharing `EPS`.  `vjp`
    differentiates the
    candidate fluxes, the Jiang-Shu indicators, tau5 and the WENO-Z weights
    by hand (`_wenoz_vjp`), from what the last call kept.
    """

    def __init__(self, flags, flux_fn, dflux_fn, lam: float, dx: float,
                 boundary_value: float = 0.0):
        n = len(flags)
        self.points = np.flatnonzero(flags)
        # f_hat index k is the interface x_{k-1/2}: point j differences k = j, j + 1
        ifaces = np.union1d(self.points, self.points + 1)
        self._lo = np.searchsorted(ifaces, self.points)
        self._hi = self._lo + 1
        self._cols = ifaces + np.arange(2 * GHOST)[:, None]  # (6, interfaces), padded
        src = self._cols - GHOST
        self._src = np.clip(src, 0, n - 1)
        self._ghost = (src < 0) | (src >= n)
        self._n = n
        self.flux_fn, self.dflux_fn, self.lam, self.dx = flux_fn, dflux_fn, lam, dx
        self.boundary_value = boundary_value
        self._tape = None

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """WENO-Z f(u)_x at `points` from u on the whole grid (..., n)."""
        if not self.points.size:
            return np.zeros(u.shape[:-1] + (0,))
        ue = u[..., self._src]  # (..., 6, interfaces)
        ue[..., self._ghost] = self.boundary_value
        fp, fm = split_flux(ue, self.flux_fn, self.lam)
        # both upwind sides at once: f+ left-biased, f- mirrored about x_{k-1/2}
        sides = np.stack((fp[..., :5, :], fm[..., 5:0:-1, :]))
        tape = _wenoz(tuple(sides[..., m, :] for m in range(5)))
        self._tape = (ue, tape)
        plus, minus = tape[0]
        fhat = plus + minus
        return (fhat[..., self._hi] - fhat[..., self._lo]) * (1.0 / self.dx)

    def vjp(self, grad: np.ndarray) -> np.ndarray:
        """Gradient on u (..., n) of <grad, self(u)> at the last call's u."""
        du = np.zeros(grad.shape[:-1] + (self._n + 2 * GHOST,))
        if self.points.size:
            ue, tape = self._tape
            g = grad * (1.0 / self.dx)
            gfhat = np.zeros(tape[0].shape[1:])
            gfhat[..., self._hi] = g
            gfhat[..., self._lo] -= g
            gsides = np.stack(_wenoz_vjp(gfhat, tape), axis=-2)
            gp = np.zeros(ue.shape)
            gm = np.zeros(ue.shape)
            gp[..., :5, :] = gsides[0]
            gm[..., 5:0:-1, :] = gsides[1]
            # f+- = (f(u) +- lam u) / 2
            gue = 0.5 * ((gp + gm) * self.dflux_fn(ue) + self.lam * (gp - gm))
            for m in range(2 * GHOST):
                du[..., self._cols[m]] += gue[..., m, :]
        return du[..., GHOST : GHOST + self._n]


def weno_derivative(u_ext: np.ndarray, flux_fn, lam: float, dx: float) -> np.ndarray:
    """d f(u) / dx at every grid point via conservative WENO-Z differences.

    `u_ext` is the field with GHOST ghost cells already on each side.
    """
    n = u_ext.shape[0] - 2 * GHOST
    fp, fm = split_flux(u_ext, flux_fn, lam)
    # each interface x_{i-1/2}, i = 0 .. n, reads the extended-grid cells i .. i + 5:
    # f+ the left-biased five, f- the same stencil mirrored about the interface
    sides = np.array([[fp[k : k + n + 1] for k in range(5)],
                      [fm[k : k + n + 1] for k in range(5, 0, -1)]])
    plus, minus = _wenoz(tuple(sides[:, m] for m in range(5)))[0]
    fhat = plus + minus
    return (fhat[1:] - fhat[:-1]) * (1.0 / dx)


# -- discontinuity indicator --------------------------------------------------


def discontinuity_flags(u: GridField) -> DiscontinuityMask:
    """Classify each point as smooth (0) or discontinuous (1).

    At point j the four indicators are beta_0..beta_2 over the centered
    5-stencil and beta_3 over {j+1, j+2, j+3}; the normalized scale-separation
    measures chi_k = gamma_k / sum(gamma) with gamma_k = (beta_k + DELTA)^-POWER
    must ALL exceed THRESHOLD for the point to count as smooth.

    Flags are evaluated only where the full stencil fits inside the domain
    (j in [2, n-4]); the remaining boundary points stay 0.  There is no
    off-domain data to pad with, and padding with the boundary value would
    manufacture a kink that flags smooth fields at the wall.
    """
    f = u.values
    n = f.shape[0]
    if n < 8:
        raise ValueError(f"indicator needs at least 8 points, got {n}")
    m = n - 5  # points j = 2 .. n-4
    s = tuple(f[k : k + m] for k in range(6))  # offsets j-2 .. j+3
    b0, b1, b2 = smoothness_indicators(s[:5])
    b3 = beta3(s[3:6])
    gamma = (np.stack([b0, b1, b2, b3]) + DELTA) ** (-float(POWER))
    chi = gamma / gamma.sum(axis=0)
    flags = np.zeros(n, dtype=np.int64)
    flags[2 : n - 3] = ~np.all(chi > THRESHOLD, axis=0)
    return DiscontinuityMask(flags)


def dilate_mask(mask: DiscontinuityMask, radius: int) -> DiscontinuityMask:
    """Grow flagged regions by `radius` cells on each side."""
    if radius <= 0 or mask.count() == 0:
        return DiscontinuityMask(mask.flags.copy())
    # full[j + radius] counts the flags within `radius` of j, whatever the grid size
    full = np.convolve(mask.flags.astype(np.float64), np.ones(2 * radius + 1))
    grown = full[radius : radius + len(mask)] > 0.5
    return DiscontinuityMask(grown.astype(np.int64))
