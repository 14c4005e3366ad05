"""Fifth-order WENO-Z convection discretization on a uniform grid, plus the
scale-separation indicator that classifies each grid point as smooth or
discontinuous.

One path, ``_weno_dx``, takes the WENO-Z flux difference: it splits the flux,
fills the stencils of both upwind sides and calls the kernel ``_wenoz`` once.
The reference solver (``weno_derivative``) runs it on a whole ghost-padded
field and the training loss (``SparseWenoZ``, with a hand-written VJP that
``model.loss_node`` calls) on the cells from 3 before the first flagged point
to 3 after the last, so a mask with one flagged run (one shock) costs only its
own points and a mask with two also computes the points between them, from
zeros where no flagged stencil reads.  The
kernel runs on one slot-first (5, M) stencil array through its substencil
windows S[0:3], S[1:4] and S[2:5], as does the indicator's beta_0..beta_2.
Every sum keeps the order of the formulas written out term by term.  The
kernels write into the stencil array and temporaries of a buffer their caller
owns (a fresh one if it passes none) and never write an input; they keep each
product's operands and each sum's association and order (``c = C_lo lo; c +=
C_mid mid; ...``, never ``C_lo (lo + ...)``), so the numbers are bit for bit
those of the tuple-form kernel kept in ``tests/weno_oracle.py``, next to the
composition over autodiff Values.  A reference solve keeps one buffer for all
its stages and a ``SparseWenoZ`` one for all its calls: freeing ~330 KB of
temporaries per stage let glibc's malloc trim the top of the heap and fault
the pages back on the next stage, ~283k faults in a 1000-cell solve.

Smoothness indicators use the standard Jiang-Shu form with BOTH terms
squared: the unsquared 13/12 term sometimes seen in print can go negative,
which breaks the weight formula.

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
    "beta3",
    "split_flux",
    "weno_derivative",
    "SparseWenoZ",
    "discontinuity_flags",
    "dilate_mask",
]

GHOST = 3  # stencil half-width: three ghost cells on each side
MIN_POINTS = 8  # the fewest grid points the indicator, and so a training grid, takes


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
        if not (np.isfinite(self.dx) and self.dx > 0):
            raise ValueError("grid spacing must be positive and finite")
        if not np.isfinite(self.x0):
            raise ValueError("grid origin must be finite")
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
        # check before the cast, which would truncate 0.5 to 0 and 1.9 to 1
        raw = np.asarray(self.flags)
        if not np.all((raw == 0) | (raw == 1)):
            raise ValueError("mask entries must be 0 or 1")
        self.flags = np.asarray(raw, dtype=np.int64)

    def __len__(self):
        return self.flags.shape[0]

    def count(self) -> int:
        return int(self.flags.sum())


# -- stencil kernels ----------------------------------------------------------
# A kernel takes one C-contiguous (5, M) stencil array S (row m: f_{j-2+m} at
# M interfaces) and works on its windows lo = S[0:3], mid = S[1:4] and
# hi = S[2:5], whose row k belongs to substencil k.  Row lo/mid/hi of _C and
# _Q weighs that window: candidate fluxes (C_lo lo + C_mid mid + C_hi hi) / 6,
# Jiang-Shu differences P = lo - 2 mid + hi and Q = Q_lo lo + Q_mid mid + Q_hi hi.
_C = np.array([[2.0, -1.0, 2.0], [-7.0, 5.0, 5.0], [11.0, 2.0, -1.0]])
_Q = np.array([[1.0, 1.0, 3.0], [-4.0, 0.0, -4.0], [3.0, -1.0, 1.0]])
(_C_LO, _C_MID, _C_HI), (_Q_LO, _Q_MID, _Q_HI) = _C[:, :, None], _Q[:, :, None]
_P = np.array([[1.0], [-2.0], [1.0]])
_D = np.array(LINEAR_WEIGHTS)[:, None]


class _Buffer:
    """The arrays one caller's WENO-Z evaluations write into, call after call.

    It holds `_weno_dx`'s (5, 2, n+1, ...) stencil array and the kernel's
    (3, M) and (M,) temporaries, each made on first use and again when its
    shape changes.  Results that live in it (the kernel's tape) stay valid
    until the next evaluation with the same buffer.
    """

    def __init__(self):
        self.stencils = np.empty(0)
        self.columns = -1

    def stencil_array(self, shape):
        if self.stencils.shape != shape:
            self.stencils = np.empty(shape)
        return self.stencils

    def fit(self, columns: int):
        """The buffer, with its kernel temporaries sized for `columns` interfaces."""
        if columns != self.columns:
            self.columns = columns
            self.c, self.t, self.p, self.q, self.beta, self.ratios, self.w = np.empty((7, 3, columns))
            self.spread, self.mag, self.asum, self.fhat = np.empty((4, columns))
        return self


def _indicators(s, buf=None):
    """Jiang-Shu beta_0..beta_2 (both terms squared), with their P and Q."""
    buf = (buf or _Buffer()).fit(s.shape[1])
    lo, mid, hi = s[0:3], s[1:4], s[2:5]
    t = buf.t
    p = np.subtract(lo, np.multiply(2.0, mid, out=t), out=buf.p)
    p += hi
    q = np.multiply(_Q_LO, lo, out=buf.q)
    q += np.multiply(_Q_MID, mid, out=t)
    q += np.multiply(_Q_HI, hi, out=t)
    beta = np.square(p, out=buf.beta)
    beta *= 13.0 / 12.0
    beta += np.multiply(np.square(q, out=t), 0.25, out=t)
    return beta, p, q


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
    fe, lu = flux_fn(u_ext), lam * u_ext
    return (fe + lu) * 0.5, (fe - lu) * 0.5


def _wenoz(s, buf=None):
    """WENO-Z flux at x_{j+1/2} from the (5, M) upwind stencils `s` = f_{j-2..j+2}.

    Columns are independent, so the callers put both upwind sides side by
    side and reconstruct them in one call.  Returns the flux first, then the
    intermediates `_wenoz_vjp` reads, all of them arrays of `buf` (a fresh
    `_Buffer` if none is given); `s` is only read.  No divisor can vanish:
    each beta_k is a sum of squares, so beta_k + EPS >= EPS, and each
    alpha_k >= d_k, so the alpha sum is at least 1.
    """
    buf = (buf or _Buffer()).fit(s.shape[1])
    t = buf.t
    c = np.multiply(_C_LO, s[0:3], out=buf.c)
    c += np.multiply(_C_MID, s[1:4], out=t)
    c += np.multiply(_C_HI, s[2:5], out=t)
    c *= 1.0 / 6.0
    beta, p, q = _indicators(s, buf)
    spread = np.subtract(beta[0], beta[2], out=buf.spread)
    dens = np.add(beta, EPS, out=beta)
    ratios = np.divide(np.abs(spread, out=buf.mag), dens, out=buf.ratios)  # tau5 / (beta_k + EPS)
    w = np.square(ratios, out=buf.w)
    w += 1.0
    w *= _D  # alpha_k
    asum = np.add(w[0], w[1], out=buf.asum)
    asum += w[2]
    w /= asum
    fhat = np.multiply(w[0], c[0], out=buf.fhat)
    fhat += np.multiply(w[1], c[1], out=t[0])
    fhat += np.multiply(w[2], c[2], out=t[0])
    return fhat, c, w, asum, dens, ratios, spread, p, q


def _wenoz_vjp(g, tape):
    """Gradient (5, M) on the stencils of <g, reconstructed flux>."""
    fhat, c, w, asum, dens, ratios, spread, p, q = tape
    # fhat = sum_k w_k c_k with w_k = alpha_k / asum
    gc0, gc1, gc2 = g * w
    # alpha_k = d_k (1 + r_k^2), r_k = tau5 / (beta_k + EPS)
    gr = c - fhat
    gr *= g
    gr /= asum
    gr *= 2.0 * _D
    gr *= ratios
    t = np.divide(gr, dens)
    gtau = (t[0] + t[1] + t[2]) * np.sign(spread)  # tau5 = |beta_0 - beta_2|
    gb = np.negative(gr, out=gr)
    gb *= ratios
    gb /= dens
    gb[0] += gtau
    gb[2] -= gtau
    # candidate fluxes
    gs = np.empty((5,) + g.shape)
    gs[0] = (2.0 / 6.0) * gc0
    gs[1] = (-7.0 * gc0 - gc1) * (1.0 / 6.0)
    gs[2] = (11.0 * gc0 + 5.0 * gc1 + 2.0 * gc2) * (1.0 / 6.0)
    gs[3] = (2.0 * gc1 + 5.0 * gc2) * (1.0 / 6.0)
    gs[4] = (-1.0 / 6.0) * gc2
    # beta_k = 13/12 P_k^2 + 1/4 Q_k^2, window by window
    gq = gb * 0.5
    gq *= q
    gp = np.multiply(gb, 13.0 / 6.0, out=gb)
    gp *= p
    for k in range(3):
        win = gs[k : k + 3]
        win += np.multiply(_P, gp[k], out=t)
        win += np.multiply(_Q[:, k : k + 1], gq[k], out=t)
    return gs


class SparseWenoZ:
    """WENO-Z f(u)_x at a fixed set of grid points, with a hand-written VJP.

    Construction fixes, once per frozen mask (which must flag a point), the
    flagged points and the window of cells their stencils read: grid cells
    first - GHOST .. last + GHOST, with the wall value 0 in the cells beyond
    each wall.  A call copies into the window the cells of u some flagged
    stencil reads and runs `_weno_dx` on it, so each value is bit for bit
    `weno_derivative`'s from the zero-padded field.  The window holds one
    cell per row and the rows of u along the last axis, so each copy moves
    whole rows.  Between two flagged runs the window computes unflagged
    points too, from 0 in the cells no flagged stencil reads, so a value
    there that would overflow the kernel cannot put NaN in the gradient
    through a zero cotangent; a mask with one run, as one shock gives, has
    no such points.  `vjp` differentiates the last call; each window cell
    sums its six terms in the order m = 0 .. 5, and a grid cell no flagged
    stencil reads gets 0.  The last call's tape lives in the instance's one
    `_Buffer` until the next call overwrites it.
    """

    def __init__(self, flags, flux_fn, dflux_fn, lam: float, dx: float):
        self.points = points = np.flatnonzero(flags)
        self._n = n = len(flags)
        first = points[0] - GHOST
        self._width = points[-1] + GHOST + 1 - first
        # each run of grid cells some flagged stencil reads, as (its cells on
        # the grid, where they sit in the window): one piece per mask run, or
        # fewer where two runs' stencils share or touch a cell
        read = np.zeros(n + 2, dtype=bool)
        read[1:-1] = dilate_mask(DiscontinuityMask(flags), GHOST).flags
        edges = np.flatnonzero(read[1:] != read[:-1]).reshape(-1, 2).tolist()
        self._pieces = [(slice(a, b), slice(a - first, b - first)) for a, b in edges]
        self.flux_fn, self.dflux_fn, self.lam, self.dx = flux_fn, dflux_fn, lam, dx
        self._buf = _Buffer()

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """WENO-Z f(u)_x at `points` from u on the whole grid (..., n)."""
        rows = u.reshape(-1, self._n)
        window = np.zeros((self._width, len(rows)))
        for cells, inner in self._pieces:
            window[inner] = rows[:, cells].T
        d, tape = _weno_dx(window, self.flux_fn, self.lam, self.dx, self._buf)
        self._tape = (window, tape)
        return d[self.points - self.points[0]].T.reshape(u.shape[:-1] + (len(self.points),))

    def vjp(self, grad: np.ndarray) -> np.ndarray:
        """Gradient on u (..., n) of <grad, self(u)> at the last call's u."""
        window, tape = self._tape
        width, rows = window.shape
        ifaces = width - 2 * GHOST + 1
        # interface k takes g_{k-1} - g_k: its left point's gradient, then its right's
        g = np.zeros((ifaces + 1, rows))
        g[self.points - self.points[0] + 1] = grad.reshape(rows, -1).T
        g *= 1.0 / self.dx
        gfhat = np.empty((2, ifaces, rows))  # the same on both upwind sides
        np.subtract(g[:-1], g[1:], out=gfhat)
        gs = _wenoz_vjp(gfhat.reshape(-1), tape).reshape(5, 2, ifaces, rows)
        # window cell k + m of interface k: f+ slot m and f- slot 5 - m;
        # gp[5] and gm[0] stay zero
        gp, gm = np.zeros((2, 2 * GHOST, ifaces, rows))
        gp[:5] = gs[:, 0]
        gm[5:0:-1] = gs[:, 1]
        # f+- = (f(u) +- lam u) / 2
        gue = gp + gm
        df = self.dflux_fn(window)
        for m in range(2 * GHOST):
            gue[m] *= df[m : m + ifaces]
        gm = np.subtract(gp, gm, out=gm)
        gm *= self.lam
        gue += gm
        gue *= 0.5
        # each window cell sums its terms in the order m = 0 .. 5
        gw = np.zeros(window.shape)
        for m in range(2 * GHOST):
            gw[m : m + ifaces] += gue[m]
        du = np.zeros((rows, self._n))
        for cells, inner in self._pieces:
            du[:, cells] = gw[inner].T
        return du.reshape(grad.shape[:-1] + (self._n,))


def _weno_dx(u_ext, flux_fn, lam: float, dx: float, buf=None):
    """WENO-Z d f(u) / dx at the points of `u_ext`, and `_wenoz`'s tape.

    `u_ext` holds GHOST cells on each side of its points along axis 0; any
    trailing axes are independent columns.  The stencils and the tape are
    arrays of `buf` (a fresh `_Buffer` if none is given); the derivative is a
    new array.
    """
    buf = buf or _Buffer()
    n = u_ext.shape[0] - 2 * GHOST
    fp, fm = split_flux(u_ext, flux_fn, lam)
    # interface x_{i-1/2}, i = 0 .. n, reads f+ at cells i .. i + 4 (side 0)
    # and f- at cells i + 5 .. i + 1 (side 1)
    s = buf.stencil_array((5, 2, n + 1) + u_ext.shape[1:])
    for m in range(5):
        s[m, 0] = fp[m : m + n + 1]
        s[m, 1] = fm[5 - m : 6 - m + n]
    tape = _wenoz(s.reshape(5, -1), buf)
    plus, minus = tape[0].reshape(s.shape[1:])
    fhat = plus + minus
    d = fhat[1:] - fhat[:-1]
    d *= 1.0 / dx
    return d, tape


def weno_derivative(u_ext: np.ndarray, flux_fn, lam: float, dx: float,
                    buf=None) -> np.ndarray:
    """d f(u) / dx at every grid point via conservative WENO-Z differences.

    `u_ext` is the field with GHOST ghost cells already on each side.  `buf`
    is the caller's `_Buffer` for the kernel's arrays, kept from call to
    call; without one the call makes its own.
    """
    return _weno_dx(u_ext, flux_fn, lam, dx, buf)[0]


# -- discontinuity indicator --------------------------------------------------


def discontinuity_flags(u: GridField) -> DiscontinuityMask:
    """Classify each point as smooth (0) or discontinuous (1).

    At point j the four indicators are beta_0..beta_2 over the centered
    5-stencil and beta_3 over {j+1, j+2, j+3}; the normalized scale-separation
    measures chi_k = gamma_k / sum(gamma) with gamma_k = (beta_k + DELTA)^-POWER
    must ALL exceed THRESHOLD for the point to count as smooth.

    Flags are evaluated only where the full stencil fits inside the domain
    (j in [2, n-4]); the remaining boundary points stay 0.  There is no
    off-domain data to pad with, and padding with the wall value would
    manufacture a kink that flags smooth fields at the wall.
    """
    f = u.values
    n = f.shape[0]
    if n < MIN_POINTS:
        raise ValueError(f"indicator needs at least {MIN_POINTS} points, got {n}")
    s = np.array([f[k : k + n - 5] for k in range(6)])  # points j = 2 .. n-4, offsets j-2 .. j+3
    gamma = (np.vstack((_indicators(s)[0], beta3(s[3:6]))) + DELTA) ** (-float(POWER))
    chi = gamma / gamma.sum(axis=0)
    flags = np.zeros(n, dtype=np.int64)
    flags[2 : n - 3] = ~np.all(chi > THRESHOLD, axis=0)
    return DiscontinuityMask(flags)


def dilate_mask(mask: DiscontinuityMask, radius: int) -> DiscontinuityMask:
    """Grow flagged regions by `radius` >= 0 cells on each side (no caller passes less)."""
    # full[j + radius] counts the flags within `radius` of j, whatever the grid size
    full = np.convolve(mask.flags.astype(np.float64), np.ones(2 * radius + 1))
    grown = full[radius : radius + len(mask)] > 0.5
    return DiscontinuityMask(grown.astype(np.int64))
