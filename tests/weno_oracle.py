"""The dense WENO-Z reference implementation, and random flag masks, shared by
the tests of the WENO-Z kernel (`weno._wenoz`) and of the sparse branch
(`weno.SparseWenoZ`, inside `model.loss_node`).

`candidate_fluxes`, `smoothness_indicators`, `_wenoz`, `_wenoz_vjp`,
`SparseWenoZ` and `indicator_flags` are the package's kernel, sparse branch
and indicator as they were before they moved to one (5, M) stencil array:
tuples of five stencil rows, one formula per substencil.  The package's must
match them bit for bit.

`wenoz_weights`, `reconstruct_interface_flux` and `weno_flux_divergence` are
the reconstruction as the package first wrote it, over every interface and
for ndarrays and autodiff Values alike (`win` abstracts the slicing).
`dense_convection` is the graph composition the training loss used before the
branch became one node: WENO-Z over every point of every stage row, from the
constant ghost extension, then a 0/1 blend with the autodiff term.  They are
the oracle for the values and the gradients of the package's one kernel.
"""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hpinn.weno import DELTA, EPS, GHOST, LINEAR_WEIGHTS, POWER, THRESHOLD, beta3, split_flux
from loss_oracle import pad_const, window


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
    ghost-padded columns each interface reads; ghosts hold the wall value 0.
    A call runs the `_wenoz` kernel on those interfaces alone, so each value
    is bit for bit the one `weno_derivative` gives at that point from the
    zero-padded field, the two sharing `EPS`.  `vjp`
    differentiates the
    candidate fluxes, the Jiang-Shu indicators, tau5 and the WENO-Z weights
    by hand (`_wenoz_vjp`), from what the last call kept.
    """

    def __init__(self, flags, flux_fn, dflux_fn, lam: float, dx: float):
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
        self._tape = None

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """WENO-Z f(u)_x at `points` from u on the whole grid (..., n)."""
        if not self.points.size:
            return np.zeros(u.shape[:-1] + (0,))
        ue = u[..., self._src]  # (..., 6, interfaces)
        ue[..., self._ghost] = 0.0
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


def indicator_flags(f):
    """`weno.discontinuity_flags` of the values `f`, from the tuple formulas."""
    n = f.shape[0]
    m = n - 5  # points j = 2 .. n-4
    s = tuple(f[k : k + m] for k in range(6))  # offsets j-2 .. j+3
    b0, b1, b2 = smoothness_indicators(s[:5])
    b3 = beta3(s[3:6])
    gamma = (np.stack([b0, b1, b2, b3]) + DELTA) ** (-float(POWER))
    chi = gamma / gamma.sum(axis=0)
    flags = np.zeros(n, dtype=np.int64)
    flags[2 : n - 3] = ~np.all(chi > THRESHOLD, axis=0)
    return flags


def wenoz_weights(betas):
    """Nonlinear WENO-Z weights with global indicator tau5 = |beta0 - beta2|."""
    b0, b1, b2 = betas
    tau5 = abs(b0 - b2)
    d0, d1, d2 = LINEAR_WEIGHTS
    a0 = d0 * (1.0 + (tau5 / (b0 + EPS)) ** 2)
    a1 = d1 * (1.0 + (tau5 / (b1 + EPS)) ** 2)
    a2 = d2 * (1.0 + (tau5 / (b2 + EPS)) ** 2)
    asum = a0 + a1 + a2
    return a0 / asum, a1 / asum, a2 / asum


def reconstruct_interface_flux(stencil):
    """Fifth-order WENO-Z flux at x_{j+1/2} from the upwind 5-point stencil."""
    c0, c1, c2 = candidate_fluxes(stencil)
    w0, w1, w2 = wenoz_weights(smoothness_indicators(stencil))
    return w0 * c0 + w1 * c1 + w2 * c2


def _np_window(a, start, length):
    return a[..., start : start + length]


def weno_flux_divergence(fplus_ext, fminus_ext, n, dx, win=_np_window):
    """(f_hat_{i+1/2} - f_hat_{i-1/2}) / dx from split fluxes with 3 ghosts.

    `fplus_ext`/`fminus_ext` carry the split flux on the extended grid
    (..., n + 6).  The positive part is reconstructed from left-biased
    stencils; the negative part mirrors them about the interface.  `win`
    abstracts slicing so the same wiring drives ndarrays and graph nodes.
    """
    n_ifaces = n + 1  # interfaces i + 1/2 for i = -1 .. n-1
    sp = tuple(win(fplus_ext, 2 + m, n_ifaces) for m in (-2, -1, 0, 1, 2))
    sm = tuple(win(fminus_ext, 2 + m, n_ifaces) for m in (3, 2, 1, 0, -1))
    fhat = reconstruct_interface_flux(sp) + reconstruct_interface_flux(sm)
    return (win(fhat, 1, n) - win(fhat, 0, n)) * (1.0 / dx)


def dense_convection(stages, mask, pde, lam, dx):
    """`loss_oracle.hybrid_convection` as a composition of generic graph nodes.

    Same signature, so it can stand in for it inside `loss_oracle.loss_graph`.
    The blend runs whatever the mask, so an all-zero mask gives the autodiff
    term blended with weight 1.
    """
    conv_ad = pde.dflux(stages.u) * stages.dx
    ue = pad_const(stages.u, 3, 3, 0.0)
    fp, fm = split_flux(ue, pde.flux, lam)
    conv_weno = weno_flux_divergence(fp, fm, len(mask), dx, win=window)
    m = mask.flags.astype(np.float64)
    return conv_ad * (1.0 - m) + conv_weno * m


def edge_masks(n):
    """Masks that reach the walls, split into runs, or flag everything."""
    walls = np.zeros(n, dtype=np.int64)
    walls[:3] = walls[-3:] = 1
    runs = np.zeros(n, dtype=np.int64)
    runs[4:9] = runs[15:17] = runs[n - 8 : n - 5] = 1
    single = np.zeros(n, dtype=np.int64)
    single[n // 2] = 1
    return [walls, runs, single, np.ones(n, dtype=np.int64)]


def masks(n):
    """Edge masks, unions of flagged runs, and independent random flags."""

    def from_runs(runs):
        flags = np.zeros(n, dtype=np.int64)
        for start, length in runs:
            flags[start : start + length] = 1
        return flags

    run_masks = st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, 8)), min_size=1, max_size=4
    ).map(from_runs)
    coin_masks = arrays(np.int64, n, elements=st.integers(0, 1))
    return st.one_of(st.sampled_from(edge_masks(n)), run_masks, coin_masks)
