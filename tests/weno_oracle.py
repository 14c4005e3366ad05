"""The dense WENO-Z reference implementation, and random flag masks, shared by
the tests of the WENO-Z kernel (`weno._wenoz`) and of the sparse branch
(`weno.SparseWenoZ`, inside `model.loss_node`).

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

from hpinn.weno import (
    EPS,
    LINEAR_WEIGHTS,
    candidate_fluxes,
    smoothness_indicators,
    split_flux,
)
from loss_oracle import pad_const, window


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
    ue = pad_const(stages.u, 3, 3, pde.boundary_value)
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
