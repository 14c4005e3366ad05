"""Dense WENO-Z convection and random flag masks, shared by the tests of the
sparse WENO-Z branch (`weno.SparseWenoZ`, inside `model.loss_node`).

`dense_convection` is the graph composition the training loss used before the
branch became one node: WENO-Z over every point of every stage row, from the
constant ghost extension, then a 0/1 blend with the autodiff term.  It is the
oracle for both the values and the gradients of the sparse branch.
"""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hpinn.weno import DEFAULT_CONSTANTS, split_flux, weno_flux_divergence
from loss_oracle import pad_const, window


def dense_convection(stages, mask, pde, lam, dx, consts=DEFAULT_CONSTANTS):
    """`loss_oracle.hybrid_convection` as a composition of generic graph nodes.

    Same signature, so it can stand in for it inside `loss_oracle.loss_graph`.
    The blend runs whatever the mask, so an all-zero mask gives the autodiff
    term blended with weight 1.
    """
    conv_ad = pde.dflux(stages.u) * stages.dx
    ue = pad_const(stages.u, 3, 3, pde.boundary_value)
    fp, fm = split_flux(ue, pde.flux, lam)
    conv_weno = weno_flux_divergence(fp, fm, len(mask), dx, win=window, consts=consts)
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
