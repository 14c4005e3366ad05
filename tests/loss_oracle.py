"""The training loss as a composition of generic graph nodes, shared by the
tests of the fused loss node (`model.loss_node`).

The structural ops (`tanh`, `pad_const`, `window`, `rows`, `take_cols`,
`matmul`, `mean`) and the residual, tableau fold and loss built from them are
the graph the training loss used before everything after the network became
one node: one node per op, each a forward plus its VJP made a node by
`autodiff.fused`.  `loss_graph` assembles them like `model.build_loss_graph`
and gives its losses and parameter gradients bit for bit.
"""

from __future__ import annotations

import numpy as np

from hpinn import autodiff as ad
from hpinn.autodiff import Graph, Jet, Value
from hpinn.network import forward_stages
from hpinn.weno import SparseWenoZ


def tanh(a: Value) -> Value:
    return ad.fused((a,), np.tanh, lambda g, y, x: (g * (1.0 - y * y),), "tanh")


# -- structural operations --------------------------------------------------


def _scatter(sl):
    """VJP of reading slice `sl`: the gradient placed in zeros of the parent's shape."""

    def vjp(g, y, x):
        out = np.zeros_like(x)
        out[sl] = g
        return (out,)

    return vjp


def pad_const(a: Value, left: int, right: int, value: float = 0.0) -> Value:
    """Extend the last axis by `left`/`right` ghost entries holding `value`."""
    pad_width = [(0, 0)] * (a.data.ndim - 1) + [(left, right)]
    sl = (Ellipsis, slice(left, left + a.data.shape[-1]))
    return ad.fused((a,), lambda x: np.pad(x, pad_width, constant_values=value),
                    lambda g, y, x: (g[sl],), "pad")


def window(a: Value, start: int, length: int) -> Value:
    """Contiguous slice of the last axis."""
    sl = (Ellipsis, slice(start, start + length))
    return ad.fused((a,), lambda x: x[sl], _scatter(sl), "window")


def rows(a: Value, start: int, length: int) -> Value:
    """Contiguous slice of the first axis of a 2-D node."""
    sl = slice(start, start + length)
    return ad.fused((a,), lambda x: x[sl], _scatter(sl), "rows")


def take_cols(a: Value, idx) -> Value:
    """Gather columns of the last axis at fixed integer indices."""
    idx = tuple(int(i) for i in idx)

    def vjp(g, y, x):
        out = np.zeros_like(x)
        np.add.at(out, (Ellipsis, idx), g)  # an index may repeat
        return (out,)

    return ad.fused((a,), lambda x: x[..., idx], vjp, "take_cols")


def matmul(a: Value, b: Value) -> Value:
    """2-D matrix product; used for dense layers and constant stage mixing."""
    return ad.fused((a, b), np.matmul, lambda g, y, x, w: (g @ w.T, x.T @ g), "matmul")


def mean(a: Value) -> Value:
    size = a.data.size
    return ad.fused((a,), np.mean, lambda g, y, x: (np.broadcast_to(g / size, x.shape),), "mean")


# -- the loss -----------------------------------------------------------------


def hybrid_convection(stages: Jet, mask, pde, lam: float, dx: float) -> Value:
    """f(u)_x per stage row: autodiff at smooth points, WENO-Z where flagged.

    The WENO-Z branch is one node: the divided difference at the flagged
    points only (`SparseWenoZ`), with the autodiff term passed through
    everywhere else.  With an all-zero mask the result is the autodiff term.
    """
    conv_ad = pde.dflux(stages.u) * stages.dx
    if mask.count() == 0:
        return conv_ad
    weno = SparseWenoZ(mask.flags, pde.flux, pde.dflux, lam, dx)
    points = weno.points

    def forward(conv, u):
        out = conv.copy()
        out[..., points] = weno(u)
        return out

    def vjp(grad, data, conv, u):
        grad_conv = grad.copy()
        grad_conv[..., points] = 0.0
        return grad_conv, weno.vjp(grad[..., points])

    return ad.fused((conv_ad, stages.u), forward, vjp, "weno_z")


def residual_operator(stages: Jet, mask, pde, lam: float, grid, tableau,
                      convection=hybrid_convection) -> Value:
    """N[u] = f(u)_x - nu*u_xx for the first q stage rows.

    The viscous term always uses the autodiff second derivative, in smooth
    and flagged cells alike.
    """
    q = tableau.q
    head = Jet(
        rows(stages.u, 0, q),
        None if stages.dx is None else rows(stages.dx, 0, q),
        None if stages.dxx is None else rows(stages.dxx, 0, q),
    )
    resid = convection(head, mask, pde, lam, grid.dx)
    if pde.viscosity > 0.0:
        if head.dxx is None:
            raise ValueError("viscous residual needs order-2 stage fields")
        resid = resid - pde.viscosity * head.dxx
    return resid


def stage_targets(stage_values: Value, residuals: Value, tableau, dt: float) -> Value:
    """Fold stage values and residuals back to the step start.

    Row i (i <= q) is u^{n+c_i} + dt sum_j a_ij N_j; the last row is
    u^{n+1} + dt sum_j b_j N_j.  Every row should match the same datum u^n.
    """
    q = tableau.q
    if stage_values.data.shape[0] != q + 1 or residuals.data.shape[0] != q:
        raise ValueError("stage/residual row counts do not match the tableau")
    mix = np.vstack([tableau.a, tableau.b[None, :]]) * dt
    return stage_values + matmul(Value(mix, label="tableau"), residuals)


def compute_loss(targets: Value, stage_values: Value, data: np.ndarray,
                 reduction: str = "mean"):
    """L = L_PDE + L_BC as graph nodes.

    L_PDE averages the squared target-vs-data mismatch over all collocation
    points and all q+1 targets; L_BC averages the squared stage outputs at
    both walls, which hold 0.  "sum" keeps the raw sums of the discrete-time
    formulation instead.
    """
    reduce = mean if reduction == "mean" else ad.summation
    n = data.shape[0]
    diff = targets - Value(data, label="data")
    l_pde = reduce(diff * diff)
    bvals = take_cols(stage_values, (0, n - 1))
    l_bc = reduce(bvals * bvals)
    total = l_pde + l_bc
    return total, l_pde, l_bc


def loss_graph(params, state, tableau, pde, disc, reduction="mean",
               forward=forward_stages, convection=hybrid_convection):
    """`model.build_loss_graph` as generic nodes; returns (graph, losses, jet).

    `forward` builds the stage jet (`network_oracle.unfused_forward_stages`
    for the node-per-op network) and `convection` the convection rows
    (`weno_oracle.dense_convection` for the dense WENO-Z blend).
    """
    order = 2 if pde.viscosity > 0.0 else 1
    jet = forward(params, state.data.x, order)
    resid = residual_operator(jet, state.mask, pde, state.lam, state.data, tableau, convection)
    targets = stage_targets(jet.u, resid, tableau, disc.dt)
    total, l_pde, l_bc = compute_loss(targets, jet.u, state.data.values, reduction)
    return Graph(total), (total, l_pde, l_bc), jet
