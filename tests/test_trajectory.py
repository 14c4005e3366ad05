"""Pinned fixed-seed loss trajectory of one training step.

Each case trains the paper network (5x20, seed 0) for a fixed number of Adam
iterations on one step of q=4 stages over a 64-point grid, on smooth data
(nothing flagged) and on a shock profile (the WENO-Z branch is built), for
the inviscid and the viscous Burgers equation.  The pinned losses were
recorded before the autodiff engine was cut down to the training graph; a
refactor that keeps the arithmetic must reproduce them.  The tolerance of
1e-12 relative leaves room for BLAS builds that round matrix products
differently, and nothing more.

The smooth cases pin more than the losses: they are chaotic under some
reorderings of the backward sums.  Their bias gradients vanish by symmetry
up to round-off and sit near Adam's eps, so a last-bit change in one of them
becomes a visible change of the update.  Summing the gradient terms of each
tanh output (three at nu=0, four at nu>0) in another order moves the smooth
losses by 5e-7 (nu=0) and 1.6e-5 (nu>0) relative after 25 iterations;
reordering the terms of each weight gradient moves every case by at most
5e-13.  So passing them
requires the gradient arithmetic to be bit-identical where it matters, and
the oracle properties in tests/test_model.py check every sum bit for bit.

Those properties and the pins above run at N <= 64 and width <= 20, but
OpenBLAS picks its matrix-product kernel by shape.  So two more cases train
at the benchmark's shape (N=300, q=10, the 5x20 network) for 3 iterations,
one smooth order-2 step and one flagged order-1 step, and pin every loss
exactly: in 3 iterations a last-bit change of a product need not move a
loss by 1e-12, so only exact equality is sure to see it.  They
were recorded with OpenBLAS 0.3.31 on x86-64, the same with one BLAS thread
as with two; a BLAS build with other product kernels may fail them while
the 1e-12 pins pass, which points at the build rather than the code.
"""

import numpy as np
import pytest

from hpinn.irk import gauss_legendre_tableau
from hpinn.model import Discretization, TrainingConfig, step_state, train_step
from hpinn.network import NetworkConfig, init_xavier
from hpinn.pde import burgers
from hpinn.weno import GridField

N, Q, ITERATIONS = 64, 4, 25
PROFILES = {
    "smooth": lambda x: -np.sin(np.pi * x),
    "shock": lambda x: np.where(x < 0.0, 1.0, -1.0) * (1.0 - np.abs(x)),
}

# (viscosity, data) -> flagged points and (initial, final, l_pde, l_bc) losses
PINNED = {
    (0.0, "smooth"): (0, ("0x1.6357b188c5337p+7", "0x1.d0d333bdb8a89p+5",
                          "0x1.9d35666a3348ep+5", "0x1.9cee6a9c2afd8p+2")),
    (0.0, "shock"): (11, ("0x1.de59efb1951c1p+6", "0x1.362c72f47360dp+6",
                          "0x1.2bbd9a048abc0p+6", "0x1.4ddb1dfd149adp+1")),
    (1e-4 / np.pi, "smooth"): (0, ("0x1.6357c40aaed3fp+7", "0x1.d0d3a7d070bf1p+5",
                                   "0x1.9d35d6a527d69p+5", "0x1.9cee895a4743ep+2")),
    (1e-4 / np.pi, "shock"): (11, ("0x1.de5a0616f2ee8p+6", "0x1.362c59fef3e08p+6",
                                   "0x1.2bbd81e7051c5p+6", "0x1.4ddb02fdd8863p+1")),
}


# the benchmark's shape: (viscosity, data) -> flagged points and losses
PINNED_AT_SCALE = {
    (1e-4 / np.pi, "smooth"): (0, ("0x1.a496f1d4c4ef1p+10", "0x1.75467b459bbeep+10",
                                   "0x1.7507e3c8d26efp+10", "0x1.f4bbe64a7f5c5p-1")),
    (0.0, "shock"): (11, ("0x1.1d6957fa036dap+10", "0x1.042f1c72b6d96p+10",
                          "0x1.03f79a21f074ap+10", "0x1.bc128633263e1p-1")),
}

IDS = dict(ids=lambda v: f"{v:.3g}" if isinstance(v, float) else v)


def train(nu, kind, n, q, iterations):
    """(flagged points, iterations, (initial, final, l_pde, l_bc)) of one step."""
    x = np.linspace(-1.0, 1.0, n)
    pde = burgers(nu)
    disc = Discretization(n_points=n, dt=0.1, q_stages=q)
    state = step_state(GridField(PROFILES[kind](x), -1.0, x[1] - x[0]), 0.0, pde, disc)
    params = init_xavier(NetworkConfig(outputs=q + 1, seed=0))
    config = TrainingConfig(learning_rate=1e-3, loss_tolerance=1e-300,
                            max_iterations=iterations, loss_reduction="sum")
    _, _, diag = train_step(state, params, gauss_legendre_tableau(q), pde, disc, config)
    losses = (diag.initial_loss, diag.final_loss, diag.loss_pde, diag.loss_bc)
    return diag.flagged_cells, diag.iterations, losses


@pytest.mark.parametrize("nu,kind", list(PINNED), **IDS)
def test_fixed_seed_losses_are_pinned(nu, kind):
    flagged, iterations, got = train(nu, kind, N, Q, ITERATIONS)
    pinned_flags, losses = PINNED[(nu, kind)]
    assert flagged == pinned_flags
    assert iterations == ITERATIONS
    for value, pinned in zip(got, losses):
        assert value == pytest.approx(float.fromhex(pinned), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("nu,kind", list(PINNED_AT_SCALE), **IDS)
def test_losses_at_the_benchmark_shape_are_pinned_bit_for_bit(nu, kind):
    flagged, iterations, got = train(nu, kind, 300, 10, 3)
    pinned_flags, losses = PINNED_AT_SCALE[(nu, kind)]
    assert flagged == pinned_flags
    assert iterations == 3
    assert [float.hex(v) for v in got] == list(losses)
