"""The network's (u, u_x, u_xx) jet as a composition of generic graph nodes,
shared by the tests of the fused layer op (`network.forward_stages`).

`unfused_forward_stages` is the jet rule the training loss used before each
layer became one node: a matmul per jet slot, the bias add, tanh, and the
sech^2 chain rule written out node by node.  With the same parameters it
gives the fused op's values and, through the full loss graph, its parameter
gradients bit for bit.
"""

import numpy as np

from hpinn.autodiff import Jet, Value
from loss_oracle import matmul, tanh


def unfused_forward_stages(params, x, order):
    """`network.forward_stages` as generic nodes; same signature and result."""
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64)).reshape(1, -1)
    u = Value(xv, label="x")
    dx = Value(np.ones_like(xv), label="dseed")
    dxx = None  # x has no curvature
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        u = matmul(w, u)
        dx = matmul(w, dx)
        dxx = None if dxx is None else matmul(w, dxx)
        u = u + b
        if k == last:
            break
        u = tanh(u)
        # (tanh z)' = s z' and (tanh z)'' = s z'' - 2 tanh(z) s z'^2, s = sech^2 z
        s = 1.0 - u * u
        sdx = s * dx
        if order >= 2:
            curv = (u * sdx * dx) * -2.0
            dxx = curv if dxx is None else curv + s * dxx
        dx = sdx
    return Jet(u, dx, dxx)
