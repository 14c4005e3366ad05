"""Fully connected tanh network mapping a spatial point x to the q+1 stage
values of one implicit Runge-Kutta time step.

Hidden activations are tanh, the output layer is linear, and parameters are
Glorot-uniform weight matrices with zero biases, autodiff leaves whose data
are views of one flat vector, so loss gradients reach every entry and an
optimizer moves them all at once.  A whole batch of collocation points is
evaluated by a single forward pass: each layer is one graph node that maps
the stacked (u, u_x, u_xx) jet.  The training loss reads the last layer's node
(``stacked_stages``) directly; ``forward_stages`` splits it into (q+1, N) slot
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Jet, Value, fused, slot

__all__ = [
    "NetworkConfig",
    "NetworkParameters",
    "init_xavier",
    "stacked_stages",
    "forward_stages",
    "save_parameters",
    "load_parameters",
]


@dataclass(frozen=True)
class NetworkConfig:
    hidden_layers: int = 5
    width: int = 20
    outputs: int = 2  # q + 1
    seed: int = 0

    def __post_init__(self):
        if self.hidden_layers < 1:
            raise ValueError("need at least one hidden layer")
        if self.width < 1:
            raise ValueError("layer width must be positive")
        if self.outputs < 2:
            raise ValueError("need at least two outputs (q >= 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def layer_sizes(self):
        return [1] + [self.width] * self.hidden_layers + [self.outputs]


class NetworkParameters:
    """Per-layer weight matrices (fan_out x fan_in) and bias columns, each a
    view of its slice of one flat ``vector`` (w0, b0, w1, b1, ...) that moves
    them when updated in place; ``grad`` has the same layout."""

    def __init__(self, config: NetworkConfig, weights, biases):
        self.config = config
        self.weights = weights
        self.biases = biases
        self.vector = np.concatenate([p.data.ravel() for p in self.leaves()])
        self.grad = np.empty_like(self.vector)
        self._grads = []  # (leaf, its slice of grad)
        start = 0
        for p in self.leaves():
            stop = start + p.data.size
            p.data = self.vector[start:stop].reshape(p.data.shape)
            self._grads.append((p, self.grad[start:stop].reshape(p.data.shape)))
            start = stop

    def leaves(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def gather_grad(self):
        """Copy the leaves' gradients into ``grad``; an unreached leaf's 0.0 zeroes its slice."""
        for p, g in self._grads:
            g[...] = p.grad


def init_xavier(config: NetworkConfig) -> NetworkParameters:
    """Glorot-uniform weights, bound sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(config.seed)
    sizes = config.layer_sizes
    weights, biases = [], []
    for k, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        weights.append(Value(w, label=f"w{k}"))
        biases.append(Value(np.zeros((fan_out, 1)), label=f"b{k}"))
    return NetworkParameters(config, weights, biases)


def stacked_stages(params: NetworkParameters, x, order: int) -> Value:
    """The last layer's node: the stacked stage jet (order+1, q+1, N) over x.

    Row 0 holds the q+1 stage values at the points of x (a scalar or 1-D
    batch) and row 1 their derivatives u_x; at order 2 row 2 holds u_xx.  All
    are differentiable with respect to the parameters.  Order is 1 or 2.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64)).reshape(1, -1)
    # the input jet (x, dx/dx = 1) is a constant; x has no curvature
    h = np.stack([xv, np.ones_like(xv)])
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = _dense_layer(w, b, h, order, activate=k < last)
    return h


def forward_stages(params: NetworkParameters, x, order: int) -> Jet:
    """`stacked_stages` as a Jet of (q+1, N) slot reads; u_xx is None at order 1."""
    h = stacked_stages(params, x, order)
    return Jet(*(slot(h, i) for i in range(order + 1)))


def _dense_layer(w: Value, b: Value, h, order: int, activate: bool) -> Value:
    """One dense layer, with tanh unless it is the output layer, as one node.

    It maps the stacked input jet h (rows u, u_x, u_xx) to the stacked output
    jet (order+1, fan_out, N).  h is the previous layer's node, or for the
    first layer the constant (x, 1) array, which takes no gradient.  The VJP
    repeats the node-by-node chain rule's products and its order of summing
    three or more terms, so gradients are bit-identical to the unfused graph.

    Row z[0] of the pre-activation jet is dead once the bias is added, so it
    holds s = sech^2 z, which the VJP reads with rows z' and z''.
    W's gradient takes the products of all jet rows in one batched matmul and
    sums them in the unfused graph's order, (z' term + z'' term) + z term.
    """
    seed = None if isinstance(h, Value) else h
    tape = []  # z, s = sech^2 z and y s z' from the last forward

    def forward(wd, bd, hd=seed):
        # rows z, z', z''; at the seed's fan-in of 1 the matmul is one product
        z = np.matmul(wd, hd) if seed is None else wd * hd
        if not activate:
            np.add(z[0], bd, out=z[0])
            return z
        out = np.empty((order + 1,) + z.shape[1:])
        y = np.tanh(np.add(z[0], bd, out=out[0]), out=out[0])
        s = np.multiply(y, y, out=z[0])  # z[0] is dead: it holds s
        np.subtract(1.0, s, out=s)
        ysdx = None
        sdx = np.multiply(s, z[1], out=out[1])  # (tanh z)' = s z'
        if order == 2:
            # (tanh z)'' = s z'' - 2 tanh(z) s z'^2
            ysdx = y * sdx
            curv = np.multiply(ysdx, z[1], out=out[2])
            curv *= -2.0
            if len(z) > 2:
                curv += s * z[2]
        tape[:] = z, s, ysdx
        return out

    def vjp(g, out, wd, bd, hd=seed):
        gz = _tanh_jet_vjp(g, out, *tape) if activate else g
        gb = gz[0].sum(axis=1, keepdims=True)
        terms = np.matmul(gz, hd.transpose(0, 2, 1))
        # W's terms in the unfused graph's order: (z' term + z'' term) + z term
        rows = [*range(1, len(gz)), 0]
        gw = terms[rows[0]]
        for i in rows[1:]:
            gw += terms[i]
        if seed is not None:
            return gw, gb
        return gw, gb, np.matmul(wd.T, gz)

    parents = (w, b) if seed is not None else (w, b, h)
    return fused(parents, forward, vjp, "dense_tanh" if activate else "dense")


def _tanh_jet_vjp(g, out, z, s, ysdx):
    """Gradient on the pre-activation jet z of the tanh jet `out` (rows u, u_x
    and, at order 2, u_xx).

    At order 2, y = out[0] takes four terms, summed as ((y s z' term + y y
    term) + y y term) + next layer's term, the order in which the unfused
    graph adds them; at order 1 the y s z' term is absent.

    The result's rows are scratch until their final products.  At order 1,
    gz[0] holds s's gradient gs, then y's, until its final gy s.  At order 2,
    gz[2] holds -2 g[2], then that times y s z', then g[2] z'', until its
    final g[2] s; gz[0] holds y's gradient until its final gy s; and one
    owned buffer holds in turn the gradient on y s z', that times y, the
    gradient on s z' and gs.  The unfused graph negates gs (s = 1 - y y)
    before it multiplies by y and adds the product to y's gradient twice;
    here gs y is doubled and subtracted (order 1) or subtracted twice (order
    2) instead.  That gives the same bits, since (-a) y == -(a y), (-a) +
    (-a) == -(a + a) and x + (-v) == x - v exactly.
    """
    y = out[0]
    gz = np.empty(z.shape)
    if len(out) == 2:
        gs = np.multiply(g[1], z[1], out=gz[0])
        np.multiply(g[1], s, out=gz[1])
        gs *= y  # each of y's two terms from s = 1 - y y
        gs += gs
        gy = np.subtract(g[0], gs, out=gs)
    else:
        # the first layer's jet has no z'' row, so it takes a buffer of its own
        gt2 = np.multiply(g[2], -2.0, out=gz[2] if len(z) > 2 else np.empty_like(y))
        gs = gt2 * z[1]  # on y s z'
        gy = np.multiply(gs, out[1], out=gz[0])
        gt2 *= ysdx
        gs *= y
        gs += g[1]  # on s z'
        np.multiply(gs, s, out=gz[1])
        gz[1] += gt2
        gs *= z[1]
        if len(z) > 2:
            gs += np.multiply(g[2], z[2], out=gz[2])
            np.multiply(g[2], s, out=gz[2])
        gs *= y  # each of y's two terms from s = 1 - y y
        gy -= gs
        gy -= gs
        gy += g[0]
    np.multiply(gy, s, out=gz[0])
    return gz


def save_parameters(params: NetworkParameters, path) -> None:
    """Checkpoint the config and the flat vector to .npz; float64 round-trips bitwise."""
    cfg = params.config
    meta = np.array([cfg.hidden_layers, cfg.width, cfg.outputs, cfg.seed], dtype=np.int64)
    np.savez(path, meta=meta, vector=params.vector)


def load_parameters(path) -> NetworkParameters:
    """The meta's network holding the stored vector; ValueError if their lengths differ."""
    with np.load(path) as blob:
        hidden, width, outputs, seed = (int(v) for v in blob["meta"])
        vector = blob["vector"]
    params = init_xavier(NetworkConfig(hidden_layers=hidden, width=width, outputs=outputs,
                                       seed=seed))
    if vector.shape != params.vector.shape:
        raise ValueError(f"checkpoint {path} holds {vector.size} parameters, but its layer "
                         f"sizes {params.config.layer_sizes} need {params.vector.size}")
    params.vector[...] = vector
    return params
