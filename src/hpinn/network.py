"""Fully connected tanh network mapping a spatial point x to the q+1 stage
values of one implicit Runge-Kutta time step.

Hidden activations are tanh, the output layer is linear, and parameters are
Glorot-uniform weight matrices with zero biases, stored as autodiff leaves so
that loss gradients reach every entry.  A whole batch of collocation points is
evaluated by a single forward pass: the stage outputs form a (q+1, N) node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Jet, Value, matmul, tanh

__all__ = [
    "NetworkConfig",
    "NetworkParameters",
    "init_xavier",
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

    @property
    def layer_sizes(self):
        return [1] + [self.width] * self.hidden_layers + [self.outputs]


class NetworkParameters:
    """Per-layer weight matrices (fan_out x fan_in) and bias columns."""

    def __init__(self, config: NetworkConfig, weights, biases):
        self.config = config
        self.weights = weights
        self.biases = biases

    def leaves(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def count(self) -> int:
        return sum(leaf.data.size for leaf in self.leaves())


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


def forward_stages(params: NetworkParameters, x, order: int = 0) -> Jet:
    """Evaluate the network over x (scalar or 1-D batch) as graph nodes.

    Returns a Jet whose value is the (q+1, N) stage matrix; with order >= 1
    the jet also carries the stage derivatives u_x (and u_xx at order 2) with
    respect to the input, themselves differentiable with respect to the
    parameters.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64)).reshape(1, -1)
    u = Value(xv, label="x")
    dx = Value(np.ones_like(xv), label="dseed") if order >= 1 else None
    dxx = None  # x has no curvature
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        u = matmul(w, u)
        dx = None if dx is None else matmul(w, dx)
        dxx = None if dxx is None else matmul(w, dxx)
        u = u + b
        if k == last:
            break
        u = tanh(u)
        if dx is None:
            continue
        # (tanh z)' = s z' and (tanh z)'' = s z'' - 2 tanh(z) s z'^2, s = sech^2 z
        s = 1.0 - u * u
        sdx = s * dx
        if order >= 2:
            curv = (u * sdx * dx) * -2.0
            dxx = curv if dxx is None else curv + s * dxx
        dx = sdx
    return Jet(u, dx, dxx)


def save_parameters(params: NetworkParameters, path) -> None:
    """Checkpoint to .npz; float64 arrays round-trip bitwise."""
    cfg = params.config
    arrays = {
        "meta": np.array([cfg.hidden_layers, cfg.width, cfg.outputs, cfg.seed], dtype=np.int64)
    }
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{k}"] = w.data
        arrays[f"b{k}"] = b.data
    np.savez(path, **arrays)


def load_parameters(path) -> NetworkParameters:
    with np.load(path) as blob:
        hidden, width, outputs, seed = (int(v) for v in blob["meta"])
        config = NetworkConfig(hidden_layers=hidden, width=width, outputs=outputs, seed=seed)
        weights, biases = [], []
        for k in range(hidden + 1):
            weights.append(Value(blob[f"w{k}"], label=f"w{k}"))
            biases.append(Value(blob[f"b{k}"], label=f"b{k}"))
    return NetworkParameters(config, weights, biases)
