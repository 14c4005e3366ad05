"""Reverse-mode automatic differentiation over scalar expression graphs.

A ``Value`` wraps one float64 scalar -- or an ndarray holding the same scalar
expression evaluated at a batch of points -- and records the operation that
produced it.  Graphs are built eagerly through operator overloading, can be
re-evaluated in place after leaf mutation (``Graph.refresh``), and are
differentiated by a single reverse sweep (``Graph.backward``).  The sweep
leaves gradients on the leaves only: an op node's cotangent is dropped as
soon as its VJP has handed it on, so between sweeps a graph holds its
forward data and tapes and no second, stale copy of them.

Every op node holds two functions of its parents' data: its ``forward`` and
its vector-Jacobian product (``vjp``); ``fused`` is the one constructor that
builds such a node.  ``Graph.refresh`` and ``Graph.backward`` are the only
code that calls them.  A step's training loss has one leaf, the network's
input, and hidden_layers + 2 op nodes: one per network layer, mapping the
stacked (u, u_x, u_xx) jet (see ``Jet``), and one for everything after the
last layer (``model.loss_node``).
The operator overloads, ``slot`` and ``summation`` serve expressions built on
those nodes; the generic ops the loss was once composed of (tanh, slicing,
matmul, mean) live in the tests' oracle, ``tests/loss_oracle.py``.

All arithmetic is 64-bit; second-derivative graphs amplify roundoff and
single precision is not sufficient for loss thresholds near 1e-5.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "Value",
    "Graph",
    "Jet",
    "slot",
    "summation",
    "fused",
]

def _const(other):
    """Coerce a non-Value operand to a float64 constant (scalar or array)."""
    if isinstance(other, np.ndarray):
        return other.astype(np.float64, copy=False)
    return float(other)


def _unbroadcast(grad, shape):
    """Reduce an upstream gradient to the shape of the operand it feeds."""
    g = np.asarray(grad)
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Value:
    """One node of the computation graph.

    ``data`` is a float64 scalar (0-d) or an ndarray of independent scalar
    evaluations.  Leaves have no parents, and no ``forward`` or ``vjp``;
    their ``data`` may be mutated between ``Graph.refresh`` calls.  ``grad``
    is 0.0 or the gradient a leaf accumulated in the last ``Graph.backward``;
    an op node's ``grad`` holds its cotangent only during that sweep.
    """

    __slots__ = ("data", "grad", "parents", "label", "forward", "vjp", "__weakref__")

    def __init__(self, data, parents=(), label="leaf", forward=None, vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = 0.0
        self.parents = parents
        self.label = label
        self.forward = forward
        self.vjp = vjp

    def __repr__(self):
        return f"Value({self.label}, shape={np.shape(self.data)})"

    @property
    def shape(self):
        return self.data.shape

    def _acc(self, g):
        # out of place: the first gradient is kept as is and each later one
        # makes a new sum, so no array is written after it is handed on
        cur = self.grad
        g = _unbroadcast(g, self.data.shape)
        self.grad = cur + g if isinstance(cur, np.ndarray) or cur != 0.0 else g

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Value):
            return fused((self, other), np.add, lambda g, y, a, b: (g, g), "add")
        c = _const(other)
        return fused((self,), lambda a: a + c, lambda g, y, a: (g,), "add_const")

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Value):
            return fused((self, other), np.subtract, lambda g, y, a, b: (g, -g), "sub")
        return self + (-1.0 * _const(other))

    def __rsub__(self, other):
        c = _const(other)
        return fused((self,), lambda a: c - a, lambda g, y, a: (-g,), "rsub_const")

    def __mul__(self, other):
        if isinstance(other, Value):
            return fused((self, other), np.multiply, lambda g, y, a, b: (g * b, g * a), "mul")
        c = _const(other)
        return fused((self,), lambda a: a * c, lambda g, y, a: (g * c,), "mul_const")

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Value):
            return fused((self, other), np.divide, lambda g, y, a, b: (g / b, -g * y / b), "div")
        return self * (1.0 / _const(other))

    def __pow__(self, p):
        p = float(p)
        return fused((self,), lambda a: a**p, lambda g, y, a: (g * p * a ** (p - 1.0),), "pow")

    def __abs__(self):
        return fused((self,), np.abs, lambda g, y, a: (g * np.sign(a),), "abs")


def fused(parents, forward, vjp, label: str) -> Value:
    """The one node constructor: every op is a `forward` plus its VJP.

    ``forward(*parent data)`` gives the node's data, at build and on every
    refresh.  ``vjp(grad, data, *parent data)`` returns one gradient per
    parent that takes one, in order, for the node's own ``data`` from the
    last ``forward``; a constant input takes none.  A network layer writes
    its parameters' gradients, which are no parents, into storage its
    builder owns.
    """
    return Value(forward(*(p.data for p in parents)), tuple(parents), label, forward, vjp)


# -- structural operations --------------------------------------------------


def slot(a: Value, i: int) -> Value:
    """Entry `i` of the first axis, e.g. one slot of a stacked jet."""

    def vjp(g, y, x):
        out = np.zeros_like(x)
        out[i] = g
        return (out,)

    return fused((a,), lambda x: x[i], vjp, "slot")


def summation(a: Value) -> Value:
    return fused((a,), np.sum, lambda g, y, x: (np.broadcast_to(g, x.shape),), "sum")


# -- graph ------------------------------------------------------------------


def topo_order(root: Value):
    """Ancestors of `root` in evaluation order (iterative postorder DFS)."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in visited:
                stack.append((p, False))
    return order


class Graph:
    """Topologically ordered view of one root node's ancestry.

    Single-writer: built and evaluated by one execution context at a time.
    Re-evaluation after leaf mutation is `refresh`; `backward` seeds the root
    with 1 and accumulates gradients into every leaf's ``.grad``.  Each op
    node's cotangent is released (``grad`` back to 0.0) once its VJP has run,
    so `backward` reads only ``data`` and the forward tapes and may be
    repeated without a `refresh`.
    """

    def __init__(self, root: Value):
        self.root = root
        self.nodes = topo_order(root)

    def refresh(self):
        for n in self.nodes:
            if n.parents:
                n.data = n.forward(*[p.data for p in n.parents])
        return self.root.data

    def backward(self):
        if self.root.data.size != 1:
            raise ValueError("backward seed must be a scalar node")
        for n in self.nodes:
            n.grad = 0.0
        self.root.grad = np.ones_like(self.root.data)
        for n in reversed(self.nodes):
            if n.parents:
                grads = n.vjp(n.grad, n.data, *[p.data for p in n.parents])
                n.grad = 0.0  # passed on: only the leaves keep a gradient
                for p, gp in zip(n.parents, grads):
                    p._acc(gp)


class Jet(NamedTuple):
    """A value u and its spatial derivatives u_x, u_xx as live graph nodes.

    u_xx is None at derivative order 1; the network's jets always carry u_x.
    ``network.forward_stages`` builds jets as slot reads of its last layer's
    stacked node; everything downstream only reads them.
    """

    u: Value
    dx: Optional[Value] = None
    dxx: Optional[Value] = None
