"""Reverse-mode automatic differentiation over scalar expression graphs.

A ``Value`` wraps one float64 scalar -- or an ndarray holding the same scalar
expression evaluated at a batch of points -- and records the operation that
produced it.  Graphs are built eagerly through operator overloading, can be
re-evaluated in place after leaf mutation (``Graph.refresh``), and are
differentiated by a single reverse sweep (``Graph.backward``).

Every op is a forward function of its parents' data plus its
vector-Jacobian product (VJP), and ``fused`` is the one constructor that
turns such a pair into a graph node.  A step's training loss has
hidden_layers + 2 op nodes: one per network layer, mapping the stacked
(u, u_x, u_xx) jet (see ``Jet``), and one for everything after the last layer
(``model.loss_node``).  The operator overloads, ``slot`` and ``summation``
serve expressions built on those nodes; the generic ops the loss was once
composed of (tanh, slicing, matmul, mean) live in the tests' oracle,
``tests/loss_oracle.py``.

All arithmetic is 64-bit; second-derivative graphs amplify roundoff and
single precision is not sufficient for loss thresholds near 1e-5.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "EvaluationError",
    "Value",
    "Graph",
    "Jet",
    "slot",
    "summation",
    "fused",
]

# Denominators smaller than this raise instead of producing infinities.
# WENO weight formulas add eps before dividing, so this path is never hot.
DIV_GUARD = 1e-300


class EvaluationError(RuntimeError):
    """Near-zero divisor during evaluation."""


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
    evaluations.  Leaves have no parents; their ``data`` may be mutated
    between ``Graph.refresh`` calls.
    """

    __slots__ = ("data", "grad", "parents", "label", "_fwd", "_bwd")

    def __init__(self, data, parents=(), label="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = 0.0
        self.parents = parents
        self.label = label
        self._fwd = None
        self._bwd = None

    def __repr__(self):
        return f"Value({self.label}, shape={np.shape(self.data)})"

    @property
    def shape(self):
        return self.data.shape

    def _acc(self, g, borrowed):
        # hot path: matching shapes accumulate in place.  The first gradient
        # is adopted as this node's buffer when it is a fresh array nobody
        # else holds; a borrowed one or a view is copied first (see `fused`).
        cur = self.grad
        if isinstance(g, np.ndarray) and g.shape == self.data.shape:
            if isinstance(cur, np.ndarray):
                cur += g
            elif cur == 0.0:
                self.grad = g.copy() if borrowed or g.base is not None else g
            else:
                self.grad = cur + g
        else:
            self.grad = cur + _unbroadcast(g, self.data.shape)

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
            return fused((self, other), _div, lambda g, y, a, b: (g / b, -g * y / b), "div")
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
    parent, in order, for the node's own ``data`` from the last ``forward``.
    Every op has one to three parents; each arity gets its own closure pair
    so that no node pays for argument packing.

    A returned gradient passes to its parent without a copy when it is a
    fresh array: not the node's own ``grad``, not a view (``base is None``)
    and not returned twice by the same call.  The parent then adds later
    gradients into it in place, so a VJP must not keep or reuse an array it
    returns.
    """
    parents = tuple(parents)
    out = Value(forward(*(p.data for p in parents)), parents, label)
    if len(parents) == 1:
        (a,) = parents

        def fwd():
            out.data = forward(a.data)

        def bwd():
            g = out.grad
            (ga,) = vjp(g, out.data, a.data)
            a._acc(ga, ga is g)

    elif len(parents) == 2:
        a, b = parents

        def fwd():
            out.data = forward(a.data, b.data)

        def bwd():
            g = out.grad
            ga, gb = vjp(g, out.data, a.data, b.data)
            twice = ga is gb
            a._acc(ga, twice or ga is g)
            b._acc(gb, twice or gb is g)

    else:
        a, b, c = parents

        def fwd():
            out.data = forward(a.data, b.data, c.data)

        def bwd():
            g = out.grad
            ga, gb, gc = vjp(g, out.data, a.data, b.data, c.data)
            a._acc(ga, ga is g or ga is gb or ga is gc)
            b._acc(gb, gb is g or gb is ga or gb is gc)
            c._acc(gc, gc is g or gc is ga or gc is gb)

    out._fwd, out._bwd = fwd, bwd
    return out


def _check_divisor(d, label):
    if np.abs(d).min() < DIV_GUARD:
        raise EvaluationError(f"near-zero divisor in node '{label}'")


def _div(a, b):
    _check_divisor(b, "div")
    return a / b


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
    with 1 and accumulates gradients into every ancestor's ``.grad``.
    """

    def __init__(self, root: Value):
        self.root = root
        self.nodes = topo_order(root)

    def refresh(self):
        for n in self.nodes:
            f = n._fwd
            if f is not None:
                f()
        return self.root.data

    def backward(self):
        if self.root.data.size != 1:
            raise ValueError("backward seed must be a scalar node")
        for n in self.nodes:
            n.grad = 0.0
        self.root.grad = np.ones_like(self.root.data)
        for n in reversed(self.nodes):
            b = n._bwd
            if b is not None:
                b()


class Jet(NamedTuple):
    """A value u and its spatial derivatives u_x, u_xx as live graph nodes.

    A slot holding None is not tracked: u_x below derivative order 1, u_xx
    below order 2.  ``network.forward_stages`` builds jets as slot reads of
    its last layer's stacked node; everything downstream only reads them.
    """

    u: Value
    dx: Optional[Value] = None
    dxx: Optional[Value] = None
