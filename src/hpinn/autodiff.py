"""Reverse-mode automatic differentiation over scalar expression graphs.

A ``Value`` wraps one float64 scalar -- or an ndarray holding the same scalar
expression evaluated at a batch of points -- and records the operation that
produced it.  Graphs are built eagerly through operator overloading, can be
re-evaluated in place after leaf mutation (``Graph.refresh``), and are
differentiated by a single reverse sweep (``Graph.backward``).

First and second derivatives with respect to the spatial input are graph
nodes too: the network propagates (u, u_x, u_xx) jets (see ``Jet``) through
the same primitives, so parameter gradients flow through any expression
built from them.

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
    "tanh",
    "pad_const",
    "window",
    "rows",
    "take_cols",
    "matmul",
    "summation",
    "mean",
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

    def _acc(self, g):
        # hot path: matching shapes accumulate in place (grad buffers are
        # always freshly allocated here, never aliased to another node)
        cur = self.grad
        if isinstance(g, np.ndarray) and g.shape == self.data.shape:
            if isinstance(cur, np.ndarray):
                cur += g
            elif cur == 0.0:
                self.grad = g.copy()
            else:
                self.grad = cur + g
        else:
            self.grad = cur + _unbroadcast(g, self.data.shape)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Value):
            out = Value(self.data + other.data, (self, other), "add")

            def fwd():
                out.data = self.data + other.data

            def bwd():
                self._acc(out.grad)
                other._acc(out.grad)

        else:
            c = _const(other)
            out = Value(self.data + c, (self,), "add_const")

            def fwd():
                out.data = self.data + c

            def bwd():
                self._acc(out.grad)

        out._fwd, out._bwd = fwd, bwd
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Value(-self.data, (self,), "neg")

        def fwd():
            out.data = -self.data

        def bwd():
            self._acc(-out.grad)

        out._fwd, out._bwd = fwd, bwd
        return out

    def __sub__(self, other):
        if isinstance(other, Value):
            out = Value(self.data - other.data, (self, other), "sub")

            def fwd():
                out.data = self.data - other.data

            def bwd():
                self._acc(out.grad)
                other._acc(-out.grad)

            out._fwd, out._bwd = fwd, bwd
            return out
        return self + (-1.0 * _const(other))

    def __rsub__(self, other):
        c = _const(other)
        out = Value(c - self.data, (self,), "rsub_const")

        def fwd():
            out.data = c - self.data

        def bwd():
            self._acc(-out.grad)

        out._fwd, out._bwd = fwd, bwd
        return out

    def __mul__(self, other):
        if isinstance(other, Value):
            out = Value(self.data * other.data, (self, other), "mul")

            def fwd():
                out.data = self.data * other.data

            def bwd():
                self._acc(out.grad * other.data)
                other._acc(out.grad * self.data)

        else:
            c = _const(other)
            out = Value(self.data * c, (self,), "mul_const")

            def fwd():
                out.data = self.data * c

            def bwd():
                self._acc(out.grad * c)

        out._fwd, out._bwd = fwd, bwd
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Value):
            _check_divisor(other.data, "div")
            out = Value(self.data / other.data, (self, other), "div")

            def fwd():
                _check_divisor(other.data, "div")
                out.data = self.data / other.data

            def bwd():
                self._acc(out.grad / other.data)
                other._acc(-out.grad * out.data / other.data)

            out._fwd, out._bwd = fwd, bwd
            return out
        return self * (1.0 / _const(other))

    def __pow__(self, p):
        p = float(p)
        out = Value(self.data**p, (self,), "pow")

        def fwd():
            out.data = self.data**p

        def bwd():
            self._acc(out.grad * p * self.data ** (p - 1.0))

        out._fwd, out._bwd = fwd, bwd
        return out

    def __abs__(self):
        out = Value(np.abs(self.data), (self,), "abs")

        def fwd():
            out.data = np.abs(self.data)

        def bwd():
            self._acc(out.grad * np.sign(self.data))

        out._fwd, out._bwd = fwd, bwd
        return out


def _check_divisor(d, label):
    if np.min(np.abs(d)) < DIV_GUARD:
        raise EvaluationError(f"near-zero divisor in node '{label}'")


def tanh(a: Value) -> Value:
    out = Value(np.tanh(a.data), (a,), "tanh")

    def fwd():
        out.data = np.tanh(a.data)

    def bwd():
        a._acc(out.grad * (1.0 - out.data * out.data))

    out._fwd, out._bwd = fwd, bwd
    return out


# -- structural operations --------------------------------------------------


def pad_const(a: Value, left: int, right: int, value: float = 0.0) -> Value:
    """Extend the last axis by `left`/`right` ghost entries holding `value`."""
    n = a.data.shape[-1]
    pad_width = [(0, 0)] * (a.data.ndim - 1) + [(left, right)]
    sl = (Ellipsis, slice(left, left + n))
    out = Value(np.pad(a.data, pad_width, constant_values=value), (a,), "pad")

    def fwd():
        out.data = np.pad(a.data, pad_width, constant_values=value)

    def bwd():
        # gradient of padding is the interior slice of the upstream grad
        if not isinstance(a.grad, np.ndarray):
            a.grad = np.full_like(a.data, a.grad)
        a.grad += out.grad[sl]

    out._fwd, out._bwd = fwd, bwd
    return out


def window(a: Value, start: int, length: int) -> Value:
    """Contiguous slice of the last axis."""
    sl = (Ellipsis, slice(start, start + length))
    out = Value(a.data[sl], (a,), "window")

    def fwd():
        out.data = a.data[sl]

    def bwd():
        if not isinstance(a.grad, np.ndarray):
            a.grad = np.full_like(a.data, a.grad)
        a.grad[sl] += out.grad

    out._fwd, out._bwd = fwd, bwd
    return out


def rows(a: Value, start: int, length: int) -> Value:
    """Contiguous slice of the first axis of a 2-D node."""
    sl = slice(start, start + length)
    out = Value(a.data[sl], (a,), "rows")

    def fwd():
        out.data = a.data[sl]

    def bwd():
        if not isinstance(a.grad, np.ndarray):
            a.grad = np.full_like(a.data, a.grad)
        a.grad[sl] += out.grad

    out._fwd, out._bwd = fwd, bwd
    return out


def take_cols(a: Value, idx) -> Value:
    """Gather columns of the last axis at fixed integer indices."""
    idx = tuple(int(i) for i in idx)
    out = Value(a.data[..., idx], (a,), "take_cols")

    def fwd():
        out.data = a.data[..., idx]

    def bwd():
        if not isinstance(a.grad, np.ndarray):
            a.grad = np.full_like(a.data, a.grad)
        np.add.at(a.grad, (Ellipsis, idx), out.grad)

    out._fwd, out._bwd = fwd, bwd
    return out


def matmul(a: Value, b: Value) -> Value:
    """2-D matrix product; used for dense layers and constant stage mixing."""
    out = Value(a.data @ b.data, (a, b), "matmul")

    def fwd():
        out.data = a.data @ b.data

    def bwd():
        a._acc(out.grad @ b.data.T)
        b._acc(a.data.T @ out.grad)

    out._fwd, out._bwd = fwd, bwd
    return out


def summation(a: Value) -> Value:
    out = Value(np.sum(a.data), (a,), "sum")

    def fwd():
        out.data = np.sum(a.data)

    def bwd():
        a._acc(np.broadcast_to(out.grad, a.data.shape))

    out._fwd, out._bwd = fwd, bwd
    return out


def mean(a: Value) -> Value:
    size = a.data.size
    out = Value(np.mean(a.data), (a,), "mean")

    def fwd():
        out.data = np.mean(a.data)

    def bwd():
        a._acc(np.broadcast_to(out.grad / size, a.data.shape))

    out._fwd, out._bwd = fwd, bwd
    return out


def fused(parents, forward, vjp, label: str) -> Value:
    """One node for an op with a hand-written vector-Jacobian product.

    ``forward(*parent data)`` gives the node's data, at build and on every
    refresh; ``vjp(grad)`` returns one gradient per parent, in order, for the
    data of the last ``forward`` call.
    """
    parents = tuple(parents)
    out = Value(forward(*(p.data for p in parents)), parents, label)

    def fwd():
        out.data = forward(*(p.data for p in parents))

    def bwd():
        g = out.grad if isinstance(out.grad, np.ndarray) else np.full_like(out.data, out.grad)
        for p, gp in zip(parents, vjp(g)):
            p._acc(gp)

    out._fwd, out._bwd = fwd, bwd
    return out


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
        self.root.grad = 1.0
        for n in reversed(self.nodes):
            b = n._bwd
            if b is not None:
                b()


class Jet(NamedTuple):
    """A value u and its spatial derivatives u_x, u_xx as live graph nodes.

    A slot holding None is not tracked: u_x below derivative order 1, u_xx
    below order 2.  ``network.forward_stages`` builds jets; everything
    downstream only reads them.
    """

    u: Value
    dx: Optional[Value] = None
    dxx: Optional[Value] = None
