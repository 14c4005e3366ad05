import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from hpinn import autodiff as ad
from hpinn.autodiff import Graph, Value
from hpinn.network import NetworkConfig, forward_stages, init_xavier
from loss_oracle import matmul, mean, pad_const, rows, take_cols, tanh, window


def finite_diff(fn, x0, h=1e-6):
    return (fn(x0 + h) - fn(x0 - h)) / (2 * h)


def evaluate(root):
    return Graph(root).refresh()


def parameter_gradient(root, params):
    Graph(root).backward()
    return {p: p.grad for p in params}


class TestEvaluate:
    def test_tanh_at_zero(self):
        x = Value(0.0)
        assert evaluate(tanh(x)) == 0.0

    def test_square(self):
        x = Value(3.0)
        assert evaluate(x * x) == 9.0

    def test_determinism_bitwise(self):
        def build():
            x = Value(0.7312)
            y = tanh(x * 3.0) / (x + 2.0) - x**3
            return evaluate(y)

        assert build() == build()


class TestParameterGradient:
    def test_product(self):
        w, x = Value(2.0), Value(3.0)
        g = parameter_gradient(w * x, [w])
        assert g[w] == 3.0

    def test_tanh_at_zero(self):
        w = Value(0.0)
        g = parameter_gradient(tanh(w), [w])
        assert g[w] == 1.0

    def test_unreached_parameter_gets_zero(self):
        w, other = Value(2.0), Value(5.0)
        g = parameter_gradient(w * w, [w, other])
        assert g[other] == 0.0

    def test_backward_needs_scalar_seed(self):
        v = Value(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Graph(v * 2.0).backward()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_expression_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-1.0, 1.0, size=4)
        params = [Value(v) for v in vals]

        def expr(a, b, c, d):
            t = tanh(a * b + c)
            return t * t + abs(d) * a - b / (c * c + 1.5) + (a + d) ** 3

        root = expr(*params)
        grads = parameter_gradient(root, params)
        for i, p in enumerate(params):
            def f(v, i=i):
                xs = list(vals)
                xs[i] = v
                ps = [Value(x) for x in xs]
                return float(evaluate(expr(*ps)))

            fd = finite_diff(f, vals[i])
            assert grads[params[i]] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = Value(rng.uniform(-1, 1))
        y = Value(rng.uniform(-1, 1))

        f = tanh(x * y) + x**2
        g = x / (y + 2.0)
        a, b = 1.7, -0.6
        gf = parameter_gradient(f, [x, y])
        gg = parameter_gradient(g, [x, y])
        gc = parameter_gradient(a * f + b * g, [x, y])
        for p in (x, y):
            assert gc[p] == pytest.approx(a * gf[p] + b * gg[p], abs=1e-12)

    def test_graph_refresh_after_leaf_update(self):
        x = Value(1.0)
        y = x * x + x
        graph = Graph(y)
        x.data = np.asarray(3.0)
        assert graph.refresh() == 12.0


class TestStructuralOps:
    def _fd_check(self, build, leaf_shape, seed=0):
        rng = np.random.default_rng(seed)
        leaf = Value(rng.uniform(-1, 1, size=leaf_shape))
        root = build(leaf)
        graph = Graph(root)
        graph.backward()
        idx = tuple(rng.integers(s) for s in leaf_shape)
        h = 1e-6
        keep = leaf.data[idx]
        leaf.data[idx] = keep + h
        up = float(graph.refresh())
        leaf.data[idx] = keep - h
        dn = float(graph.refresh())
        leaf.data[idx] = keep
        assert leaf.grad[idx] == pytest.approx((up - dn) / (2 * h), rel=1e-6, abs=1e-9)

    def test_pad_window_grad(self):
        self._fd_check(
            lambda v: ad.summation(window(pad_const(v, 3, 3, 0.5), 2, 6) ** 2),
            (8,),
        )

    def test_rows_take_cols_grad(self):
        self._fd_check(
            lambda v: mean(take_cols(rows(v, 1, 2), (0, 3)) ** 2),
            (4, 5),
            seed=1,
        )

    def test_pad_values(self):
        v = Value(np.array([1.0, 2.0]))
        out = pad_const(v, 2, 1, 9.0)
        assert np.array_equal(out.data, [9.0, 9.0, 1.0, 2.0, 9.0])


class TestGradientOwnership:
    """A node keeps its first VJP result as its gradient and makes a new
    array for each later sum, so no gradient is written after it is handed
    on, even when someone else still reads it: another node's own gradient,
    a view of one, or one array handed to two parents."""

    @staticmethod
    def shared(a):
        """Both parents get the very same gradient array."""
        b = Value(np.ones(3))
        return ad.fused((a, b), np.add, lambda g, y, x, w: (g * 1.0,) * 2, "add_shared"), b

    @staticmethod
    def shared_of_three(a):
        """The first and last of three parents get the very same gradient array."""
        b, c = Value(np.ones(3)), Value(np.ones(3))

        def vjp(g, y, x, w, v):
            both = g * 1.0
            return both, g * 1.0, both

        return ad.fused((a, b, c), lambda x, w, v: x + w + v, vjp, "add3_shared"), c

    @pytest.mark.parametrize("build", [
        lambda a: (a + 1.0, None),  # the VJP returns the node's own grad
        lambda a: (pad_const(a, 1, 1), None),  # a view of the node's grad
        shared.__func__,
        shared_of_three.__func__,
    ], ids=["own", "view", "shared", "shared_of_three"])
    def test_later_gradients_reach_no_other_holder(self, build):
        a = Value(np.ones(3))
        node, other = build(a)
        # backward drops an op node's cotangent once its VJP has run, so a
        # spy keeps the one `node` received and the arrays it handed on
        seen = []
        inner = node.vjp

        def spy(g, *data):
            out = inner(g, *data)
            seen.append((g, out, [np.array(o, copy=True) for o in out]))
            return out

        node.vjp = spy
        # a's second gradient (3) arrives after `node` has passed on its own
        Graph(ad.summation(node) + ad.summation(a * 3.0)).backward()
        assert np.array_equal(a.grad, np.full(3, 4.0))
        [(received, handed, at_handover)] = seen
        assert np.all(received == 1.0)
        assert all(np.array_equal(h, was) for h, was in zip(handed, at_handover))
        assert other is None or np.array_equal(other.grad, np.ones(3))

    def test_fresh_gradient_is_adopted(self):
        a = Value(np.ones(3))
        returned = []

        def vjp(g, y, x):
            returned.append(g * 2.0)
            return (returned[-1],)

        Graph(ad.summation(ad.fused((a,), lambda x: 2.0 * x, vjp, "double"))).backward()
        assert a.grad is returned[0]


class Op(NamedTuple):
    graph: Callable  # leaf Values -> Value
    numpy: Callable  # leaf arrays -> the same result in plain numpy
    shapes: tuple  # one shape per leaf


CONST = np.linspace(-0.5, 0.5, 4)

# One input per engine op, plus the broadcasting and aliasing cases.
OPS = {
    "add": Op(lambda a, b: a + b, lambda a, b: a + b, [(3, 4), (3, 4)]),
    "add_bias": Op(lambda b, f: b + f, lambda b, f: b + f, [(3, 1), (3, 4)]),
    "add_const": Op(lambda a: a + 0.25, lambda a: a + 0.25, [(3, 4)]),
    "add_const_array": Op(lambda a: a + CONST, lambda a: a + CONST, [(3, 4)]),
    "radd_const": Op(lambda a: 0.25 + a, lambda a: a + 0.25, [(3, 4)]),
    "sub": Op(lambda a, b: a - b, lambda a, b: a - b, [(3, 4), (3, 4)]),
    "sub_const": Op(lambda a: a - 0.25, lambda a: a + (-0.25), [(3, 4)]),
    "rsub_const": Op(lambda a: 0.25 - a, lambda a: 0.25 - a, [(3, 4)]),
    "mul": Op(lambda a, b: a * b, lambda a, b: a * b, [(3, 4), (3, 4)]),
    "mul_scalar_field": Op(lambda s, f: s * f, lambda s, f: s * f, [(), (4,)]),
    "mul_const": Op(lambda a: a * 1.5, lambda a: a * 1.5, [(3, 4)]),
    "mul_const_array": Op(lambda a: a * CONST, lambda a: a * CONST, [(3, 4)]),
    "rmul_const": Op(lambda a: 1.5 * a, lambda a: a * 1.5, [(3, 4)]),
    "square": Op(lambda u: u * u, lambda u: u * u, [(3, 4)]),
    "div": Op(lambda a, b: a / b, lambda a, b: a / b, [(3, 4), (3, 4)]),
    "div_const": Op(lambda a: a / 4.0, lambda a: a * 0.25, [(3, 4)]),
    "pow": Op(lambda a: a**3, lambda a: a**3.0, [(3, 4)]),
    "pow_negative": Op(lambda a: a**-2, lambda a: a**-2.0, [(3, 4)]),
    "abs": Op(abs, np.abs, [(3, 4)]),
    "tanh": Op(tanh, np.tanh, [(3, 4)]),
    "tanh_0d": Op(tanh, np.tanh, [()]),
    "pad": Op(lambda a: pad_const(a, 2, 1, 0.5), lambda a: np.concatenate(
        [np.full((3, 2), 0.5), a, np.full((3, 1), 0.5)], axis=-1), [(3, 4)]),
    "window": Op(lambda a: window(a, 1, 3), lambda a: a[:, 1:4], [(3, 5)]),
    "rows": Op(lambda a: rows(a, 1, 2), lambda a: a[1:3], [(4, 5)]),
    "take_cols": Op(lambda a: take_cols(a, (3, 0, 3)), lambda a: a[:, [3, 0, 3]],
                    [(3, 4)]),
    "matmul": Op(matmul, np.matmul, [(3, 4), (4, 2)]),
    "matmul_tanh": Op(lambda w, h: tanh(matmul(w, h)), lambda w, h: np.tanh(w @ h),
                      [(3, 4), (4, 6)]),
    "sum": Op(ad.summation, np.sum, [(3, 4)]),
    "mean": Op(mean, np.mean, [(3, 4)]),
}


def signed(rng, shape):
    """Entries in +-[0.5, 1.5]: away from the kink of abs and the pole of /."""
    return np.asarray(rng.uniform(0.5, 1.5, size=shape) * rng.choice((-1.0, 1.0), size=shape))


@pytest.mark.parametrize("name", OPS)
class TestOpTable:
    def leaves(self, name):
        rng = np.random.default_rng(sorted(OPS).index(name))
        return [signed(rng, s) for s in OPS[name].shapes], rng

    def test_forward_matches_numpy(self, name):
        op = OPS[name]
        arrays, _ = self.leaves(name)
        out = op.graph(*map(Value, arrays))
        expected = op.numpy(*arrays)
        assert np.array_equal(out.data, expected)
        assert np.array_equal(Graph(out).refresh(), expected)

    def test_backward_matches_central_differences(self, name):
        op = OPS[name]
        arrays, rng = self.leaves(name)
        leaves = [Value(a.copy()) for a in arrays]
        out = op.graph(*leaves)
        # a 0-d output is the root; a field output is contracted with weights
        if out.data.ndim == 0:
            weights = 1.0
            Graph(out).backward()
        else:
            weights = signed(rng, out.shape)
            Graph(ad.summation(out * weights)).backward()
        h = 1e-6
        for k, (leaf, x) in enumerate(zip(leaves, arrays)):
            fd = np.zeros_like(x)
            for idx in np.ndindex(x.shape):
                up, dn = [a.copy() for a in arrays], [a.copy() for a in arrays]
                up[k][idx] += h
                dn[k][idx] -= h
                diff = np.asarray(op.numpy(*up)) - np.asarray(op.numpy(*dn))
                fd[idx] = np.sum(diff * weights) / (2 * h)
            assert np.shape(leaf.grad) == x.shape
            np.testing.assert_allclose(leaf.grad, fd, rtol=1e-6, atol=1e-8)


def single_unit_network(w0):
    """u = tanh(w0 * x) in the first of two output rows, exactly."""
    params = init_xavier(NetworkConfig(hidden_layers=1, width=1, outputs=2))
    params.weights[0].data[:] = w0
    params.weights[1].data[:] = [[1.0], [0.0]]
    return params


class TestJets:
    def test_tanh_chain(self):
        x0 = 0.37
        jet = forward_stages(single_unit_network(2.0), x0, order=2)
        t = math.tanh(2 * x0)
        assert float(jet.dx.data[0, 0]) == pytest.approx(2 * (1 - t * t), rel=1e-12)
        assert float(jet.dxx.data[0, 0]) == pytest.approx(-8 * t * (1 - t * t), rel=1e-12)

    def test_first_order_jet_has_no_curvature_nodes(self):
        params = init_xavier(NetworkConfig(outputs=3, seed=1))
        jet = forward_stages(params, np.array([0.1]), order=1)
        assert jet.dx is not None and jet.dxx is None

    def test_derivative_nodes_stay_differentiable(self):
        # d/dw of u_x for u = tanh(w*x) at x=0.5, w=0.8:
        # u_x = w sech^2(wx);  d(u_x)/dw = sech^2 - 2 w x tanh sech^2
        params = single_unit_network(0.8)
        jet = forward_stages(params, 0.5, order=1)
        Graph(ad.summation(jet.dx)).backward()
        t = math.tanh(0.4)
        s = 1 - t * t
        expected = s - 2 * 0.8 * 0.5 * t * s
        gw0 = params.layer_grads[0][0]  # the first layer's VJP writes w0's gradient here
        assert float(gw0[0, 0]) == pytest.approx(expected, rel=1e-12)
