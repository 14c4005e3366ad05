import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpinn.autodiff import Graph
from hpinn.network import (
    NetworkConfig,
    forward_stages,
    init_xavier,
    load_parameters,
    save_parameters,
    stacked_stages,
)
from loss_oracle import mean
from network_oracle import unfused_forward_stages


def numpy_forward(params, x):
    """Straight-line re-evaluation without the graph machinery."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = w.data @ h + b.data
        if k < last:
            h = np.tanh(h)
    return h


class TestInit:
    def test_first_layer_bound(self):
        params = init_xavier(NetworkConfig(hidden_layers=5, width=20, outputs=11, seed=0))
        bound = np.sqrt(6.0 / 21.0)
        w0 = params.weights[0].data
        assert w0.shape == (20, 1)
        assert np.all(np.abs(w0) <= bound)

    def test_all_biases_zero(self):
        params = init_xavier(NetworkConfig(seed=5))
        assert all(not b.data.any() for b in params.biases)

    def test_seed_reproducibility(self):
        a = init_xavier(NetworkConfig(outputs=4, seed=7))
        b = init_xavier(NetworkConfig(outputs=4, seed=7))
        c = init_xavier(NetworkConfig(outputs=4, seed=8))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa.data, wb.data)
        assert any(
            not np.array_equal(wa.data, wc.data) for wa, wc in zip(a.weights, c.weights)
        )

    def test_parameter_count_q10(self):
        params = init_xavier(NetworkConfig(hidden_layers=5, width=20, outputs=11))
        assert params.vector.size == 1951

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(hidden_layers=0)
        with pytest.raises(ValueError):
            NetworkConfig(width=0)
        with pytest.raises(ValueError):
            NetworkConfig(outputs=1)


class TestForward:
    def test_output_count(self):
        params = init_xavier(NetworkConfig(outputs=5, seed=1))
        jet = forward_stages(params, 0.2, order=1)
        assert jet.u.data.shape == (5, 1)

    def test_zero_head_gives_zero_everywhere(self):
        params = init_xavier(NetworkConfig(outputs=3, seed=2))
        params.weights[-1].data[:] = 0.0
        params.biases[-1].data[:] = 0.0
        jet = forward_stages(params, np.linspace(-1, 1, 9), order=2)
        assert not jet.u.data.any()
        assert not jet.dx.data.any()
        assert not jet.dxx.data.any()

    def test_matches_straight_line_oracle(self):
        params = init_xavier(NetworkConfig(hidden_layers=5, width=20, outputs=11, seed=3))
        jet = forward_stages(params, 0.3, order=1)
        assert np.max(np.abs(jet.u.data - numpy_forward(params, 0.3))) < 1e-12

    def test_batch_matches_pointwise(self):
        params = init_xavier(NetworkConfig(outputs=4, seed=4))
        xs = np.array([-0.8, -0.1, 0.55])
        batch = forward_stages(params, xs, order=1)
        for i, x in enumerate(xs):
            single = forward_stages(params, x, order=1)
            assert np.max(np.abs(batch.u.data[:, i] - single.u.data[:, 0])) < 1e-12

    def test_derivatives_match_finite_differences(self):
        params = init_xavier(NetworkConfig(outputs=3, seed=6))
        x0 = 0.21
        jet = forward_stages(params, x0, order=2)
        h = 1e-4
        fd_x = (numpy_forward(params, x0 + h) - numpy_forward(params, x0 - h)) / (2 * h)
        fd_xx = (
            numpy_forward(params, x0 + h)
            - 2 * numpy_forward(params, x0)
            + numpy_forward(params, x0 - h)
        ) / h**2
        assert np.max(np.abs(jet.dx.data - fd_x)) < 1e-5 * max(1, np.max(np.abs(fd_x)))
        assert np.max(np.abs(jet.dxx.data - fd_xx)) < 1e-4 * max(1, np.max(np.abs(fd_xx)))

    def test_gradients_reach_every_layer(self):
        params = init_xavier(NetworkConfig(outputs=3, seed=8))
        jet = forward_stages(params, np.linspace(-1, 1, 12), order=1)
        Graph(mean(jet.u * jet.u)).backward()
        assert all(np.any(np.asarray(leaf.grad) != 0.0) for leaf in params.leaves())


class TestFusedLayers:
    @settings(max_examples=150, deadline=None)
    @given(order=st.integers(1, 2), depth=st.integers(1, 5), width=st.integers(1, 20),
           n=st.integers(0, 64), seed=st.integers(0, 2**32 - 1))
    def test_jets_match_unfused_oracle_bit_for_bit(self, order, depth, width, n, seed):
        # n = 0 stands for a scalar x
        rng = np.random.default_rng(seed)
        params = init_xavier(NetworkConfig(hidden_layers=depth, width=width,
                                           outputs=int(rng.integers(2, 12)), seed=seed))
        for b in params.biases:
            b.data = rng.uniform(-1.0, 1.0, size=b.data.shape)
        x = float(rng.uniform(-1.0, 1.0)) if n == 0 else rng.uniform(-1.0, 1.0, size=n)
        got = forward_stages(params, x, order)
        want = unfused_forward_stages(params, x, order)
        for k, (g, w) in enumerate(zip(got, want)):
            assert (g is None) == (w is None) == (k > order)
            if w is not None:
                assert g.data.shape == w.data.shape == (params.config.outputs, max(n, 1))
                assert np.array_equal(g.data, w.data)

    def test_one_node_per_layer(self):
        params = init_xavier(NetworkConfig(hidden_layers=5, width=20, outputs=11))
        jet = forward_stages(params, np.linspace(-1, 1, 7), order=2)
        nodes = Graph(mean(jet.u) + mean(jet.dx) + mean(jet.dxx)).nodes
        labels = [n.label for n in nodes]
        assert labels.count("dense_tanh") == 5 and labels.count("dense") == 1
        assert labels.count("slot") == 3
        assert len(nodes) == 12 + 6 + 3 + 5  # leaves, layers, slots, reduction


class TestNoArgumentIsWritten:
    """A layer node works in place on arrays it made, never on an argument.

    The forward uses row 0 of its own pre-activation jet as scratch, and the
    tanh VJP row 0 of the gradient it returns.
    """

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(1, 2), layer=st.sampled_from(["first", "hidden", "output"]),
           width=st.integers(1, 20), n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_forward_and_vjp(self, order, layer, width, n, seed):
        rng = np.random.default_rng(seed)
        params = init_xavier(NetworkConfig(hidden_layers=2, width=width,
                                           outputs=int(rng.integers(2, 12)), seed=seed))
        for b in params.biases:
            b.data = rng.uniform(-1.0, 1.0, size=b.data.shape)
        top = stacked_stages(params, rng.uniform(-1.0, 1.0, size=n), order)
        layers = [node for node in Graph(top).nodes if node.parents]
        node = layers[{"first": 0, "hidden": 1, "output": -1}[layer]]
        args = [p.data for p in node.parents]  # W, b and, past the first layer, h
        kept = [a.copy() for a in args]
        out = node.forward(*args)
        assert all(np.array_equal(a, k) for a, k in zip(args, kept))
        assert np.array_equal(node.forward(*args), out)  # the first layer's (x, 1) too
        g = rng.normal(size=out.shape)
        given_g, given_out = g.copy(), out.copy()
        grads = [node.vjp(g, out, *args) for _ in range(2)]
        assert np.array_equal(g, given_g) and np.array_equal(out, given_out)
        assert all(np.array_equal(a, k) for a, k in zip(args, kept))
        for first, again in zip(*grads):
            assert np.array_equal(first, again)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = init_xavier(NetworkConfig(hidden_layers=3, width=7, outputs=4, seed=9))
        path = tmp_path / "params.npz"
        save_parameters(params, path)
        again = load_parameters(path)
        assert again.config == params.config
        assert again.vector.dtype == params.vector.dtype
        assert again.vector.tobytes() == params.vector.tobytes()
        for a, b in zip(params.leaves(), again.leaves()):
            assert np.array_equal(a.data, b.data)
            assert a.data.dtype == b.data.dtype

    def test_vector_that_does_not_fit_the_meta_is_rejected(self, tmp_path):
        # width 7 needs 14 + 56 + 56 + 32 = 158 parameters, width 8 needs 196
        path = tmp_path / "params.npz"
        save_parameters(init_xavier(NetworkConfig(hidden_layers=3, width=7, outputs=4)), path)
        with np.load(path) as blob:
            meta, vector = blob["meta"].copy(), blob["vector"]
        meta[1] = 8
        np.savez(path, meta=meta, vector=vector)
        with pytest.raises(ValueError, match=r"holds 158 parameters.*need 196"):
            load_parameters(path)
