import dataclasses
import gc
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hpinn.model
from hpinn.autodiff import Jet, Value
from hpinn.irk import gauss_legendre_tableau
from hpinn.model import (
    Adam,
    Discretization,
    TimeStepState,
    TrainingConfig,
    TrainingDivergedError,
    build_loss_graph,
    march,
    step_count,
    step_state,
    train_step,
)
from hpinn.network import (
    NetworkConfig,
    NetworkParameters,
    forward_stages,
    init_xavier,
    load_parameters,
    save_parameters,
)
from hpinn.pde import PdeSpec, burgers
from hpinn.refsolver import relative_error
from hpinn.weno import DiscontinuityMask, GridField
from loss_oracle import (
    compute_loss,
    hybrid_convection,
    loss_graph,
    residual_operator,
    stage_targets,
)
from network_oracle import unfused_forward_stages
from weno_oracle import dense_convection, masks


def layer_gradients(params):
    """The fused network's gradients, as its layer VJPs wrote them into
    ``params.grad``, in ``params.leaves()`` order."""
    return [g.copy() for pair in params.layer_grads for g in pair]


def leaf_gradients(params):
    """An unfused oracle's gradients, held by the parameter leaves of its graph."""
    return [leaf.grad.copy() for leaf in params.leaves()]


def make_grid(n=64, lo=-1.0, hi=1.0):
    x = np.linspace(lo, hi, n)
    return GridField(np.zeros(n), lo, x[1] - x[0]), x


def constant_jet(u, ux=None, uxx=None):
    """Stage jet built from fixed arrays, for operator tests without a net."""
    return Jet(
        Value(u),
        None if ux is None else Value(ux),
        None if uxx is None else Value(uxx),
    )


class TestStageFields:
    def test_q1_gives_two_rows(self):
        grid, _ = make_grid(16)
        params = init_xavier(NetworkConfig(outputs=2, seed=0))
        jet = forward_stages(params, grid.x, 2)
        assert jet.u.data.shape == (2, 16)

    def test_zero_head_network(self):
        grid, _ = make_grid(16)
        params = init_xavier(NetworkConfig(outputs=3, seed=1))
        params.weights[-1].data[:] = 0.0
        jet = forward_stages(params, grid.x, 2)
        assert not jet.u.data.any()
        assert not jet.dx.data.any()
        assert not jet.dxx.data.any()

    def test_matches_pointwise_forward(self):
        grid, x = make_grid(9)
        params = init_xavier(NetworkConfig(outputs=4, seed=2))
        jet = forward_stages(params, grid.x, 2)
        for i in (0, 4, 8):
            single = forward_stages(params, x[i], order=1)
            assert np.max(np.abs(jet.u.data[:, i] - single.u.data[:, 0])) < 1e-12


class TestHybridConvection:
    def setup_method(self):
        self.n = 300
        self.x = np.linspace(-1, 1, self.n)
        self.dx = self.x[1] - self.x[0]
        self.pde = burgers(0.0)

    def test_zero_mask_is_pure_autodiff(self):
        u = np.sin(np.pi * self.x)[None, :]
        ux = np.pi * np.cos(np.pi * self.x)[None, :]
        jet = constant_jet(u, ux)
        mask = DiscontinuityMask(np.zeros(self.n, dtype=np.int64))
        fast = hybrid_convection(jet, mask, self.pde, 1.1, self.dx)
        blended = dense_convection(jet, mask, self.pde, 1.1, self.dx)
        direct = u * ux
        assert np.max(np.abs(fast.data - direct)) == 0.0
        assert np.max(np.abs(blended.data - fast.data)) < 1e-14

    def test_constant_field_both_paths_vanish(self):
        c = 0.7
        pde = burgers()
        jet = constant_jet(np.full((1, self.n), c), np.zeros((1, self.n)))
        ones = DiscontinuityMask(np.ones(self.n, dtype=np.int64))
        zeros = DiscontinuityMask(np.zeros(self.n, dtype=np.int64))
        conv_weno = hybrid_convection(jet, ones, pde, 1.1 * c, self.dx)
        conv_ad = hybrid_convection(jet, zeros, pde, 1.1 * c, self.dx)
        assert np.max(np.abs(conv_ad.data)) < 1e-14
        # the walls hold 0, so only stencils inside the grid see a constant
        assert np.max(np.abs(conv_weno.data[:, 3:-3])) < 1e-12

    def test_smooth_field_paths_agree(self):
        # both discretize the same smooth derivative; WENO truncation error
        # is the only difference (interior points: boundary stencils see the
        # constant ghost continuation)
        u = np.sin(np.pi * self.x)[None, :]
        ux = np.pi * np.cos(np.pi * self.x)[None, :]
        jet = constant_jet(u, ux)
        ones = DiscontinuityMask(np.ones(self.n, dtype=np.int64))
        zeros = DiscontinuityMask(np.zeros(self.n, dtype=np.int64))
        weno = hybrid_convection(jet, ones, self.pde, 1.1, self.dx)
        auto = hybrid_convection(jet, zeros, self.pde, 1.1, self.dx)
        diff = np.abs(weno.data - auto.data)[0, 4:-4]
        assert diff.max() < 1e-3


class TestFusedWenoBranch:
    """The sparse WENO-Z branch against the dense composition it replaced."""

    N = 32
    X = np.linspace(-1.0, 1.0, N)
    DX = X[1] - X[0]

    @settings(max_examples=60, deadline=None)
    @given(u=arrays(np.float64, (3, N), elements=st.floats(-2.0, 2.0)),
           ux=arrays(np.float64, (3, N), elements=st.floats(-50.0, 50.0)),
           flags=masks(N))
    def test_convection_matches_dense_oracle(self, u, ux, flags):
        jet, mask, pde = constant_jet(u, ux), DiscontinuityMask(flags), burgers(0.0)
        got = hybrid_convection(jet, mask, pde, 2.5, self.DX).data
        want = dense_convection(jet, mask, pde, 2.5, self.DX).data
        smooth = flags == 0
        assert np.array_equal(got[:, smooth], want[:, smooth])
        assert np.max(np.abs(got - want)[:, ~smooth], initial=0.0) <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flags=masks(N),
           nu=st.sampled_from([0.0, 1e-4 / np.pi]))
    def test_parameter_gradients_match_dense_oracle(self, seed, flags, nu):
        rng = np.random.default_rng(seed)
        data = GridField(-np.sin(np.pi * self.X), -1.0, self.DX)
        state = TimeStepState(0.0, data, DiscontinuityMask(flags), 1.3)
        pde, tab = burgers(nu), gauss_legendre_tableau(2)
        disc = Discretization(n_points=self.N, dt=0.1, q_stages=2)
        params = init_xavier(NetworkConfig(hidden_layers=2, width=8, outputs=3))
        for leaf in params.leaves():
            leaf.data = rng.uniform(-0.8, 0.8, size=leaf.data.shape)

        def loss_and_gradients(build):
            graph, (total, _, _), _ = build(params, state, tab, pde, disc)
            graph.backward()
            return float(total.data), layer_gradients(params)  # both run the fused network

        loss, grads = loss_and_gradients(build_loss_graph)
        want_loss, want = loss_and_gradients(partial(loss_graph, convection=dense_convection))
        assert loss == want_loss
        scale = max(np.max(np.abs(g)) for g in want)
        assert max(np.max(np.abs(g - w)) for g, w in zip(grads, want)) <= 1e-12 * scale

    @pytest.mark.parametrize("nu", [0.0, 1e-4 / np.pi])
    def test_flagged_step_adds_at_most_five_nodes(self, nu):
        # the paper setting: 300 points, q = 10; the branch once cost 183 nodes
        n, q = 300, 10
        x = np.linspace(-1.0, 1.0, n)
        data = GridField(np.where(x < 0.0, 1.0, -1.0) * (1.0 - np.abs(x)), -1.0, x[1] - x[0])
        pde, tab = burgers(nu), gauss_legendre_tableau(q)
        disc = Discretization(n_points=n, dt=0.1, q_stages=q)
        state = step_state(data, 0.0, pde, disc)
        assert state.mask.count() > 0
        plain = dataclasses.replace(state, mask=DiscontinuityMask(np.zeros(n, dtype=np.int64)))
        params = init_xavier(NetworkConfig(outputs=q + 1, seed=0))
        flagged_graph = build_loss_graph(params, state, tab, pde, disc)[0]
        plain_graph = build_loss_graph(params, plain, tab, pde, disc)[0]
        assert len(flagged_graph.nodes) <= len(plain_graph.nodes) + 5


class TestFusedNetwork:
    """Loss gradients through the one-node layers against the unfused jet rule."""

    N = 40
    X = np.linspace(-1.0, 1.0, N)
    SHOCK = np.where(X < 0.0, 1.0, -1.0) * (1.0 - np.abs(X))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nu=st.sampled_from([0.0, 1e-4 / np.pi]),
           q=st.integers(1, 10), flagged=st.sampled_from(["none", "dilated", "all"]),
           reduction=st.sampled_from(["mean", "sum"]))
    def test_parameter_gradients_match_unfused_oracle_bit_for_bit(self, seed, nu, q, flagged,
                                                                 reduction):
        rng = np.random.default_rng(seed)
        data = GridField(self.SHOCK, -1.0, self.X[1] - self.X[0])
        pde, tab = burgers(nu), gauss_legendre_tableau(q)
        disc = Discretization(n_points=self.N, dt=0.1, q_stages=q)
        state = step_state(data, 0.0, pde, disc)  # the dilated indicator mask
        assert state.mask.count() > 0
        if flagged != "dilated":
            fill = np.full(self.N, flagged == "all", dtype=np.int64)
            state = dataclasses.replace(state, mask=DiscontinuityMask(fill))
        params = init_xavier(NetworkConfig(hidden_layers=int(rng.integers(1, 6)),
                                           width=int(rng.integers(1, 21)),
                                           outputs=q + 1, seed=seed))
        for b in params.biases:
            b.data = rng.uniform(-0.5, 0.5, size=b.data.shape)

        def losses_and_gradients(build, gradients):
            graph, losses, _ = build(params, state, tab, pde, disc, reduction)
            graph.backward()
            return [float(v.data) for v in losses], gradients(params)

        losses, grads = losses_and_gradients(build_loss_graph, layer_gradients)
        want_losses, want = losses_and_gradients(
            partial(loss_graph, forward=unfused_forward_stages), leaf_gradients)
        assert [v.hex() for v in losses] == [v.hex() for v in want_losses]
        for g, w in zip(grads, want):
            assert g.shape == w.shape and np.array_equal(g, w)


class CubicFlux(PdeSpec):
    """f = u^3/3, whose f''(u) = 2u is not a constant."""

    @staticmethod
    def flux(u):
        return u * u * u * (1.0 / 3.0)

    @staticmethod
    def dflux(u):
        return u * u

    @staticmethod
    def ddflux(u):
        return 2.0 * u


class RealOnlySpeed(PdeSpec):
    """Burgers' equation whose f' refuses complex input."""

    @staticmethod
    def dflux(u):
        if np.iscomplexobj(u):
            raise TypeError("dflux takes real input only")
        return u


class TestLossNode:
    """The one-node loss tail against the node-per-op composition it replaced."""

    N = 40
    X = np.linspace(-1.0, 1.0, N)
    SHOCK = np.where(X < 0.0, 1.0, -1.0) * (1.0 - np.abs(X))

    def case(self, nu, q, flagged, seed=0, layers=2, spec=PdeSpec):
        pde = spec(viscosity=nu)
        disc = Discretization(n_points=self.N, dt=0.1, q_stages=q)
        data = GridField(self.SHOCK, -1.0, self.X[1] - self.X[0])
        state = step_state(data, 0.3, pde, disc)  # the dilated indicator mask
        assert state.mask.count() > 0
        if flagged != "dilated":
            fill = np.full(self.N, flagged == "all", dtype=np.int64)
            state = dataclasses.replace(state, mask=DiscontinuityMask(fill))
        params = init_xavier(NetworkConfig(hidden_layers=layers, width=6, outputs=q + 1,
                                           seed=seed))
        rng = np.random.default_rng(seed)
        for b in params.biases:
            b.data = rng.uniform(-0.5, 0.5, size=b.data.shape)
        return params, state, gauss_legendre_tableau(q), pde, disc

    @staticmethod
    def losses_and_gradients(graph, losses, params):
        # the oracle's tail too runs on the fused network, whose VJPs write params.grad
        graph.backward()
        return [float(v.data) for v in losses], layer_gradients(params)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nu=st.sampled_from([0.0, 1e-4 / np.pi]),
           q=st.one_of(st.integers(1, 10), st.just(50)),
           flagged=st.sampled_from(["none", "dilated", "all"]),
           reduction=st.sampled_from(["mean", "sum"]))
    def test_matches_oracle_bit_for_bit(self, seed, nu, q, flagged, reduction):
        params, state, tab, pde, disc = self.case(nu, q, flagged, seed)
        fused_graph, fused_losses, _ = build_loss_graph(params, state, tab, pde, disc, reduction)
        oracle_graph, oracle_losses, _ = loss_graph(params, state, tab, pde, disc, reduction)
        rng = np.random.default_rng(seed)
        for sweep in range(2):  # at build, then after a refresh on moved parameters
            if sweep:
                for leaf in params.leaves():
                    leaf.data = leaf.data + rng.uniform(-0.1, 0.1, size=leaf.data.shape)
                fused_graph.refresh()
                oracle_graph.refresh()
            losses, grads = self.losses_and_gradients(fused_graph, fused_losses, params)
            want_losses, want = self.losses_and_gradients(oracle_graph, oracle_losses, params)
            assert [v.hex() for v in losses] == [v.hex() for v in want_losses]
            for g, w in zip(grads, want):
                assert g.shape == w.shape and np.array_equal(g, w)

    @settings(max_examples=30, deadline=None)
    @given(layers=st.integers(1, 5), nu=st.sampled_from([0.0, 1e-4 / np.pi]),
           q=st.sampled_from([1, 4, 10, 50]),
           flagged=st.sampled_from(["none", "dilated", "all"]))
    def test_graph_has_one_node_per_layer_and_one_for_the_loss(self, layers, nu, q, flagged):
        params, state, tab, pde, disc = self.case(nu, q, flagged, layers=layers)
        graph, (total, _, _), _ = build_loss_graph(params, state, tab, pde, disc)
        assert sum(1 for node in graph.nodes if node.parents) == layers + 2
        assert graph.root is total and total.label == "loss"

    @pytest.mark.parametrize("flagged", ["none", "dilated"])
    def test_curvature_of_a_cubic_flux(self, flagged):
        # f = u^3/3: the convection gradient needs f''(u) = 2u, which the
        # node takes from ddflux; the oracle builds u*u as nodes
        params, state, tab, pde, disc = self.case(1e-4 / np.pi, 3, flagged, spec=CubicFlux)
        state = dataclasses.replace(state, lam=1.1 * pde.max_speed(state.data.values))
        losses, grads = self.losses_and_gradients(
            *build_loss_graph(params, state, tab, pde, disc)[:2], params)
        want_losses, want = self.losses_and_gradients(
            *loss_graph(params, state, tab, pde, disc)[:2], params)
        assert losses == pytest.approx(want_losses, rel=1e-14)
        for g, w in zip(grads, want):
            np.testing.assert_allclose(g, w, rtol=1e-11, atol=1e-13 * np.max(np.abs(w)))

    def test_burgers_curvature_is_one(self):
        assert burgers().ddflux(np.linspace(-1.0, 1.0, 7)) == 1.0

    def test_train_step_never_passes_complex_input_to_dflux(self):
        params, state, tab, pde, disc = self.case(1e-4 / np.pi, 2, "dilated",
                                                   spec=RealOnlySpeed)
        config = TrainingConfig(max_iterations=3, loss_tolerance=1e-300)
        _, u_next, diag = train_step(state, params, tab, pde, disc, config)
        assert diag.iterations == 3 and np.all(np.isfinite(u_next.values))

    @pytest.mark.parametrize("nu", [0.0, 1e-4 / np.pi])
    @pytest.mark.parametrize("flagged", ["none", "dilated"])
    def test_forward_and_vjp_leave_the_jet_unchanged(self, nu, flagged):
        # Burgers' dflux returns its argument, so the taped speed is the
        # jet's own row 0; the node works in place on its temporaries only
        params, state, tab, pde, disc = self.case(nu, 4, flagged)
        _, (total, _, _), stages = build_loss_graph(params, state, tab, pde, disc)
        jet = stages.data
        before = jet.copy()
        value = total.forward(jet)
        assert np.array_equal(jet, before)
        grads = [total.vjp(np.ones_like(value), value, jet)[0] for _ in range(2)]
        assert np.array_equal(jet, before)
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("flagged", ["none", "dilated"])
    def test_a_dropped_graph_goes_without_the_cycle_collector(self, flagged):
        # no node may reach itself through its own closures, or every
        # finished step's graph would wait for the cyclic collector
        params, state, tab, pde, disc = self.case(1e-4 / np.pi, 4, flagged)
        enabled = gc.isenabled()
        gc.disable()
        try:
            graph, losses, stages = build_loss_graph(params, state, tab, pde, disc)
            graph.backward()
            graph.refresh()
            refs = [weakref.ref(losses[0]), weakref.ref(stages)]
            del graph, losses, stages
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_train_step_reads_the_last_stage_row(self):
        params, state, tab, pde, disc = self.case(0.0, 2, "dilated")
        config = TrainingConfig(max_iterations=3, loss_tolerance=1e-300)
        params, u_next, _ = train_step(state, params, tab, pde, disc, config)
        jet = forward_stages(params, state.data.x, order=1)
        assert np.array_equal(u_next.values, jet.u.data[2])


class TestWholeGradient:
    """Nothing zeroes or gathers ``params.grad``: one backward writes all of it."""

    N = 40
    X = np.linspace(-1.0, 1.0, N)

    @pytest.mark.parametrize("nu", [0.0, 1e-4 / np.pi])
    @pytest.mark.parametrize("shape", ["smooth", "shock"])
    def test_one_backward_writes_every_entry(self, nu, shape):
        if shape == "smooth":
            values = -np.sin(np.pi * self.X)
        else:
            values = np.where(self.X < 0.0, 1.0, -1.0) * (1.0 - np.abs(self.X))
        q = 4
        pde, tab = burgers(nu), gauss_legendre_tableau(q)
        disc = Discretization(n_points=self.N, dt=0.1, q_stages=q)
        state = step_state(GridField(values, -1.0, self.X[1] - self.X[0]), 0.0, pde, disc)
        assert (state.mask.count() > 0) == (shape == "shock")
        config = NetworkConfig(outputs=q + 1, seed=7)  # the paper's 5 x 20 net

        def gradient(fill):
            params = init_xavier(config)
            if fill is not None:
                params.grad[:] = fill
            graph = build_loss_graph(params, state, tab, pde, disc)[0]
            graph.backward()
            return graph, params.grad

        graph, got = gradient(np.nan)
        _, want = gradient(None)  # a fresh network's gradient
        assert np.all(np.isfinite(got))
        assert got.tobytes() == want.tobytes()
        leaves = [node for node in graph.nodes if not node.parents]
        assert len(leaves) == 1 and leaves[0].label == "x"  # the input jet, no parameter
        assert len(graph.nodes) - 1 == config.hidden_layers + 2


class TestResidualOperator:
    def test_constant_field_zero_residual(self):
        n = 64
        grid, x = make_grid(n)
        pde = burgers()
        tab = gauss_legendre_tableau(2)
        jet = constant_jet(np.full((3, n), 0.3), np.zeros((3, n)), np.zeros((3, n)))
        mask = DiscontinuityMask(np.zeros(n, dtype=np.int64))
        resid = residual_operator(jet, mask, pde, 0.4, grid, tab)
        assert np.max(np.abs(resid.data)) < 1e-14

    def test_linear_field_autodiff_path(self):
        # Burgers with u = x: N[u] = u u_x = x
        n = 64
        grid, x = make_grid(n)
        pde = burgers(1e-4 / np.pi)
        tab = gauss_legendre_tableau(1)
        jet = constant_jet(
            np.tile(x, (2, 1)), np.ones((2, n)), np.zeros((2, n))
        )
        mask = DiscontinuityMask(np.zeros(n, dtype=np.int64))
        resid = residual_operator(jet, mask, pde, 1.2, grid, tab)
        assert np.max(np.abs(resid.data - x)) < 1e-12

    def test_manufactured_solution(self):
        # u = sin(pi x) has N[u] = u u_x - nu u_xx analytically; exact-jet
        # rows leave only the convection discretization error
        n = 300
        nu = 0.05
        x = np.linspace(-1, 1, n)
        grid = GridField(np.zeros(n), -1.0, x[1] - x[0])
        pde = burgers(nu)
        tab = gauss_legendre_tableau(1)
        u = np.sin(np.pi * x)
        ux = np.pi * np.cos(np.pi * x)
        uxx = -np.pi**2 * np.sin(np.pi * x)
        exact = u * ux - nu * uxx
        jet = constant_jet(
            u[None, :].repeat(2, axis=0),
            ux[None, :].repeat(2, axis=0),
            uxx[None, :].repeat(2, axis=0),
        )
        # autodiff path: the analytic residual up to roundoff
        zeros = DiscontinuityMask(np.zeros(n, dtype=np.int64))
        r_ad = residual_operator(jet, zeros, pde, 1.1, grid, tab)
        assert np.max(np.abs(r_ad.data - exact)) < 1e-12
        # WENO path: truncation error only, interior
        ones = DiscontinuityMask(np.ones(n, dtype=np.int64))
        r_weno = residual_operator(jet, ones, pde, 1.1, grid, tab)
        assert np.max(np.abs(r_weno.data[:, 4:-4] - exact[4:-4])) < 1e-3


class TestStageTargets:
    def test_zero_dt_returns_stages(self):
        tab = gauss_legendre_tableau(2)
        stages = Value(np.arange(12.0).reshape(3, 4))
        resid = Value(np.ones((2, 4)))
        out = stage_targets(stages, resid, tab, 0.0)
        assert np.array_equal(out.data, stages.data)

    def test_midpoint_hand_values(self):
        tab = gauss_legendre_tableau(1)
        stages = Value(np.zeros((2, 3)))
        resid = Value(np.ones((1, 3)))
        out = stage_targets(stages, resid, tab, 0.1)
        assert np.allclose(out.data[0], 0.05, atol=1e-15)
        assert np.allclose(out.data[1], 0.1, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        tab = gauss_legendre_tableau(2)
        stages = rng.normal(size=(3, 3))
        resid = rng.normal(size=(2, 3))
        dt = 0.37
        out = stage_targets(Value(stages), Value(resid), tab, dt)
        expected = np.empty((3, 3))
        for i in range(2):
            for p in range(3):
                expected[i, p] = stages[i, p] + dt * sum(
                    tab.a[i, j] * resid[j, p] for j in range(2)
                )
        for p in range(3):
            expected[2, p] = stages[2, p] + dt * sum(
                tab.b[j] * resid[j, p] for j in range(2)
            )
        assert np.max(np.abs(out.data - expected)) < 1e-14

    def test_shape_mismatch_rejected(self):
        tab = gauss_legendre_tableau(2)
        with pytest.raises(ValueError):
            stage_targets(Value(np.zeros((4, 3))), Value(np.zeros((2, 3))), tab, 0.1)


class TestComputeLoss:
    def test_perfect_match_is_zero(self):
        data = np.linspace(-1, 1, 8)
        targets = Value(np.tile(data, (3, 1)))
        stages = Value(np.zeros((3, 8)))
        total, l_pde, l_bc = compute_loss(targets, stages, data)
        assert float(total.data) == 0.0

    def test_single_point_offset_mean_convention(self):
        n, q1 = 5, 3
        data = np.zeros(n)
        t = np.zeros((q1, n))
        t[1, 2] = 0.1
        total, l_pde, l_bc = compute_loss(Value(t), Value(np.zeros((q1, n))), data)
        assert float(l_pde.data) == pytest.approx(0.1**2 / (n * q1), abs=1e-18)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        n, q1 = 6, 4
        data = rng.normal(size=n)
        targets = rng.normal(size=(q1, n))
        stages = rng.normal(size=(q1, n))
        for reduction in ("mean", "sum"):
            total, l_pde, l_bc = compute_loss(Value(targets), Value(stages), data, reduction)
            pde_terms = [(targets[j, i] - data[i]) ** 2 for j in range(q1) for i in range(n)]
            bc_terms = [stages[j, i] ** 2 for j in range(q1) for i in (0, n - 1)]
            if reduction == "mean":
                expected = np.mean(pde_terms) + np.mean(bc_terms)
            else:
                expected = np.sum(pde_terms) + np.sum(bc_terms)
            assert float(total.data) == pytest.approx(expected, rel=1e-14)
            assert float(total.data) == pytest.approx(
                float(l_pde.data) + float(l_bc.data), abs=1e-14
            )


class TestGradientFlow:
    def test_weno_path_gradients_match_finite_differences(self):
        # random (nonzero-bias) parameters so no symmetry nulls the gradients
        rng = np.random.default_rng(3)
        n = 64
        x = np.linspace(-1, 1, n)
        data = GridField(-np.sin(np.pi * x), -1.0, x[1] - x[0])
        flags = np.zeros(n, dtype=np.int64)
        flags[25:40] = 1
        state = TimeStepState(0.0, data, DiscontinuityMask(flags), 1.3)
        pde = burgers(1e-4 / np.pi)
        tab = gauss_legendre_tableau(2)
        disc = Discretization(n_points=n, dt=0.1, q_stages=2)
        params = init_xavier(NetworkConfig(outputs=3, seed=4))
        for leaf in params.leaves():
            leaf.data = rng.uniform(-0.4, 0.4, size=leaf.data.shape)
        graph, (total, _, _), _ = build_loss_graph(params, state, tab, pde, disc)
        graph.backward()
        checks = 0
        for leaf, grad in list(zip(params.leaves(), layer_gradients(params)))[::3]:
            idx = tuple(rng.integers(s) for s in leaf.data.shape)
            g_ad = grad[idx]
            h = 1e-6
            keep = leaf.data[idx]
            leaf.data[idx] = keep + h
            up = float(graph.refresh())
            leaf.data[idx] = keep - h
            dn = float(graph.refresh())
            leaf.data[idx] = keep
            graph.refresh()
            fd = (up - dn) / (2 * h)
            if abs(fd) > 1e-7:
                assert g_ad == pytest.approx(fd, rel=1e-5)
                checks += 1
        assert checks >= 3

    def test_hybrid_consistency_zero_mask(self):
        # the dense 0/1 blend with an all-zero mask must reproduce the
        # pure-autodiff loss exactly
        n = 48
        x = np.linspace(-1, 1, n)
        data = GridField(-np.sin(np.pi * x), -1.0, x[1] - x[0])
        mask = DiscontinuityMask(np.zeros(n, dtype=np.int64))
        state = TimeStepState(0.0, data, mask, 1.2)
        pde = burgers(1e-4 / np.pi)
        tab = gauss_legendre_tableau(2)
        disc = Discretization(n_points=n, dt=0.1, q_stages=2)
        for seed in (0, 1, 2):
            params = init_xavier(NetworkConfig(outputs=3, seed=seed))
            _, (plain, _, _), _ = build_loss_graph(params, state, tab, pde, disc)
            _, (blend, _, _), _ = loss_graph(params, state, tab, pde, disc,
                                             convection=dense_convection)
            assert abs(float(plain.data) - float(blend.data)) < 1e-14


class TestTrainStep:
    def test_zero_data_converges_to_zero_solution(self):
        n = 64
        grid = GridField(np.zeros(n), -1.0, 2 / (n - 1))
        pde = burgers(0.0)
        disc = Discretization(n_points=n, dt=0.1, q_stages=2)
        tab = gauss_legendre_tableau(2)
        state = step_state(grid, 0.0, pde, disc)
        params = init_xavier(NetworkConfig(outputs=3, seed=0))
        config = TrainingConfig(max_iterations=60_000)
        params, u_next, diag = train_step(state, params, tab, pde, disc, config)
        assert diag.converged
        assert diag.final_loss < 1e-5
        assert np.max(np.abs(u_next.values)) < 1e-2

    def test_loss_decreases(self):
        n = 48
        x = np.linspace(-1, 1, n)
        grid = GridField(-np.sin(np.pi * x), -1.0, x[1] - x[0])
        pde = burgers(0.0)
        disc = Discretization(n_points=n, dt=0.2, q_stages=1)
        tab = gauss_legendre_tableau(1)
        state = step_state(grid, 0.0, pde, disc)
        params = init_xavier(NetworkConfig(outputs=2, seed=1))
        config = TrainingConfig(max_iterations=500)
        params, _, diag = train_step(state, params, tab, pde, disc, config)
        assert diag.final_loss < diag.initial_loss

    def test_divergence_aborts_with_diagnostics(self):
        # corrupt parameters make the very first loss non-finite; the abort
        # must carry the iteration index and parameter norm
        n = 48
        x = np.linspace(-1, 1, n)
        grid = GridField(-np.sin(np.pi * x), -1.0, x[1] - x[0])
        pde = burgers(0.0)
        disc = Discretization(n_points=n, dt=0.2, q_stages=1)
        tab = gauss_legendre_tableau(1)
        state = step_state(grid, 0.0, pde, disc)
        params = init_xavier(NetworkConfig(outputs=2, seed=2))
        params.weights[0].data[0, 0] = np.inf
        with (pytest.raises(TrainingDivergedError) as err,
              pytest.warns(RuntimeWarning, match="invalid value")):
            train_step(state, params, tab, pde, disc, TrainingConfig(), step_index=1)
        assert err.value.iteration == 0
        assert err.value.parameter_norm is not None
        assert str(err.value) == "step 1 (t=0) aborted: non-finite loss at iteration 0"


class TestSettingTypes:
    @pytest.mark.parametrize("build", [
        partial(Discretization, n_points=7),
        partial(Discretization, dt=0.0),
        partial(Discretization, dt=float("nan")),
        partial(Discretization, dt=float("inf")),
        partial(TrainingConfig, max_iterations=0),
        partial(TrainingConfig, learning_rate=float("inf")),
        partial(TrainingConfig, loss_tolerance=float("nan")),
        partial(TrainingConfig, loss_reduction="median"),
        partial(burgers, float("nan")),
        partial(burgers, float("inf")),
        partial(burgers, -0.01),
        # a mask of 9 points on a field of 8
        partial(TimeStepState, 0.0, GridField(np.zeros(8), -1.0, 0.25),
                DiscontinuityMask(np.zeros(9)), 1.0),
        # stage counts outside [1, 100]
        *(partial(Discretization, q_stages=q) for q in (0, -3, 1.5, True, 101)),
    ])
    def test_out_of_range_value_is_a_value_error(self, build):
        with pytest.raises(ValueError):
            build()

    def test_burgers_spec_pickles(self):
        # sweep cells under --jobs receive the loaded spec by pickle
        pde = burgers(0.01)
        assert pickle.loads(pickle.dumps(pde)) == pde
        # the viscosity is its one setting: f, f' and f'' are its methods
        assert [f.name for f in dataclasses.fields(PdeSpec)] == ["viscosity"]
        assert pde == PdeSpec(viscosity=0.01)


class OverflowingFlux(PdeSpec):
    """Burgers with its flux scaled by 1e200: the reference solve overflows in
    its first step; a plain PINN never evaluates the flux.  Defined at module
    level, so the march's worker process can unpickle it."""

    @staticmethod
    def flux(u):
        return 1.0e200 * PdeSpec.flux(u)


def solve_for_a_minute(config):
    """A reference solve that outlasts any test: a march must not wait for it.
    At module level, so the march's worker process can unpickle it."""
    time.sleep(60.0)
    return []


# A run whose reference solve takes a minute: it prints its worker's pid after
# the first step, then waits to be killed.
KILLED_MARCH = """
import multiprocessing, time
import hpinn.model
from hpinn.model import Discretization, TrainingConfig, march
from hpinn.network import NetworkConfig
from hpinn.pde import burgers

def solve_for_a_minute(config):
    time.sleep(60.0)
    return []

def on_step(diag):
    print(multiprocessing.active_children()[0].pid, flush=True)
    time.sleep(60.0)

if __name__ == "__main__":
    hpinn.model._reference_snapshots = solve_for_a_minute
    march(burgers(0.0), Discretization(n_points=48, dt=0.5, q_stages=1), NetworkConfig(),
          TrainingConfig(max_iterations=5), t_final=0.5, eval_times=(0.5,), n_cells=64,
          on_step=on_step)
"""


def is_running(pid):
    """Whether process `pid` exists and is not a zombie no parent has reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestMarch:
    def tiny_setup(self, **kw):
        pde = burgers(0.0)
        disc = Discretization(n_points=48, dt=kw.pop("dt", 0.5), q_stages=1)
        net = NetworkConfig(outputs=2, seed=kw.pop("seed", 0))
        training = TrainingConfig(max_iterations=kw.pop("max_iterations", 150), **kw)
        return pde, disc, net, training

    def test_single_step_when_dt_equals_t_final(self):
        pde, disc, net, training = self.tiny_setup()
        res = march(pde, disc, net, training, t_final=0.5, n_cells=64)
        assert len(res.fields) == 2
        assert len(res.diagnostics) == 1

    def test_divisibility_required(self):
        pde, disc, net, training = self.tiny_setup(dt=0.3)
        with pytest.raises(ValueError):
            march(pde, disc, net, training, t_final=0.5)

    @pytest.mark.parametrize("dt", [0.0, -0.25, float("nan"), float("inf")])
    def test_degenerate_step_is_a_value_error(self, dt):
        # 0.0 was a ZeroDivisionError, which callers that catch ValueError miss
        with pytest.raises(ValueError, match="is not a multiple of dt"):
            step_count(0.5, dt)

    def test_eval_times_must_hit_steps(self):
        pde, disc, net, training = self.tiny_setup()
        with pytest.raises(ValueError):
            march(pde, disc, net, training, t_final=0.5, eval_times=(0.27,))
        # 1e-10 past t_final: an eval time is a boundary to the same 1e-12 as t_final
        with pytest.raises(ValueError, match="does not land on a step boundary"):
            march(pde, disc, net, training, t_final=0.5, eval_times=(0.5000000001,))

    def test_deterministic_trajectories(self):
        runs = []
        for _ in range(2):
            pde, disc, net, training = self.tiny_setup()
            res = march(pde, disc, net, training, t_final=0.5, n_cells=64)
            runs.append(res.fields[-1].values)
        assert np.array_equal(runs[0], runs[1])

    def test_seed_changes_trajectory(self):
        pde, disc, net, training = self.tiny_setup()
        a = march(pde, disc, net, training, t_final=0.5, n_cells=64)
        pde, disc, net, training = self.tiny_setup(seed=1)
        b = march(pde, disc, net, training, t_final=0.5, n_cells=64)
        assert not np.array_equal(a.fields[-1].values, b.fields[-1].values)

    def test_errors_reported_at_eval_times(self):
        # unsorted and repeated times come back sorted, once per step
        # boundary: a time one ulp above 0.25 names the same boundary
        pde, disc, net, training = self.tiny_setup(dt=0.25)
        res = march(
            pde, disc, net, training, t_final=0.5,
            eval_times=(0.5, np.nextafter(0.25, 1.0), 0.25, 0.5),
            n_cells=64,
        )
        assert list(res.errors) == [0.25, 0.5]
        assert list(res.profiles) == [0.25, 0.5]
        assert all(np.isfinite(v) for v in res.errors.values())

    def test_profiles_pair_each_eval_time_with_its_step_field(self):
        # the prediction is the field at t's step boundary, not a copy of it,
        # and the error is measured between the two arrays of the profile
        pde, disc, net, training = self.tiny_setup(dt=0.25, max_iterations=5)
        res = march(pde, disc, net, training, t_final=0.5, eval_times=(0.5, 0.25), n_cells=64)
        for t, k in ((0.25, 1), (0.5, 2)):
            pred, ref = res.profiles[t]
            assert pred is res.fields[k]
            assert (ref.x0, ref.dx, len(ref)) == (pred.x0, pred.dx, len(pred))
            assert res.errors[t] == relative_error(pred, ref)

    def test_reference_that_cannot_run_fails_before_any_step(self):
        # 1e40 cells pass SolverConfig's checks but not the solver's grid
        pde, disc, net, training = self.tiny_setup()
        steps = []
        with pytest.raises(ValueError):
            march(pde, disc, net, training, t_final=0.5, eval_times=(0.5,),
                  n_cells=10**40, on_step=steps.append)
        assert steps == []

    def test_reference_that_fails_later_stops_the_march_at_a_step_boundary(self):
        # the first step waits long enough for the worker's solve to overflow,
        # so the check before the second step re-raises the solver's error
        pde, disc, net, training = self.tiny_setup(dt=0.25, max_iterations=5)
        disc = dataclasses.replace(disc, hybrid_enabled=False)
        steps = []

        def on_step(diag):
            steps.append(diag)
            time.sleep(0.5)

        with pytest.raises(FloatingPointError, match="reference solve went non-finite at t=0"):
            march(OverflowingFlux(), disc, net, training, t_final=0.5, eval_times=(0.5,),
                  n_cells=64, on_step=on_step)
        assert len(steps) <= 1  # not only after the last step
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("eval_times,workers", [((0.5,), 1), ((), 1)])
    def test_one_reference_worker_while_training_and_none_after(self, eval_times, workers):
        # a march without eval times is scored at t_final
        pde, disc, net, training = self.tiny_setup(dt=0.25, max_iterations=5)
        seen = []
        res = march(pde, disc, net, training, t_final=0.5, eval_times=eval_times, n_cells=64,
                    on_step=lambda diag: seen.append(len(multiprocessing.active_children())))
        assert seen == [workers, workers]
        assert multiprocessing.active_children() == []
        assert list(res.errors) == list(res.profiles) == [0.5]

    def test_diverged_march_leaves_no_worker(self, monkeypatch):
        def diverge_at_step_1(state, *args, step_index=0):
            if step_index == 1:
                raise TrainingDivergedError("step 1 (t=0.25) aborted: non-finite loss")
            return train_step(state, *args, step_index=step_index)

        monkeypatch.setattr(hpinn.model, "train_step", diverge_at_step_1)
        pde, disc, net, training = self.tiny_setup(dt=0.25, max_iterations=5)
        steps = []
        with pytest.raises(TrainingDivergedError, match="step 1"):
            march(pde, disc, net, training, t_final=0.5, eval_times=(0.5,), n_cells=64,
                  on_step=steps.append)
        assert len(steps) == 1
        assert multiprocessing.active_children() == []

    def test_failed_march_stops_its_worker_mid_solve(self, monkeypatch):
        def diverge(state, *args, step_index=0):
            raise TrainingDivergedError(f"step {step_index} (t=0) aborted: non-finite loss")

        monkeypatch.setattr(hpinn.model, "_reference_snapshots", solve_for_a_minute)
        monkeypatch.setattr(hpinn.model, "train_step", diverge)
        pde, disc, net, training = self.tiny_setup(dt=0.25)
        started = time.perf_counter()
        with pytest.raises(TrainingDivergedError, match="step 0"):
            march(pde, disc, net, training, t_final=1.0, eval_times=(1.0,), n_cells=64)
        assert time.perf_counter() - started < 5.0  # not the minute the solve takes
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="a parent-death signal is Linux's")
    def test_killed_run_leaves_no_worker(self, tmp_path):
        # SIGTERM alone runs no cleanup in the run: its worker must end with it,
        # not solve on as an orphan
        (tmp_path / "killed_march.py").write_text(KILLED_MARCH)
        src = str(Path(hpinn.model.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        with subprocess.Popen([sys.executable, str(tmp_path / "killed_march.py")],
                              stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": path}) as run:
            worker = int(run.stdout.readline())
            run.send_signal(signal.SIGTERM)
            run.wait(10.0)
        deadline = time.monotonic() + 5.0
        while is_running(worker) and time.monotonic() < deadline:
            time.sleep(0.1)
        if is_running(worker):
            os.kill(worker, signal.SIGKILL)
            pytest.fail(f"worker {worker} outlived its killed run by 5 s")


class TestAdam:
    def test_quadratic_descent(self):
        w = np.array([3.0, -2.0])
        grad = np.empty_like(w)
        adam = Adam(w, grad, lr=0.05)
        for _ in range(2000):
            np.multiply(2.0, w, out=grad)
            adam.step()
        assert float(np.sum(w * w)) < 1e-8

    def test_deterministic(self):
        def descend():
            w = np.array([1.0, 2.0, 3.0])
            grad = np.empty_like(w)
            adam = Adam(w, grad, lr=1e-2)
            for _ in range(100):
                np.multiply(2.0, w - 0.5, out=grad)
                adam.step()
            return w

        assert np.array_equal(descend(), descend())

    def test_flat_update_matches_per_leaf_adam_bit_for_bit(self):
        rng = np.random.default_rng(3)
        shapes = [(4, 1), (4, 1), (3, 4), (3, 1), (1, 3), ()]
        leaves = [Value(rng.standard_normal(s)) for s in shapes]
        ref = [leaf.data.copy() for leaf in leaves]
        # the constructor lays out whatever leaves it is given; the config is only carried
        params = NetworkParameters(NetworkConfig(), leaves[0::2], leaves[1::2])
        assert params.leaves() == leaves
        adam = Adam(params.vector, params.grad, lr=1e-3)
        views = [g for pair in params.layer_grads for g in pair]  # in leaf order, as the VJPs write
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        for t in range(1, 30):
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-9, 2) for s in shapes]
            grads[1] = 0.0  # a scalar fills its leaf's whole view
            for view, g in zip(views, grads):
                view[...] = g
            adam.step()
            rate = 1e-3 * np.sqrt(1.0 - 0.999**t) / (1.0 - 0.9**t)
            for i, g in enumerate(grads):
                g = np.full_like(ref[i], g) if np.isscalar(g) else g
                m[i] *= 0.9
                m[i] += (1.0 - 0.9) * g
                v[i] *= 0.999
                v[i] += (1.0 - 0.999) * (g * g)
                ref[i] = ref[i] - rate * m[i] / (np.sqrt(v[i]) + 1e-8)
        for leaf, want in zip(leaves, ref):
            assert leaf.data.shape == want.shape
            assert leaf.data.tobytes() == want.tobytes()
            assert np.shares_memory(leaf.data, params.vector)


class TestParameterViews:
    """Every leaf's data stays a view of its slice of the parameters' vector."""

    @staticmethod
    def assert_views(params):
        for leaf in params.leaves():
            assert np.shares_memory(leaf.data, params.vector)
        assert np.array_equal(np.concatenate([leaf.data.ravel() for leaf in params.leaves()]),
                              params.vector)

    def test_across_a_march(self, monkeypatch):
        made = []

        def capture(config):
            params = init_xavier(config)
            made.append((params, params.vector.copy()))
            return params

        monkeypatch.setattr(hpinn.model, "init_xavier", capture)
        march(burgers(0.0), Discretization(n_points=48, dt=0.25, q_stages=1),
              NetworkConfig(outputs=2), TrainingConfig(max_iterations=5), t_final=0.5)
        (params, initial), = made
        self.assert_views(params)
        assert not np.array_equal(params.vector, initial)

    def test_train_step_moves_a_loaded_checkpoint(self, tmp_path):
        save_parameters(init_xavier(NetworkConfig(hidden_layers=2, width=7, outputs=2, seed=9)),
                        tmp_path / "params.npz")
        params = load_parameters(tmp_path / "params.npz")
        self.assert_views(params)
        before = [w.data.copy() for w in params.weights]
        n = 48
        x = np.linspace(-1, 1, n)
        pde, disc = burgers(0.0), Discretization(n_points=n, dt=0.2, q_stages=1)
        state = step_state(GridField(-np.sin(np.pi * x), -1.0, x[1] - x[0]), 0.0, pde, disc)
        train_step(state, params, gauss_legendre_tableau(1), pde, disc,
                   TrainingConfig(max_iterations=5))
        self.assert_views(params)
        assert all(not np.array_equal(leaf.data, was)
                   for leaf, was in zip(params.weights, before))
