import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hpinn.autodiff as ad
from hpinn.autodiff import EvaluationError, Graph, Jet, Value
from hpinn.irk import gauss_legendre_tableau
from hpinn.model import (
    Adam,
    Discretization,
    TimeStepState,
    TrainingConfig,
    TrainingDivergedError,
    build_loss_graph,
    march,
    step_state,
    train_step,
)
from hpinn.network import NetworkConfig, forward_stages, init_xavier
from hpinn.pde import PdeSpec, burgers
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
            single = forward_stages(params, x[i])
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
        pde = PdeSpec(
            flux=lambda u: u * u * 0.5,
            dflux=lambda u: u,
            domain=(-1.0, 1.0),
            boundary_value=c,
        )
        jet = constant_jet(np.full((1, self.n), c), np.zeros((1, self.n)))
        ones = DiscontinuityMask(np.ones(self.n, dtype=np.int64))
        zeros = DiscontinuityMask(np.zeros(self.n, dtype=np.int64))
        conv_weno = hybrid_convection(jet, ones, pde, 1.1 * c, self.dx)
        conv_ad = hybrid_convection(jet, zeros, pde, 1.1 * c, self.dx)
        assert np.max(np.abs(conv_ad.data)) < 1e-14
        assert np.max(np.abs(conv_weno.data)) < 1e-12

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
            return float(total.data), [leaf.grad.copy() for leaf in params.leaves()]

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

        def losses_and_gradients(build):
            graph, losses, _ = build(params, state, tab, pde, disc, reduction)
            graph.backward()
            return [float(v.data) for v in losses], [leaf.grad.copy() for leaf in params.leaves()]

        losses, grads = losses_and_gradients(build_loss_graph)
        want_losses, want = losses_and_gradients(partial(loss_graph,
                                                         forward=unfused_forward_stages))
        assert [v.hex() for v in losses] == [v.hex() for v in want_losses]
        for g, w in zip(grads, want):
            assert g.shape == w.shape and np.array_equal(g, w)


class TestLossNode:
    """The one-node loss tail against the node-per-op composition it replaced."""

    N = 40
    X = np.linspace(-1.0, 1.0, N)
    SHOCK = np.where(X < 0.0, 1.0, -1.0) * (1.0 - np.abs(X))

    def case(self, nu, q, flagged, boundary_value=0.0, source=None, seed=0, layers=2,
              dflux=lambda u: u, flux=lambda u: u * u * 0.5):
        pde = PdeSpec(flux=flux, dflux=dflux, viscosity=nu, source=source,
                      boundary_value=boundary_value)
        disc = Discretization(n_points=self.N, dt=0.1, q_stages=q)
        data = GridField(self.SHOCK + boundary_value, -1.0, self.X[1] - self.X[0])
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
        graph.backward()
        return [float(v.data) for v in losses], [leaf.grad.copy() for leaf in params.leaves()]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nu=st.sampled_from([0.0, 1e-4 / np.pi]),
           q=st.one_of(st.integers(1, 10), st.just(50)),
           flagged=st.sampled_from(["none", "dilated", "all"]),
           reduction=st.sampled_from(["mean", "sum"]),
           boundary_value=st.sampled_from([0.0, 0.25]), with_source=st.booleans())
    def test_matches_oracle_bit_for_bit(self, seed, nu, q, flagged, reduction,
                                        boundary_value, with_source):
        source = (lambda x, t: np.sin(np.pi * x) * np.cos(t)) if with_source else None
        params, state, tab, pde, disc = self.case(nu, q, flagged, boundary_value, source, seed)
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
        # node takes from f' by a complex step; the oracle builds u*u as nodes
        params, state, tab, pde, disc = self.case(1e-4 / np.pi, 3, flagged,
                                                   flux=lambda u: u * u * u * (1.0 / 3.0),
                                                   dflux=lambda u: u * u)
        state = dataclasses.replace(state, lam=1.1 * pde.max_speed(state.data.values))
        losses, grads = self.losses_and_gradients(
            *build_loss_graph(params, state, tab, pde, disc)[:2], params)
        want_losses, want = self.losses_and_gradients(
            *loss_graph(params, state, tab, pde, disc)[:2], params)
        assert losses == pytest.approx(want_losses, rel=1e-14)
        for g, w in zip(grads, want):
            np.testing.assert_allclose(g, w, rtol=1e-11, atol=1e-13 * np.max(np.abs(w)))

    def test_train_step_reads_the_last_stage_row(self):
        params, state, tab, pde, disc = self.case(0.0, 2, "dilated")
        config = TrainingConfig(max_iterations=3, loss_tolerance=1e-300)
        params, u_next, _ = train_step(state, params, tab, pde, disc, config)
        assert np.array_equal(u_next.values, forward_stages(params, state.data.x).u.data[2])


class TestResidualOperator:
    def test_constant_field_zero_residual(self):
        n = 64
        grid, x = make_grid(n)
        pde = PdeSpec(
            flux=lambda u: u * u * 0.5, dflux=lambda u: u,
            domain=(-1.0, 1.0), boundary_value=0.3,
        )
        tab = gauss_legendre_tableau(2)
        jet = constant_jet(np.full((3, n), 0.3), np.zeros((3, n)), np.zeros((3, n)))
        mask = DiscontinuityMask(np.zeros(n, dtype=np.int64))
        resid = residual_operator(jet, mask, pde, 0.4, grid, 0.0, 0.1, tab)
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
        resid = residual_operator(jet, mask, pde, 1.2, grid, 0.0, 0.1, tab)
        assert np.max(np.abs(resid.data - x)) < 1e-12

    def test_manufactured_solution(self):
        # u = sin(pi x), h = f(u)_x - nu u_xx makes N[u] = 0 analytically;
        # exact-jet rows leave only the convection discretization error
        n = 300
        nu = 0.05
        x = np.linspace(-1, 1, n)
        grid = GridField(np.zeros(n), -1.0, x[1] - x[0])

        def source(xs, t):
            u = np.sin(np.pi * xs)
            ux = np.pi * np.cos(np.pi * xs)
            uxx = -np.pi**2 * np.sin(np.pi * xs)
            return u * ux - nu * uxx

        pde = PdeSpec(
            flux=lambda u: u * u * 0.5, dflux=lambda u: u,
            viscosity=nu, source=source, domain=(-1.0, 1.0),
        )
        tab = gauss_legendre_tableau(1)
        u = np.sin(np.pi * x)
        jet = constant_jet(
            u[None, :].repeat(2, axis=0),
            (np.pi * np.cos(np.pi * x))[None, :].repeat(2, axis=0),
            (-np.pi**2 * np.sin(np.pi * x))[None, :].repeat(2, axis=0),
        )
        # autodiff path: identically zero up to roundoff
        zeros = DiscontinuityMask(np.zeros(n, dtype=np.int64))
        r_ad = residual_operator(jet, zeros, pde, 1.1, grid, 0.0, 0.1, tab)
        assert np.max(np.abs(r_ad.data)) < 1e-12
        # WENO path: truncation error only, interior
        ones = DiscontinuityMask(np.ones(n, dtype=np.int64))
        r_weno = residual_operator(jet, ones, pde, 1.1, grid, 0.0, 0.1, tab)
        assert np.max(np.abs(r_weno.data[:, 4:-4])) < 1e-3


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
        total, l_pde, l_bc = compute_loss(targets, stages, data, 0.0)
        assert float(total.data) == 0.0

    def test_single_point_offset_mean_convention(self):
        n, q1 = 5, 3
        data = np.zeros(n)
        t = np.zeros((q1, n))
        t[1, 2] = 0.1
        total, l_pde, l_bc = compute_loss(Value(t), Value(np.zeros((q1, n))), data, 0.0)
        assert float(l_pde.data) == pytest.approx(0.1**2 / (n * q1), abs=1e-18)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        n, q1 = 6, 4
        data = rng.normal(size=n)
        targets = rng.normal(size=(q1, n))
        stages = rng.normal(size=(q1, n))
        ub = 0.25
        for reduction in ("mean", "sum"):
            total, l_pde, l_bc = compute_loss(
                Value(targets), Value(stages), data, ub, reduction
            )
            pde_terms = [(targets[j, i] - data[i]) ** 2 for j in range(q1) for i in range(n)]
            bc_terms = [(stages[j, i] - ub) ** 2 for j in range(q1) for i in (0, n - 1)]
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
        for leaf in params.leaves()[::3]:
            idx = tuple(rng.integers(s) for s in leaf.data.shape)
            g_ad = leaf.grad[idx]
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
            train_step(state, params, tab, pde, disc, TrainingConfig())
        assert err.value.iteration == 0
        assert err.value.parameter_norm is not None

    def test_evaluation_error_names_step_and_iteration(self, monkeypatch):
        # the third refresh evaluates the loss after three Adam updates
        n = 48
        x = np.linspace(-1, 1, n)
        grid = GridField(-np.sin(np.pi * x), -1.0, x[1] - x[0])
        pde = burgers(0.0)
        disc = Discretization(n_points=n, dt=0.2, q_stages=1)
        state = step_state(grid, 0.0, pde, disc)
        params = init_xavier(NetworkConfig(outputs=2, seed=2))
        refresh, calls = Graph.refresh, []

        def failing_refresh(graph):
            calls.append(graph)
            if len(calls) == 3:
                raise EvaluationError("near-zero divisor in node 'weno_z'")
            return refresh(graph)

        monkeypatch.setattr(Graph, "refresh", failing_refresh)
        with pytest.raises(EvaluationError, match=r"'weno_z' at step 4, iteration 3$"):
            train_step(state, params, gauss_legendre_tableau(1), pde, disc,
                       TrainingConfig(max_iterations=10), step_index=4)


class TestMarch:
    def tiny_setup(self, **kw):
        pde = burgers(0.0)
        disc = Discretization(n_points=48, dt=kw.pop("dt", 0.5), q_stages=1)
        net = NetworkConfig(outputs=2, seed=kw.pop("seed", 0))
        training = TrainingConfig(max_iterations=kw.pop("max_iterations", 150), **kw)
        return pde, disc, net, training

    def test_single_step_when_dt_equals_t_final(self):
        pde, disc, net, training = self.tiny_setup()
        res = march(pde, disc, net, training, t_final=0.5, ref_n_cells=64)
        assert len(res.fields) == 2
        assert len(res.diagnostics) == 1

    def test_divisibility_required(self):
        pde, disc, net, training = self.tiny_setup(dt=0.3)
        with pytest.raises(ValueError):
            march(pde, disc, net, training, t_final=0.5)

    def test_eval_times_must_hit_steps(self):
        pde, disc, net, training = self.tiny_setup()
        with pytest.raises(ValueError):
            march(pde, disc, net, training, t_final=0.5, eval_times=(0.27,))

    def test_deterministic_trajectories(self):
        runs = []
        for _ in range(2):
            pde, disc, net, training = self.tiny_setup()
            res = march(pde, disc, net, training, t_final=0.5, ref_n_cells=64)
            runs.append(res.fields[-1].values)
        assert np.array_equal(runs[0], runs[1])

    def test_seed_changes_trajectory(self):
        pde, disc, net, training = self.tiny_setup()
        a = march(pde, disc, net, training, t_final=0.5, ref_n_cells=64)
        pde, disc, net, training = self.tiny_setup(seed=1)
        b = march(pde, disc, net, training, t_final=0.5, ref_n_cells=64)
        assert not np.array_equal(a.fields[-1].values, b.fields[-1].values)

    def test_cold_start_mode_runs(self):
        pde, disc, net, training = self.tiny_setup(dt=0.25, warm_start=False)
        res = march(pde, disc, net, training, t_final=0.5, ref_n_cells=64)
        assert len(res.diagnostics) == 2

    def test_errors_reported_at_eval_times(self):
        pde, disc, net, training = self.tiny_setup(dt=0.25)
        res = march(
            pde, disc, net, training, t_final=0.5, eval_times=(0.25, 0.5), ref_n_cells=64
        )
        assert set(res.errors) == {0.25, 0.5}
        assert all(np.isfinite(v) for v in res.errors.values())


class TestAdam:
    def test_quadratic_descent(self):
        w = Value(np.array([3.0, -2.0]))
        loss = ad.summation(w * w)
        graph = Graph(loss)
        adam = Adam([w], lr=0.05)
        for _ in range(2000):
            graph.backward()
            adam.step()
            graph.refresh()
        assert float(loss.data) < 1e-8

    def test_deterministic(self):
        def descend():
            w = Value(np.array([1.0, 2.0, 3.0]))
            loss = ad.summation((w - 0.5) ** 2)
            graph = Graph(loss)
            adam = Adam([w], lr=1e-2)
            for _ in range(100):
                graph.backward()
                adam.step()
                graph.refresh()
            return w.data

        assert np.array_equal(descend(), descend())

    def test_flat_update_matches_per_leaf_adam_bit_for_bit(self):
        rng = np.random.default_rng(3)
        shapes = [(4, 1), (4, 1), (3, 4), (3, 1), ()]
        leaves = [Value(rng.standard_normal(s)) for s in shapes]
        ref = [leaf.data.copy() for leaf in leaves]
        adam = Adam(leaves, lr=1e-3)
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        for t in range(1, 30):
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-9, 2) for s in shapes]
            grads[1] = 0.0  # a leaf the loss does not reach keeps the scalar 0.0
            for leaf, g in zip(leaves, grads):
                leaf.grad = g
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
            assert np.shares_memory(leaf.data, adam.params)
