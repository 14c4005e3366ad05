from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hpinn import weno
from hpinn.refsolver import _ghosts
from hpinn.weno import (
    DELTA,
    EPS,
    GHOST,
    LINEAR_WEIGHTS,
    MASK_DILATION,
    POWER,
    THRESHOLD,
    DiscontinuityMask,
    GridField,
    SparseWenoZ,
    _Buffer,
    _wenoz,
    _wenoz_vjp,
    beta3,
    dilate_mask,
    discontinuity_flags,
    split_flux,
    weno_derivative,
)
import weno_oracle as oracle
from weno_oracle import (
    candidate_fluxes,
    masks,
    reconstruct_interface_flux,
    smoothness_indicators,
    weno_flux_divergence,
    wenoz_weights,
)

SHOCK_REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "data" / "shock_reference.npz"

BURGERS_FLUX = lambda u: 0.5 * u * u


def grid(values, x0=-1.0, dx=0.01):
    return GridField(np.asarray(values, dtype=float), x0, dx)


class TestStencilKernels:
    def test_candidates_constant(self):
        assert candidate_fluxes((3.0,) * 5) == pytest.approx((3.0, 3.0, 3.0))

    def test_candidates_linear(self):
        assert candidate_fluxes((-2.0, -1.0, 0.0, 1.0, 2.0)) == pytest.approx((0.5, 0.5, 0.5))

    def test_candidates_step(self):
        assert candidate_fluxes((0.0, 0.0, 0.0, 1.0, 1.0)) == pytest.approx((0.0, 2 / 6, 4 / 6))

    def test_betas_constant(self):
        assert smoothness_indicators((7.0,) * 5) == pytest.approx((0.0, 0.0, 0.0))

    def test_betas_linear_slope(self):
        b = 2.0
        stencil = tuple(1.0 + b * j for j in range(-2, 3))
        assert smoothness_indicators(stencil) == pytest.approx((b * b,) * 3)

    def test_beta2_step_hand_value(self):
        betas = smoothness_indicators((0.0, 0.0, 0.0, 1.0, 1.0))
        assert betas[2] == pytest.approx(13 / 12 + 9 / 4)

    def test_betas_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert min(smoothness_indicators(tuple(rng.normal(size=5)))) >= 0.0

    def test_weights_zero_betas_are_optimal(self):
        assert wenoz_weights((0.0, 0.0, 0.0)) == pytest.approx((0.1, 0.6, 0.3))

    def test_weights_equal_betas_are_optimal(self):
        b = 4.0
        assert wenoz_weights((b, b, b)) == pytest.approx((0.1, 0.6, 0.3))

    def test_weights_suppress_rough_substencil(self):
        w = wenoz_weights((100.0, 1e-6, 1e-6))
        assert w[0] < 1e-2

    def test_weights_normalized_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            w = wenoz_weights(tuple(rng.uniform(0, 10, size=3)))
            assert abs(sum(w) - 1.0) < 1e-15
            assert min(w) >= 0.0

    def test_reconstruct_constant(self):
        assert reconstruct_interface_flux((5.0,) * 5) == pytest.approx(5.0)

    def test_reconstruct_linear(self):
        assert reconstruct_interface_flux((-2.0, -1.0, 0.0, 1.0, 2.0)) == pytest.approx(0.5)

    def test_reconstruct_step_sticks_to_smooth_side(self):
        assert abs(reconstruct_interface_flux((0.0, 0.0, 0.0, 1.0, 1.0))) < 1e-3

    def test_beta3_values(self):
        assert beta3((0.0, 0.0, 0.0)) == 0.0
        assert beta3((3.0, 3.0, 3.0)) == pytest.approx(0.0)
        assert beta3((0.0, 1.0, 0.0)) == pytest.approx(61 / 3)


def stencils(max_interfaces=6, scales=st.integers(-8, 8).map(lambda e: 10.0 ** e)):
    """A (5, M) stencil array over M <= `max_interfaces` interfaces.

    Each interface's stencil is random, constant (all beta zero), linear
    (equal beta) or a jump (widely spread beta), times a scale drawn from
    `scales` (by default 1e-8 to 1e8).
    """
    values = st.floats(-1.0, 1.0)
    random = arrays(np.float64, 5, elements=values)
    constant = values.map(lambda a: np.full(5, a))
    linear = st.tuples(values, values).map(lambda ab: ab[0] + ab[1] * np.arange(-2.0, 3.0))
    jump = st.tuples(values, values, st.integers(1, 4)).map(
        lambda t: np.where(np.arange(5) < t[2], t[0], t[1]))
    column = st.tuples(st.one_of(random, constant, linear, jump), scales).map(
        lambda c: c[0] * c[1])
    return st.lists(column, min_size=1, max_size=max_interfaces).map(
        lambda cols: np.stack(cols, axis=1))


# 0 and every power of ten from 1e-150 to 1e150
all_scales = st.one_of(st.just(0.0), st.integers(-150, 150).map(lambda e: 10.0 ** e))


class TestWenoZKernel:
    """The package's one WENO-Z kernel against the dense reference in `weno_oracle`."""

    @settings(max_examples=200, deadline=None)
    @given(s=stencils())
    def test_flux_and_weights_match_oracle_bit_for_bit(self, s):
        fhat, _, w, *_ = _wenoz(s)
        assert np.array_equal(fhat, reconstruct_interface_flux(s))
        for got, want in zip(w, wenoz_weights(smoothness_indicators(s))):
            assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(s=stencils(scales=all_scales))
    def test_no_divisor_can_vanish(self, s):
        # why the kernel needs no divisor guard: each beta_k is a sum of
        # squares, so beta_k + EPS >= EPS, and each alpha_k >= d_k, so the
        # alpha sum is at least 1.  Above a scale of ~1e57 a jump's
        # (tau5 / (beta_k + EPS))**2 overflows to inf: an overflow, not a
        # vanishing divisor.
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, _, asum, dens, *_ = _wenoz(s)
        for den in dens:
            assert np.all(den >= EPS)
        assert np.all(asum >= 1.0)

    @settings(max_examples=300, deadline=None)
    @given(s=st.one_of(stencils(), stencils(scales=all_scales)),
           seed=st.integers(0, 2**32 - 1))
    def test_flux_and_gradient_match_tuple_kernel_bit_for_bit(self, s, seed):
        # every scale, the overflowing ones too: both kernels then give the
        # same NaNs
        g = np.random.default_rng(seed).normal(size=s.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            tape, want = _wenoz(s), oracle._wenoz(tuple(s))
            grad, want_grad = _wenoz_vjp(g, tape), np.stack(oracle._wenoz_vjp(g, want))
        assert np.array_equal(tape[0], want[0], equal_nan=True)
        assert grad.shape == s.shape
        assert np.array_equal(grad, want_grad, equal_nan=True)


class TestNoArgumentIsWritten:
    """The kernels work in place on their own temporaries only."""

    @settings(max_examples=100, deadline=None)
    @given(s=stencils(), seed=st.integers(0, 2**32 - 1))
    def test_kernel_and_vjp(self, s, seed):
        g = np.random.default_rng(seed).normal(size=s.shape[1])
        stencil, cotangent = s.copy(), g.copy()
        tape = _wenoz(s)
        assert np.array_equal(s, stencil)
        taped = [a.copy() for a in tape]
        _wenoz_vjp(g, tape)
        assert np.array_equal(g, cotangent)
        for got, want in zip(tape, taped):
            assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flags=masks(32).filter(np.any))
    def test_sparse_operator(self, seed, flags):
        # the speed lambda returns its argument, a view of the taped cells
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.5, 1.5, size=(2, 32))
        cotangent = rng.normal(size=(2, int(flags.sum())))
        field, cot = u.copy(), cotangent.copy()
        op = SparseWenoZ(flags, BURGERS_FLUX, lambda v: v, 2.5, 0.05)
        op(u)
        grads = [op.vjp(cotangent) for _ in range(2)]
        assert np.array_equal(u, field) and np.array_equal(cotangent, cot)
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("flux", [BURGERS_FLUX, lambda v: v])
    def test_weno_derivative(self, flux):
        u_ext = np.random.default_rng(0).uniform(-1.0, 1.0, size=40 + 2 * GHOST)
        before = u_ext.copy()
        weno_derivative(u_ext, flux, 1.1, 0.05)
        assert np.array_equal(u_ext, before)


class TestFluxSplit:
    def test_burgers_constant_one(self):
        fplus, fminus = split_flux(np.ones(10), BURGERS_FLUX, 1.0)
        assert fplus == pytest.approx(np.full(10, 0.75))
        assert fminus == pytest.approx(np.full(10, -0.25))

    def test_zero_field(self):
        fplus, fminus = split_flux(np.zeros(10), BURGERS_FLUX, 0.0)
        assert not fplus.any()
        assert not fminus.any()

    def test_split_identity_random(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-2, 2, size=40)
        fplus, fminus = split_flux(vals, BURGERS_FLUX, 2.5)
        assert np.max(np.abs(fplus + fminus - BURGERS_FLUX(vals))) < 1e-14


def pad_linear(v):
    """Continue the field linearly; keeps exactly-linear data exactly linear."""
    left = v[0] - (v[1] - v[0]) * np.arange(GHOST, 0, -1)
    right = v[-1] + (v[-1] - v[-2]) * np.arange(1, GHOST + 1)
    return np.concatenate([left, v, right])


def pad_constant(value):
    return lambda v: np.pad(v, GHOST, constant_values=value)


# the four ghost rules: constant, periodic, the solver's odd reflection, linear
ghost_rules = st.one_of(
    st.floats(-1.0, 1.0).map(pad_constant),
    st.just(lambda v: np.pad(v, GHOST, mode="wrap")),
    st.just(_ghosts),
    st.just(pad_linear))


class TestWenoDerivative:
    def test_constant_field(self):
        d = weno_derivative(pad_constant(1.3)(np.full(32, 1.3)), lambda q: q, 1.0, 0.01)
        assert d.shape == (32,)
        assert np.max(np.abs(d)) < 1e-14

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_linear_data_exact(self, lam):
        # lam = 2 forces a nonzero negative branch, covering the mirrored stencils
        x = np.linspace(-1, 1, 41)
        d = weno_derivative(pad_linear(x), lambda q: q, lam, x[1] - x[0])
        assert np.max(np.abs(d - 1.0)) < 1e-12

    def test_interior_exactness_with_constant_ghosts(self):
        x = np.linspace(-1, 1, 41)
        d = weno_derivative(pad_constant(0.0)(x), lambda q: q, 1.0, x[1] - x[0])
        assert np.max(np.abs(d[3:-3] - 1.0)) < 1e-12

    def test_sin_convergence_order(self):
        errs = []
        for n in (64, 128, 256):
            x = np.linspace(-1, 1, n)
            d = weno_derivative(pad_constant(0.0)(np.sin(2 * np.pi * x)), lambda q: q, 1.0,
                                x[1] - x[0])
            exact = 2 * np.pi * np.cos(2 * np.pi * x)
            errs.append(np.max(np.abs(d - exact)[4:-4]))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 4.5

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            GridField(np.zeros(5), 0.0, 0.1)

    @pytest.mark.parametrize("values,dx,message", [
        (np.zeros((2, 8)), 0.1, "must be one-dimensional"),
        (np.zeros(8), 0.0, "spacing must be positive"),
        (np.zeros(8), -0.1, "spacing must be positive"),
        (np.array([0.0] * 7 + [np.nan]), 0.1, "must be finite"),
        (np.array([0.0] * 7 + [np.inf]), 0.1, "must be finite"),
        (np.zeros(8), float("nan"), "spacing must be positive and finite"),
        (np.zeros(8), float("inf"), "spacing must be positive and finite"),
    ])
    def test_grid_field_rejects(self, values, dx, message):
        with pytest.raises(ValueError, match=message):
            GridField(values, 0.0, dx)

    @pytest.mark.parametrize("x0", [float("nan"), float("inf"), -float("inf")])
    def test_grid_field_rejects_a_non_finite_origin(self, x0):
        with pytest.raises(ValueError, match="origin must be finite"):
            GridField(np.zeros(8), x0, 0.1)

    SHARED = _Buffer()  # every example's sizes pass through this one buffer

    @settings(max_examples=150, deadline=None)
    @given(values=st.integers(7, 64).flatmap(
               lambda n: arrays(np.float64, n, elements=st.floats(-2.0, 2.0))),
           lam=st.floats(0.5, 3.0), pad=ghost_rules, reuse=st.booleans())
    def test_matches_oracle_bit_for_bit(self, values, lam, pad, reuse):
        # lam >= 0.5 leaves f- = (u^2/2 - lam u)/2 nonzero almost everywhere;
        # a reused buffer holds the arrays of earlier calls, of any size
        fp, fm = split_flux(pad(values), BURGERS_FLUX, lam)
        want = weno_flux_divergence(fp, fm, len(values), 0.01)
        buf = self.SHARED if reuse else None
        assert np.array_equal(weno_derivative(pad(values), BURGERS_FLUX, lam, 0.01, buf), want)


class TestSparseWenoZ:
    N, LAM, DX = 32, 2.5, 0.05

    def op(self, flags):
        return SparseWenoZ(flags, BURGERS_FLUX, lambda u: u, self.LAM, self.DX)

    @settings(max_examples=60, deadline=None)
    @given(u=arrays(np.float64, (3, N), elements=st.floats(-2.0, 2.0)),
           flags=masks(N).filter(np.any))
    def test_matches_dense_operator_bit_for_bit(self, u, flags):
        ue = np.pad(u, ((0, 0), (3, 3)))
        fp, fm = split_flux(ue, BURGERS_FLUX, self.LAM)
        dense = weno_flux_divergence(fp, fm, self.N, self.DX)
        got = self.op(flags)(u)
        assert np.array_equal(got, dense[:, flags == 1])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flags=masks(N).filter(np.any))
    # the operator is strongly curved here: a two-point difference at h=1e-6
    # misses the VJP by 8.5e-6 relative, the five-point one by 1.0e-7
    @example(seed=33751, flags=np.array([0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1,
                                         1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1]))
    def test_vjp_matches_central_differences(self, seed, flags):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.5, 1.5, size=(2, self.N))
        direction = rng.normal(size=u.shape)
        cotangent = rng.normal(size=(2, int(flags.sum())))
        op = self.op(flags)
        op(u)
        grad = op.vjp(cotangent)

        def along(step):
            return np.sum(cotangent * op(u + step * direction))

        # fourth-order central difference
        h = 1e-5
        fd = (-along(2 * h) + 8 * along(h) - 8 * along(-h) + along(-2 * h)) / (12 * h)
        assert np.sum(grad * direction) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.sampled_from([1, 2, 11, 51]), flags=masks(N),
           walls=st.tuples(st.integers(0, 2), st.integers(N - 3, N - 1)),
           seed=st.integers(0, 2**32 - 1))
    def test_value_and_vjp_match_tuple_branch_bit_for_bit(self, rows, flags, walls, seed):
        # a point within 3 cells of a wall reads its ghost cells: flag one at each wall
        flags = flags.copy()
        flags[list(walls)] = 1
        rng = np.random.default_rng(seed)
        u = rng.uniform(-2.0, 2.0, size=(rows, self.N))
        cotangent = rng.normal(size=(rows, int(flags.sum())))
        op = self.op(flags)
        want = oracle.SparseWenoZ(flags, BURGERS_FLUX, lambda u: u, self.LAM, self.DX)
        assert np.array_equal(op(u), want(u))
        assert np.array_equal(op.vjp(cotangent), want.vjp(cotangent))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flags=masks(N).filter(np.any))
    def test_vjp_differentiates_the_last_call(self, seed, flags):
        # the tape lives in the instance's buffer: the second call overwrites it
        rng = np.random.default_rng(seed)
        u1, u2 = rng.uniform(-2.0, 2.0, size=(2, 3, self.N))
        cotangent = rng.normal(size=(3, int(flags.sum())))
        op, fresh = self.op(flags), self.op(flags)
        op(u1)
        value, want = op(u2), fresh(u2)
        assert value.tobytes() == want.tobytes()
        assert op.vjp(cotangent).tobytes() == fresh.vjp(cotangent).tobytes()

    def test_cells_between_runs_put_no_nan_in_the_gradient(self):
        # the flux of 1e60 overflows the kernel, but no flagged stencil reads
        # cells 18-25: points 5 and 34 read cells 2-8 and 31-37
        flags = np.zeros(40, dtype=np.int64)
        flags[[5, 34]] = 1
        u = np.zeros(40)
        u[18:26] = 1e60
        op = SparseWenoZ(flags, BURGERS_FLUX, lambda v: v, 1.0, 0.05)
        assert op(u).tolist() == [0.0, 0.0]
        grad = op.vjp(np.ones(2))
        assert np.all(np.isfinite(grad))
        read = np.zeros(40, dtype=bool)
        read[2:9] = read[31:38] = True
        assert np.all(grad[~read] == 0.0)
        # the cells between the stencils change nothing that is read
        zeros = SparseWenoZ(flags, BURGERS_FLUX, lambda v: v, 1.0, 0.05)
        zeros(np.zeros(40))
        assert grad.tobytes() == zeros.vjp(np.ones(2)).tobytes()

    def test_one_kernel_buffer_per_instance(self, monkeypatch):
        made, init = [], _Buffer.__init__

        def counted(buf):
            made.append(buf)
            init(buf)

        monkeypatch.setattr(weno._Buffer, "__init__", counted)
        op = self.op(np.arange(self.N) % 7 == 3)
        u = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, self.N))
        for _ in range(4):
            op(u)
            op.vjp(np.ones((2, op.points.size)))
        assert len(made) == 1


class TestIndicator:
    def setup_method(self):
        self.n = 300
        self.x = np.linspace(-1, 1, self.n)
        self.dx = self.x[1] - self.x[0]

    def field(self, values):
        return GridField(values, -1.0, self.dx)

    def test_constant_no_flags(self):
        mask = discontinuity_flags(self.field(np.full(self.n, 2.0)))
        assert mask.count() == 0

    def test_smooth_sine_no_flags(self):
        mask = discontinuity_flags(self.field(np.sin(np.pi * self.x)))
        assert mask.count() == 0

    def test_unit_step_flags_confined_to_jump(self):
        step = np.where(self.x < 0, 0.0, 1.0)
        mask = discontinuity_flags(self.field(step))
        idx = np.nonzero(mask.flags)[0]
        jump_left = int(np.argmax(step > 0)) - 1
        assert mask.count() > 0
        assert idx.min() >= jump_left - 3
        assert idx.max() <= jump_left + 3
        # far field untouched
        assert not mask.flags[: jump_left - 5].any()
        assert not mask.flags[jump_left + 6 :].any()

    def test_mirror_symmetry_up_to_lookahead_shift(self):
        # beta3 looks three cells downstream, so the flag window of the
        # mirrored field is the mirrored window shifted by one cell
        step = np.where(self.x < 0.24, 0.0, 1.0)
        fwd = np.nonzero(discontinuity_flags(self.field(step)).flags)[0]
        rev = np.nonzero(discontinuity_flags(self.field(step[::-1])).flags)[0]
        mirrored = np.sort(self.n - 1 - rev)
        assert np.array_equal(mirrored, fwd + 1)

    def test_entries_binary(self):
        step = np.where(self.x < 0, -1.0, 1.0)
        mask = discontinuity_flags(self.field(step))
        assert set(np.unique(mask.flags)) <= {0, 1}

    def test_benchmark_inputs_flag_as_the_tuple_formulas_do(self):
        # all 22 snapshots of the frozen benchmark inputs, inviscid and viscous
        data = np.load(SHOCK_REFERENCE)
        snapshots = np.concatenate((data["inviscid"], data["viscous"]))
        assert len(snapshots) == 22
        for values in snapshots:
            got = discontinuity_flags(GridField(values, float(data["x0"]), float(data["dx"])))
            assert np.array_equal(got.flags, oracle.indicator_flags(values))

    def test_needs_eight_points(self):
        with pytest.raises(ValueError):
            discontinuity_flags(GridField(np.zeros(7), 0.0, 0.1))

    def test_mask_validation(self):
        for flags in [
            [0, 1, 2],
            [0.5, 1.0, 0.0],  # an int64 cast first would read [0, 1, 0]
            [1.9, 0.0],  # ... [1, 0]
            [-0.5, 0.0],  # ... [0, 0]
            [np.nan, 0.0],
        ]:
            with pytest.raises(ValueError, match="must be 0 or 1"):
                DiscontinuityMask(np.array(flags))

    @pytest.mark.parametrize("flags", [
        np.array([False, True, False]),
        np.array([0.0, 1.0, 0.0]),
        np.array([0, 1, 0]),
    ])
    def test_mask_accepts_zeros_and_ones(self, flags):
        mask = DiscontinuityMask(flags)
        assert mask.flags.dtype == np.int64
        assert np.array_equal(mask.flags, [0, 1, 0])

    def test_dilation(self):
        mask = DiscontinuityMask(np.array([0, 0, 0, 0, 1, 0, 0, 0, 0]))
        grown = dilate_mask(mask, 2)
        assert np.array_equal(grown.flags, [0, 0, 1, 1, 1, 1, 1, 0, 0])
        assert dilate_mask(mask, 0).count() == 1

    @settings(max_examples=200, deadline=None)
    @given(flags=st.integers(1, 40).flatmap(
               lambda n: arrays(np.int64, n, elements=st.integers(0, 1))),
           radius=st.integers(0, 50))
    @example(flags=np.array([0] * 5 + [1] + [0] * 6), radius=8)  # 17 cells on a 12-point grid
    def test_dilation_flags_every_point_within_radius(self, flags, radius):
        flagged = np.flatnonzero(flags)
        distance = np.abs(np.arange(len(flags))[:, None] - flagged[None, :])
        want = (distance <= radius).any(axis=1)
        assert np.array_equal(dilate_mask(DiscontinuityMask(flags), radius).flags, want)


def test_constants_defaults_pinned():
    assert LINEAR_WEIGHTS == (0.1, 0.6, 0.3)
    assert EPS == 1e-40
    assert DELTA == 1e-4
    assert POWER == 6
    assert THRESHOLD == 5e-4
    assert MASK_DILATION == 3


fields = st.integers(8, 64).flatmap(
    lambda n: arrays(np.float64, n, elements=st.floats(-100.0, 100.0)))


class TestIndicatorProperties:
    @settings(max_examples=200, deadline=None)
    @given(values=fields)
    def test_sign_flip_flags_the_same_points(self, values):
        # every indicator is a quadratic form in differences of the field
        mask = discontinuity_flags(grid(values)).flags
        assert np.array_equal(discontinuity_flags(grid(-values)).flags, mask)

    @settings(max_examples=200, deadline=None)
    @given(values=fields)
    def test_points_without_a_full_stencil_stay_smooth(self, values):
        mask = discontinuity_flags(grid(values)).flags
        assert set(np.unique(mask)) <= {0, 1}
        assert not mask[:2].any() and not mask[-3:].any()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(8, 64), level=st.floats(-1e6, 1e6))
    def test_constant_fields_are_never_flagged(self, n, level):
        assert discontinuity_flags(grid(np.full(n, level))).count() == 0
