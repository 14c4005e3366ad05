import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hpinn.autodiff import EvaluationError
from hpinn.weno import (
    DEFAULT_CONSTANTS,
    DiscontinuityMask,
    GhostExtension,
    GridField,
    SparseWenoZ,
    WenoConstants,
    _wenoz,
    beta3,
    candidate_fluxes,
    dilate_mask,
    discontinuity_flags,
    smoothness_indicators,
    split_flux,
    weno_derivative,
)
from weno_oracle import masks, reconstruct_interface_flux, weno_flux_divergence, wenoz_weights

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


def stencils(max_interfaces=6):
    """Five stencil rows over up to `max_interfaces` interfaces.

    Each interface's stencil is random, constant (all beta zero), linear
    (equal beta) or a jump (widely spread beta), at a scale from 1e-8 to 1e8.
    """
    values = st.floats(-1.0, 1.0)
    random = arrays(np.float64, 5, elements=values)
    constant = values.map(lambda a: np.full(5, a))
    linear = st.tuples(values, values).map(lambda ab: ab[0] + ab[1] * np.arange(-2.0, 3.0))
    jump = st.tuples(values, values, st.integers(1, 4)).map(
        lambda t: np.where(np.arange(5) < t[2], t[0], t[1]))
    column = st.tuples(st.one_of(random, constant, linear, jump), st.integers(-8, 8)).map(
        lambda c: c[0] * 10.0 ** c[1])
    return st.lists(column, min_size=1, max_size=max_interfaces).map(
        lambda cols: tuple(np.stack(cols, axis=1)))


class TestWenoZKernel:
    """The package's one WENO-Z kernel against the dense reference in `weno_oracle`."""

    @settings(max_examples=200, deadline=None)
    @given(s=stencils())
    def test_flux_and_weights_match_oracle_bit_for_bit(self, s):
        fhat, _, _, w, *_ = _wenoz(s, DEFAULT_CONSTANTS)
        assert np.array_equal(fhat, reconstruct_interface_flux(s))
        for got, want in zip(w, wenoz_weights(smoothness_indicators(s))):
            assert np.array_equal(got, want)


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


class LinearExtension:
    """Continue the field linearly; keeps exactly-linear data exactly linear."""

    def apply(self, v, width=3):
        d = v[1] - v[0]
        left = v[0] - d * np.arange(width, 0, -1)
        right = v[-1] + (v[-1] - v[-2]) * np.arange(1, width + 1)
        return np.concatenate([left, v, right])


class TestWenoDerivative:
    def test_constant_field(self):
        u = grid(np.full(32, 1.3))
        d = weno_derivative(u, lambda q: q, 1.0, GhostExtension("constant", 1.3))
        assert np.max(np.abs(d.values)) < 1e-14

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_linear_data_exact(self, lam):
        # lam = 2 forces a nonzero negative branch, covering the mirrored stencils
        n = 41
        x = np.linspace(-1, 1, n)
        u = GridField(x.copy(), -1.0, x[1] - x[0])
        d = weno_derivative(u, lambda q: q, lam, LinearExtension())
        assert np.max(np.abs(d.values - 1.0)) < 1e-12

    def test_interior_exactness_with_constant_ghosts(self):
        n = 41
        x = np.linspace(-1, 1, n)
        u = GridField(x.copy(), -1.0, x[1] - x[0])
        d = weno_derivative(u, lambda q: q, 1.0, GhostExtension("constant", 0.0))
        assert np.max(np.abs(d.values[3:-3] - 1.0)) < 1e-12

    def test_sin_convergence_order(self):
        errs = []
        for n in (64, 128, 256):
            x = np.linspace(-1, 1, n)
            u = GridField(np.sin(2 * np.pi * x), -1.0, x[1] - x[0])
            d = weno_derivative(u, lambda q: q, 1.0, GhostExtension("constant", 0.0))
            exact = 2 * np.pi * np.cos(2 * np.pi * x)
            errs.append(np.max(np.abs(d.values - exact)[4:-4]))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 4.5

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            GridField(np.zeros(5), 0.0, 0.1)

    @settings(max_examples=150, deadline=None)
    @given(values=st.integers(7, 64).flatmap(
               lambda n: arrays(np.float64, n, elements=st.floats(-2.0, 2.0))),
           lam=st.floats(0.5, 3.0),
           extension=st.one_of(
               st.builds(GhostExtension, st.sampled_from(["constant", "reflect_odd"]),
                         st.floats(-1.0, 1.0)),
               st.just(GhostExtension("periodic")),
               st.just(LinearExtension())))
    def test_matches_oracle_bit_for_bit(self, values, lam, extension):
        # lam >= 0.5 leaves f- = (u^2/2 - lam u)/2 nonzero almost everywhere
        u = grid(values)
        fp, fm = split_flux(extension.apply(values), BURGERS_FLUX, lam)
        want = weno_flux_divergence(fp, fm, len(values), u.dx)
        assert np.array_equal(weno_derivative(u, BURGERS_FLUX, lam, extension).values, want)


class TestSparseWenoZ:
    N, LAM, DX = 32, 2.5, 0.05

    def op(self, flags, boundary_value=0.0, consts=DEFAULT_CONSTANTS):
        return SparseWenoZ(flags, BURGERS_FLUX, lambda u: u, self.LAM, self.DX,
                           boundary_value, consts)

    @settings(max_examples=60, deadline=None)
    @given(u=arrays(np.float64, (3, N), elements=st.floats(-2.0, 2.0)), flags=masks(N),
           boundary_value=st.floats(-1.0, 1.0))
    def test_matches_dense_operator_bit_for_bit(self, u, flags, boundary_value):
        ue = np.pad(u, ((0, 0), (3, 3)), constant_values=boundary_value)
        fp, fm = split_flux(ue, BURGERS_FLUX, self.LAM)
        dense = weno_flux_divergence(fp, fm, self.N, self.DX)
        got = self.op(flags, boundary_value)(u)
        assert np.array_equal(got, dense[:, flags == 1])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flags=masks(N))
    # the operator is strongly curved here: a two-point difference at h=1e-6
    # misses the VJP by 8.5e-6 relative, the five-point one by 1.0e-7
    @example(seed=33751, flags=np.array([0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1,
                                         1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1]))
    def test_vjp_matches_central_differences(self, seed, flags):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.5, 1.5, size=(2, self.N))
        direction = rng.normal(size=u.shape)
        cotangent = rng.normal(size=(2, int(flags.sum())))
        op = self.op(flags, boundary_value=0.3)
        op(u)
        grad = op.vjp(cotangent)

        def along(step):
            return np.sum(cotangent * op(u + step * direction))

        # fourth-order central difference
        h = 1e-5
        fd = (-along(2 * h) + 8 * along(h) - 8 * along(-h) + along(-2 * h)) / (12 * h)
        assert np.sum(grad * direction) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_no_flagged_point(self):
        op = self.op(np.zeros(self.N, dtype=np.int64))
        u = np.ones((2, self.N))
        assert op(u).shape == (2, 0)
        assert np.array_equal(op.vjp(np.zeros((2, 0))), np.zeros((2, self.N)))

    def test_near_zero_divisor_raises_at_the_wall(self):
        # every interface is built, and the stencils at the wall read only
        # ghosts: beta_0 = 0 and beta_0 + eps underflows the guard
        op = self.op(np.ones(self.N, dtype=np.int64), consts=WenoConstants(eps=1e-320))
        with pytest.raises(EvaluationError, match="near-zero divisor"):
            op(np.linspace(-1.0, 1.0, self.N)[None, :])

    def test_divisor_guard_runs_on_every_call(self):
        flags = np.zeros(self.N, dtype=np.int64)
        flags[12:18] = 1
        op = self.op(flags, consts=WenoConstants(eps=1e-320))
        op(np.sin(np.linspace(-1.0, 1.0, self.N))[None, :])  # no vanishing beta
        with pytest.raises(EvaluationError, match="near-zero divisor"):
            op(np.zeros((1, self.N)))


class TestGhostExtension:
    def test_constant(self):
        out = GhostExtension("constant", 2.0).apply(np.array([1.0, 2.0, 3.0]), width=2)
        assert np.array_equal(out, [2, 2, 1, 2, 3, 2, 2])

    def test_periodic(self):
        out = GhostExtension("periodic").apply(np.arange(5.0), width=2)
        assert np.array_equal(out, [3, 4, 0, 1, 2, 3, 4, 0, 1])

    def test_reflect_odd(self):
        out = GhostExtension("reflect_odd", 0.0).apply(np.array([0.0, 1.0, 2.0, 3.0]), width=2)
        assert np.array_equal(out, [-2, -1, 0, 1, 2, 3, -2, -1])

    def test_reflect_odd_about_value(self):
        out = GhostExtension("reflect_odd", 1.0).apply(np.array([1.0, 2.0, 3.0]), width=1)
        assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0, 0.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GhostExtension("mirror").apply(np.zeros(8))


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

    def test_needs_eight_points(self):
        with pytest.raises(ValueError):
            discontinuity_flags(GridField(np.zeros(7), 0.0, 0.1))

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            DiscontinuityMask(np.array([0, 1, 2]))

    def test_dilation(self):
        mask = DiscontinuityMask(np.array([0, 0, 0, 0, 1, 0, 0, 0, 0]))
        grown = dilate_mask(mask, 2)
        assert np.array_equal(grown.flags, [0, 0, 1, 1, 1, 1, 1, 0, 0])
        assert dilate_mask(mask, 0).count() == 1


def test_constants_defaults_pinned():
    c = WenoConstants()
    assert c.eps == 1e-40
    assert c.d == (0.1, 0.6, 0.3)
    assert c.delta == 1e-4
    assert c.p == 6
    assert c.c_t == 5e-4
    assert DEFAULT_CONSTANTS == c


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
