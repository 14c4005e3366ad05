import math
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline  # the spline's oracle; a test-only dependency

from hpinn import refsolver, weno
from hpinn.pde import PdeSpec, burgers
from hpinn.refsolver import (
    SolverConfig,
    _ghosts,
    _not_a_knot,
    reference_on_grid,
    relative_error,
    rhs,
    rk3_combine,
    solve,
    stable_dt,
    tvd_rk3_step,
)
from hpinn.weno import GridField
import exact_oracle as exact

# the shock workloads' frozen inputs (benchmarks/make_data.py)
SHOCK_REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "data" / "shock_reference.npz"


def characteristics_solution(x, t, newton_iters=60):
    """Pre-shock inviscid Burgers from u0 = -sin(pi x), pointwise Newton."""
    u = -np.sin(np.pi * x)
    for _ in range(newton_iters):
        g = u + np.sin(np.pi * (x - u * t))
        dg = 1.0 - np.pi * t * np.cos(np.pi * (x - u * t))
        u = u - g / dg
    return u


class LinearAdvection(PdeSpec):
    """u_t + u_x = nu u_xx: f(u) = u."""

    @staticmethod
    def flux(u):
        return u

    @staticmethod
    def dflux(u):
        return np.ones_like(u) if isinstance(u, np.ndarray) else 1.0

    @staticmethod
    def ddflux(u):
        return 0.0


class Diffusion(PdeSpec):
    """u_t = nu u_xx: f(u) = 0."""

    @staticmethod
    def flux(u):
        return np.zeros_like(u)

    @staticmethod
    def dflux(u):
        return np.zeros_like(u)

    @staticmethod
    def ddflux(u):
        return 0.0


class TestGhosts:
    def test_reflect_odd(self):
        out = _ghosts(np.array([0.0, 1.0, 2.0, 3.0]))
        assert np.array_equal(out, [-3, -2, -1, 0, 1, 2, 3, -2, -1, 0])

    def test_reflect_odd_about_value(self):
        # about the wall value 0 at each wall: the padded field is odd there
        u = np.concatenate([[0.0], np.random.default_rng(0).normal(size=6), [0.0]])
        out = _ghosts(u)
        left, right = 3, len(out) - 4  # the wall cells
        for k in range(1, 4):
            assert out[left - k] == -out[left + k]
            assert out[right + k] == -out[right - k]
        # written 0.0 - u: a zero cell's ghost is +0.0
        assert not np.signbit(_ghosts(np.zeros(8))).any()


class TestRhs:
    def test_zero_field_zero_rhs(self):
        out = rhs(np.zeros(32), 2 / 31, burgers(0.0))
        assert not out.any()

    def test_linear_advection_of_linear_data(self):
        pde = LinearAdvection()
        x = np.linspace(-1, 1, 41)
        out = rhs(x, x[1] - x[0], pde)
        assert np.max(np.abs(out[3:-3] + 1.0)) < 1e-12

    def test_viscous_term_second_order(self):
        errs = []
        for n in (64, 128):
            x = np.linspace(-1, 1, n)
            pde = Diffusion(viscosity=0.5)
            out = rhs(np.sin(np.pi * x), x[1] - x[0], pde)
            exact = -0.5 * np.pi**2 * np.sin(np.pi * x)
            errs.append(np.max(np.abs(out - exact)))
        assert errs[0] / errs[1] > 3.0  # O(dx^2)


class TestRk3:
    def test_zero_rhs_is_identity(self):
        u = np.linspace(0, 1, 16)
        out = rk3_combine(u, 0.25, lambda v: np.zeros(16))
        assert np.max(np.abs(out - u)) < 1e-15

    def test_linear_sink_matches_rk3_taylor(self):
        # u' = -u for one step dt = 0.1: classical third-order Taylor value
        dt = 0.1
        out = rk3_combine(np.ones(16), dt, lambda v: -v)
        expected = 1.0 - dt + dt**2 / 2 - dt**3 / 6
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_cfl_violation_rejected(self):
        pde = burgers(0.0)
        x = np.linspace(-1, 1, 101)
        u, dx = -np.sin(np.pi * x), x[1] - x[0]
        limit = stable_dt(u, dx, pde)
        with pytest.raises(ValueError):
            tvd_rk3_step(u, dx, 2 * limit, pde)
        tvd_rk3_step(u, dx, 0.5 * limit, pde)  # comfortably stable

    def test_burgers_tv_never_grows_much(self):
        # WENO-Z is essentially (not strictly) non-oscillatory: per-step TV
        # fluctuates at truncation level near the captured shock
        pde = burgers(0.0)
        tvs = []
        solve(
            SolverConfig(pde=pde, n_cells=200, t_final=0.6, snapshot_times=(0.6,)),
            monitor=lambda t, u: tvs.append(np.sum(np.abs(np.diff(u)))),
        )
        increases = np.diff(tvs)
        assert increases.max() < 5e-4
        assert tvs[-1] < tvs[0]  # net decay after shock formation


class TestSolve:
    def test_t_zero_returns_initial_condition(self):
        pde = burgers(0.0)
        times, fields = solve(
            SolverConfig(pde=pde, n_cells=64, t_final=0.0, snapshot_times=(0.0,))
        )
        assert times == [0.0]
        x = fields[0].x
        assert np.array_equal(fields[0].values, -np.sin(np.pi * x))

    def test_preshock_matches_characteristics(self):
        pde = burgers(0.0)
        _, fields = solve(
            SolverConfig(pde=pde, n_cells=250, t_final=0.2, snapshot_times=(0.2,))
        )
        u = fields[0]
        err = np.max(np.abs(u.values - characteristics_solution(u.x, 0.2)))
        assert err < 1e-3

    def test_odd_symmetry_preserved(self):
        pde = burgers(0.0)
        _, fields = solve(
            SolverConfig(pde=pde, n_cells=200, t_final=1.0, snapshot_times=(0.2, 1.0))
        )
        for f in fields:
            assert np.max(np.abs(f.values + f.values[::-1])) < 1e-10

    def test_dirichlet_integral_stays_zero(self):
        pde = burgers(0.0)
        _, fields = solve(
            SolverConfig(pde=pde, n_cells=200, t_final=1.0, snapshot_times=(1.0,))
        )
        f = fields[0]
        assert abs(np.sum(f.values) * f.dx) < 1e-8

    def test_shock_parks_at_origin(self):
        pde = burgers(0.0)
        _, fields = solve(
            SolverConfig(pde=pde, n_cells=500, t_final=1.0, snapshot_times=(1.0,))
        )
        u = fields[0]
        j = np.argmax(np.abs(np.diff(u.values)))
        x_mid = 0.5 * (u.x[j] + u.x[j + 1])
        assert abs(x_mid) <= u.dx

    def test_maximum_principle(self):
        pde = burgers(0.0)
        peak = []
        solve(
            SolverConfig(pde=pde, n_cells=1000, t_final=1.0, snapshot_times=(1.0,)),
            monitor=lambda t, u: peak.append(np.max(np.abs(u))),
        )
        assert max(peak) <= 1.0 + 1e-6

    def test_spatial_convergence_order(self, monkeypatch):
        # shrink the Courant number with the grid so the third-order time
        # integrator does not mask the fifth-order spatial error
        pde = burgers(0.0)
        errs = []
        for n, cfl in ((250, 0.4), (500, 0.2), (1000, 0.1)):
            monkeypatch.setattr(refsolver, "CFL", cfl)
            _, fields = solve(
                SolverConfig(pde=pde, n_cells=n, t_final=0.2, snapshot_times=(0.2,))
            )
            u = fields[0]
            errs.append(np.max(np.abs(u.values - characteristics_solution(u.x, 0.2))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 4.0

    @pytest.mark.parametrize("name,nu", [("inviscid", 0.0), ("viscous", 1e-4 / np.pi)])
    def test_reproduces_the_benchmark_inputs(self, name, nu):
        # the snapshots match to the bit here; 1e-12 leaves room for another
        # libm's sin in u(0, x) (one ulp there moves them by ~1e-14) and still
        # catches any change to the scheme
        with np.load(SHOCK_REFERENCE) as frozen:
            times, x0, dx, want = tuple(frozen["times"]), frozen["x0"], frozen["dx"], frozen[name]
        _, fields = solve(SolverConfig(pde=burgers(nu), n_cells=300, t_final=times[-1],
                                       snapshot_times=times))
        assert (fields[0].x0, fields[0].dx) == (x0, dx)
        assert np.max(np.abs(np.stack([f.values for f in fields]) - want)) <= 1e-12

    @pytest.mark.parametrize("snapshots", [(0.3,), (0.0, 0.1, 0.3), (0.05, 0.1, 0.2, 0.3)])
    def test_grid_fields_only_for_the_initial_data_and_snapshots(self, monkeypatch, snapshots):
        # the steps run on plain arrays: a GridField (and its checks) per
        # stage came to ~220 constructions here, ~10^4 in a 1000-cell solve
        built = []
        check = GridField.__post_init__
        monkeypatch.setattr(weno.GridField, "__post_init__",
                            lambda field: (built.append(1), check(field)))
        _, fields = solve(SolverConfig(pde=burgers(1e-2), n_cells=64, t_final=0.3,
                                       snapshot_times=snapshots))
        assert len(fields) == len(snapshots)
        assert len(built) <= len(snapshots) + 1

    def test_one_kernel_buffer_per_solve(self, monkeypatch):
        # every stage of every step writes into one set of WENO-Z arrays
        made, init = [], weno._Buffer.__init__

        def counted(buf):
            made.append(buf)
            init(buf)

        monkeypatch.setattr(weno._Buffer, "__init__", counted)
        steps = []
        solve(SolverConfig(pde=burgers(1e-2), n_cells=64, t_final=0.3, snapshot_times=(0.1, 0.3)),
              monitor=lambda t, u: steps.append(t))
        assert len(steps) > 10 and len(made) == 1

    @pytest.mark.parametrize("nu", [0.0, 1e-2])
    def test_consecutive_solves_agree_to_the_bit(self, nu):
        config = SolverConfig(pde=burgers(nu), n_cells=128, t_final=0.5, snapshot_times=(0.25, 0.5))
        first, second = solve(config), solve(config)
        assert first[0] == second[0]
        assert all(a.values.tobytes() == b.values.tobytes() for a, b in zip(first[1], second[1]))

    def test_snapshot_validation(self):
        pde = burgers(0.0)
        with pytest.raises(ValueError):
            solve(SolverConfig(pde=pde, n_cells=64, t_final=0.5, snapshot_times=(0.9,)))
        # a nan snapshot time once came back as the t = 0.5 field, labelled nan
        with pytest.raises(ValueError, match="snapshot times"):
            SolverConfig(pde=pde, n_cells=64, t_final=0.5, snapshot_times=(math.nan, 0.5))


class TestNotAKnot:
    @pytest.mark.parametrize("n", [7, 8, 9, 16, 300, 1000, 3000])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_matches_scipy_cubic_spline(self, n, scale):
        rng = np.random.default_rng(n)
        x0, dx = -1.0 + rng.uniform(-0.1, 0.1), rng.uniform(0.5, 2.0) / (n - 1)
        ref = GridField(scale * rng.standard_normal(n), x0, dx)
        knots = ref.x
        queries = np.concatenate([knots, [x0, knots[-1]],
                                  rng.uniform(x0, knots[-1], 4 * n)])
        want = CubicSpline(knots, ref.values)(queries)
        got = _not_a_knot(ref, queries)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(ref.values))

    def test_reproduces_a_cubic(self):
        # not-a-knot ends make the spline exact on any cubic, extrapolation too
        cubic = lambda x: 2.0 * x**3 - x**2 + 0.5 * x - 3.0
        ref = GridField(cubic(np.linspace(-1, 1, 9)), -1.0, 0.25)
        x = np.linspace(-1.2, 1.2, 97)
        assert np.max(np.abs(_not_a_knot(ref, x) - cubic(x))) < 1e-13


class TestRelativeError:
    def test_identical_fields(self):
        f = GridField(np.sin(np.linspace(0, 1, 50)) + 2, 0.0, 1 / 49)
        assert relative_error(f, f) == 0.0

    def test_homogeneity(self):
        vals = np.sin(np.linspace(0, 3, 80)) + 2
        a = GridField(1.01 * vals, 0.0, 3 / 79)
        b = GridField(vals, 0.0, 3 / 79)
        assert relative_error(a, b) == pytest.approx(0.01, abs=1e-12)

    def test_cross_grid_interpolation(self):
        xf = np.linspace(-1, 1, 1000)
        xc = np.linspace(-1, 1, 300)
        ref = GridField(np.sin(np.pi * xf), -1.0, xf[1] - xf[0])
        pred = GridField(np.sin(np.pi * xc), -1.0, xc[1] - xc[0])
        assert relative_error(pred, ref) < 1e-8

    def test_zero_reference_rejected(self):
        z = GridField(np.zeros(32), 0.0, 0.1)
        f = GridField(np.ones(32), 0.0, 0.1)
        with pytest.raises(ValueError):
            relative_error(f, z)


def test_solver_config_validation():
    pde = burgers(0.0)
    with pytest.raises(ValueError):
        SolverConfig(pde=pde, n_cells=8)
    with pytest.raises(ValueError):
        SolverConfig(pde=pde, t_final=-1.0)
    # an infinite t_final once marched forever, a nan one returned u(0, x)
    for t_final in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_final must be finite"):
            SolverConfig(pde=pde, n_cells=32, t_final=t_final)


# -- against the exact solutions ------------------------------------------------

PRESETS = {"inviscid": 0.0, "viscous": 1e-4 / np.pi}
# each bound is the error measured on x86-64 with numpy 2.4's libm, plus 25%:
# another libm moves the fields by ~1e-14 (test_reproduces_the_benchmark_inputs),
# far below these errors, while other linear weights (0.15, 0.55, 0.3) or a
# splitting speed 1.5 |u|max instead of 1.2 push some error past its bound
MARGIN = 1.25


@pytest.fixture(scope="module", params=sorted(PRESETS))
def preset(request):
    """A preset's 300-cell (t = 0.2 and 1) and 1000-cell (t = 1) solves, and
    the exact solution at their points: (name, fields, truths)."""
    nu = PRESETS[request.param]
    pde = burgers(nu)
    _, (smooth, coarse) = solve(SolverConfig(pde=pde, n_cells=300, snapshot_times=(0.2, 1.0)))
    _, (fine,) = solve(SolverConfig(pde=pde, n_cells=1000))
    fields = {"smooth": smooth, "coarse": coarse, "fine": fine}
    if nu == 0.0:
        truths = {"smooth": exact.inviscid(smooth.x, 0.2), "coarse": exact.inviscid(coarse.x, 1.0),
                  "fine": exact.inviscid(fine.x, 1.0)}
    else:  # the Cole-Hopf integrals at 1000 points would cost ~1 s: none there
        truths = {"smooth": exact.viscous(smooth.x, 0.2, nu), "coarse": exact.viscous(coarse.x, 1.0, nu)}
    return request.param, fields, truths


def relative_l1(got, want):
    return float(np.abs(got - want).sum() / np.abs(want).sum())


def relative_l2(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestAgainstExactSolution:
    def test_smooth_phase_in_l2(self, preset):
        # t = 0.2 comes before the shock (t = 1/pi) and the viscous layer
        name, fields, truths = preset
        measured = {"inviscid": 1.80e-7, "viscous": 1.72e-7}[name]
        assert relative_l2(fields["smooth"].values, truths["smooth"]) <= MARGIN * measured

    def test_shock_phase_in_l1(self, preset):
        # at t = 1 the grid captures the shock within a few cells, so the
        # pointwise error is O(1) there: L1 measures how few cells it smears
        name, fields, truths = preset
        measured = {"inviscid": 3.96e-3, "viscous": 4.02e-3}[name]
        assert relative_l1(fields["coarse"].values, truths["coarse"]) <= MARGIN * measured
        if "fine" in truths:
            assert relative_l1(fields["fine"].values, truths["fine"]) <= MARGIN * 1.19e-3

    def test_error_floor_in_l2(self, preset):
        # the exact-solution twin of test_error_floor_of_method_and_metric:
        # 300 cells smear the shock over a few cells, which costs more than
        # 2e-2 in L2 at t = 1, so the paper's <= 2e-2 bars on those points
        # stay out of reach whatever the reference
        name, fields, truths = preset
        measured = {"inviscid": 4.07e-2, "viscous": 4.12e-2}[name]
        assert 2e-2 < relative_l2(fields["coarse"].values, truths["coarse"]) <= MARGIN * measured

    def test_reference_at_the_training_points_in_l2(self, preset):
        # the errors this package reports put the 1000-cell solve onto the
        # 300 training points (cubic spline): that reference is a few 1e-3
        # from the truth there
        name, fields, truths = preset
        measured = {"inviscid": 1.89e-3, "viscous": 2.20e-3}[name]
        ref = reference_on_grid(fields["fine"], fields["coarse"])
        assert relative_l2(ref, truths["coarse"]) <= MARGIN * measured


class TestExactOracle:
    def test_inviscid_matches_characteristics_before_the_shock(self):
        x = np.linspace(-1.0, 1.0, 301)
        assert np.max(np.abs(exact.inviscid(x, 0.2) - characteristics_solution(x, 0.2))) < 1e-14

    def test_inviscid_shock_stands_at_the_origin(self):
        x = np.array([-1e-9, 0.0, 1e-9])
        u = exact.inviscid(x, 1.0)
        assert u[1] == 0.0 and u[0] == -u[2] > 0.5  # a jump of O(1) across x = 0

    def test_viscous_tends_to_inviscid_away_from_the_shock(self):
        x = np.linspace(-0.9, -0.1, 9)
        nu = 1e-4 / np.pi
        assert np.max(np.abs(exact.viscous(x, 1.0, nu) - exact.inviscid(x, 1.0))) < 1e-3
