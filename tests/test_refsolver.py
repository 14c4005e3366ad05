from pathlib import Path

import numpy as np
import pytest

from hpinn.pde import PdeSpec, burgers
from hpinn.refsolver import (
    SolverConfig,
    relative_error,
    rhs,
    rk3_combine,
    solve,
    stable_dt,
    tvd_rk3_step,
)
from hpinn.weno import GhostExtension, GridField

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


def linear_advection(initial=None):
    return PdeSpec(
        flux=lambda u: u,
        dflux=lambda u: np.ones_like(u) if isinstance(u, np.ndarray) else 1.0,
        viscosity=0.0,
        domain=(-1.0, 1.0),
        initial=initial,
    )


class TestRhs:
    def test_zero_field_zero_rhs(self):
        pde = burgers(0.0)
        u = GridField(np.zeros(32), -1.0, 2 / 31)
        out = rhs(u, pde, GhostExtension("constant", 0.0))
        assert not out.values.any()

    def test_linear_advection_of_linear_data(self):
        pde = linear_advection()
        x = np.linspace(-1, 1, 41)
        u = GridField(x.copy(), -1.0, x[1] - x[0])
        out = rhs(u, pde, GhostExtension("periodic"))
        assert np.max(np.abs(out.values[3:-3] + 1.0)) < 1e-12

    def test_viscous_term_second_order(self):
        errs = []
        for n in (64, 128):
            x = np.linspace(-1, 1, n)
            pde = PdeSpec(
                flux=lambda u: np.zeros_like(u),
                dflux=lambda u: np.zeros_like(u),
                viscosity=0.5,
                domain=(-1.0, 1.0),
            )
            u = GridField(np.sin(np.pi * x), -1.0, x[1] - x[0])
            out = rhs(u, pde, GhostExtension("reflect_odd", 0.0))
            exact = -0.5 * np.pi**2 * np.sin(np.pi * x)
            errs.append(np.max(np.abs(out.values - exact)))
        assert errs[0] / errs[1] > 3.0  # O(dx^2)


class TestRk3:
    def test_zero_rhs_is_identity(self):
        u = GridField(np.linspace(0, 1, 16), 0.0, 1 / 15)
        out = rk3_combine(u, 0.25, lambda f: GridField(np.zeros(16), 0.0, 1 / 15))
        assert np.max(np.abs(out.values - u.values)) < 1e-15

    def test_linear_sink_matches_rk3_taylor(self):
        # u' = -u for one step dt = 0.1: classical third-order Taylor value
        u = GridField(np.ones(16), 0.0, 1 / 15)
        dt = 0.1
        out = rk3_combine(u, dt, lambda f: GridField(-f.values, f.x0, f.dx))
        expected = 1.0 - dt + dt**2 / 2 - dt**3 / 6
        assert np.max(np.abs(out.values - expected)) < 1e-14

    def test_cfl_violation_rejected(self):
        pde = burgers(0.0)
        x = np.linspace(-1, 1, 101)
        u = GridField(-np.sin(np.pi * x), -1.0, x[1] - x[0])
        limit = stable_dt(u, pde, cfl=0.4)
        ext = GhostExtension("reflect_odd", 0.0)
        with pytest.raises(ValueError):
            tvd_rk3_step(u, 2 * limit, pde, ext, cfl=0.4)
        tvd_rk3_step(u, 0.5 * limit, pde, ext, cfl=0.4)  # comfortably stable

    def test_burgers_tv_never_grows_much(self):
        # WENO-Z is essentially (not strictly) non-oscillatory: per-step TV
        # fluctuates at truncation level near the captured shock
        pde = burgers(0.0)
        tvs = []
        solve(
            SolverConfig(pde=pde, n_cells=200, t_final=0.6, snapshot_times=(0.6,)),
            monitor=lambda t, f: tvs.append(f.total_variation()),
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

    def test_periodic_conservation(self):
        pde = burgers(0.0)
        config = SolverConfig(
            pde=pde, n_cells=128, t_final=0.8, snapshot_times=(0.8,), bc="periodic"
        )
        x, dx = config.grid()
        total0 = np.sum(pde.initial(x)) * dx
        _, fields = solve(config)
        total1 = np.sum(fields[0].values) * fields[0].dx
        assert abs(total1 - total0) < 1e-8

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
            monitor=lambda t, f: peak.append(np.max(np.abs(f.values))),
        )
        assert max(peak) <= 1.0 + 1e-6

    def test_spatial_convergence_order(self):
        # shrink cfl with the grid so the third-order time integrator does
        # not mask the fifth-order spatial error
        pde = burgers(0.0)
        errs = []
        for n, cfl in ((250, 0.4), (500, 0.2), (1000, 0.1)):
            _, fields = solve(
                SolverConfig(pde=pde, n_cells=n, cfl=cfl, t_final=0.2, snapshot_times=(0.2,))
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

    def test_snapshot_validation(self):
        pde = burgers(0.0)
        with pytest.raises(ValueError):
            solve(SolverConfig(pde=pde, n_cells=64, t_final=0.5, snapshot_times=(0.9,)))


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
        SolverConfig(pde=pde, cfl=0.0)
    with pytest.raises(ValueError):
        SolverConfig(pde=pde, t_final=-1.0)
