"""Classical high-resolution reference solver: WENO-Z in space, third-order
TVD Runge-Kutta in time, explicit viscous term by central differences.

The convection term is `weno.weno_derivative`, which runs the same WENO-Z
kernel as the training loss's sparse branch, with the default constants and
its divisor guards, on every interface.  Generates the fine-grid solutions
the hybrid model is measured against and provides the global relative error
metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .pde import PdeSpec
from .weno import GhostExtension, GridField, weno_derivative

__all__ = [
    "SolverConfig",
    "rhs",
    "rk3_combine",
    "tvd_rk3_step",
    "stable_dt",
    "solve",
    "reference_on_grid",
    "relative_error",
]

# Inflating the splitting speed keeps |u| = lambda from creating a doubly
# degenerate critical point in the split fluxes (which would cost the
# reconstruction two orders of accuracy at solution extrema).
LAMBDA_SAFETY = 1.2


@dataclass(frozen=True)
class SolverConfig:
    pde: PdeSpec
    n_cells: int = 1000
    cfl: float = 0.4
    t_final: float = 1.0
    snapshot_times: tuple = ()
    bc: str = "dirichlet"  # "dirichlet" or "periodic"

    def __post_init__(self):
        if self.n_cells < 16:
            raise ValueError("need at least 16 cells")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.t_final < 0.0:
            raise ValueError("t_final must be nonnegative")

    def extension(self) -> GhostExtension:
        if self.bc == "periodic":
            return GhostExtension(kind="periodic")
        return GhostExtension(kind="reflect_odd", value=self.pde.boundary_value)

    def grid(self):
        x_left, x_right = self.pde.domain
        if self.bc == "periodic":
            dx = (x_right - x_left) / self.n_cells
            x = x_left + dx * np.arange(self.n_cells)
        else:
            dx = (x_right - x_left) / (self.n_cells - 1)
            x = x_left + dx * np.arange(self.n_cells)
        return x, dx


def rhs(u: GridField, pde: PdeSpec, extension: GhostExtension, t: float = 0.0) -> GridField:
    """-f(u)_x + nu*u_xx + h with WENO-Z convection and central diffusion."""
    lam = LAMBDA_SAFETY * pde.max_speed(u.values)
    out = -weno_derivative(u, pde.flux, lam, extension).values
    if pde.viscosity > 0.0:
        ue = extension.apply(u.values, width=1)
        out += pde.viscosity * (ue[2:] - 2.0 * ue[1:-1] + ue[:-2]) / (u.dx * u.dx)
    if pde.source is not None:
        out += pde.source(u.x, t)
    return GridField(out, u.x0, u.dx)


def rk3_combine(u: GridField, dt: float, rhs_fn) -> GridField:
    """Three-stage convex-combination update of Shu-Osher type."""
    u0 = u.values
    u1 = u0 + dt * rhs_fn(u).values
    f1 = GridField(u1, u.x0, u.dx)
    u2 = (3.0 * u0 + u1 + dt * rhs_fn(f1).values) / 4.0
    f2 = GridField(u2, u.x0, u.dx)
    u3 = (u0 + 2.0 * u2 + 2.0 * dt * rhs_fn(f2).values) / 3.0
    return GridField(u3, u.x0, u.dx)


def stable_dt(u: GridField, pde: PdeSpec, cfl: float) -> float:
    """Largest step satisfying the hyperbolic and explicit viscous bounds."""
    speed = pde.max_speed(u.values)
    dt = cfl * u.dx / max(speed, 1e-12)
    if pde.viscosity > 0.0:
        dt = min(dt, cfl * u.dx * u.dx / (2.0 * pde.viscosity))
    return dt


def tvd_rk3_step(u: GridField, dt: float, pde: PdeSpec, extension: GhostExtension,
                 cfl: float = 1.0, t: float = 0.0) -> GridField:
    """One TVD-RK3 step; refuses steps beyond the CFL/viscous bounds."""
    limit = stable_dt(u, pde, cfl)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:.6g} violates the stability bound {limit:.6g}")
    return rk3_combine(u, dt, lambda v: rhs(v, pde, extension, t=t))


def solve(config: SolverConfig, monitor=None):
    """March u(0,x) to t_final, landing exactly on every snapshot time.

    Returns (times, fields) for the requested snapshot_times (t_final is
    appended if no snapshots are given).  `monitor(t, field)` is called after
    every accepted step.  A step that overflows or turns invalid raises
    FloatingPointError naming the solver time it started from.
    """
    pde = config.pde
    if pde.initial is None:
        raise ValueError("solver needs an initial condition on the PdeSpec")
    x, dx = config.grid()
    u = GridField(pde.initial(x), float(x[0]), dx)
    extension = config.extension()

    wanted = sorted(set(float(t) for t in config.snapshot_times)) or [config.t_final]
    if any(t < 0.0 or t > config.t_final + 1e-12 for t in wanted):
        raise ValueError("snapshot times must lie in [0, t_final]")

    out_times, out_fields = [], []
    t = 0.0
    if wanted and abs(wanted[0]) < 1e-12:
        out_times.append(0.0)
        out_fields.append(GridField(u.values.copy(), u.x0, u.dx))
        wanted = wanted[1:]
    for target in wanted:
        while t < target - 1e-12:
            dt = min(stable_dt(u, pde, config.cfl), target - t)
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    u = tvd_rk3_step(u, dt, pde, extension, cfl=config.cfl, t=t)
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"reference solve went non-finite at t={t:.6g}: {err}") from err
            t += dt
            if monitor is not None:
                monitor(t, u)
        out_times.append(target)
        out_fields.append(GridField(u.values.copy(), u.x0, u.dx))
    return out_times, out_fields


def reference_on_grid(ref: GridField, pred: GridField) -> np.ndarray:
    """`ref` at pred's points: its own values on the same grid, else cubic."""
    if len(ref) == len(pred) and np.allclose(ref.x, pred.x, rtol=0, atol=1e-12):
        return ref.values
    return CubicSpline(ref.x, ref.values)(pred.x)


def relative_error(pred: GridField, ref: GridField) -> float:
    """||pred - ref||_2 / ||ref||_2 over pred's grid, ref interpolated (cubic)."""
    ref_on_pred = reference_on_grid(ref, pred)
    denom = float(np.linalg.norm(ref_on_pred))
    if denom == 0.0:
        raise ValueError("reference field has zero norm")
    return float(np.linalg.norm(pred.values - ref_on_pred) / denom)
