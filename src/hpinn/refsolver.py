"""Classical high-resolution reference solver: WENO-Z in space, third-order
TVD Runge-Kutta in time, explicit viscous term by central differences.

The convection term is `weno.weno_derivative`, which runs the same WENO-Z
kernel as the training loss's sparse branch, on every interface.  A solve
makes one kernel buffer (`weno._Buffer`) and passes it through every step and
stage, so the kernel's arrays are made once per solve.  The stepping
functions work on plain arrays of grid values plus the spacing `dx`;
the start is `PdeSpec.initial_field(n_cells)`, on the training's grid, and
both walls hold 0.  Generates the fine-grid solutions the hybrid model is
measured against and provides the global relative error metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pde import PdeSpec
from .weno import GHOST, GridField, _Buffer, weno_derivative

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
# Courant number of every step: the share of the hyperbolic and explicit
# viscous bounds a step may take.
CFL = 0.4
# Two times this close are one: a step boundary k * dt, a snapshot, a solve's stop.
TIME_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    pde: PdeSpec
    n_cells: int = 1000
    t_final: float = 1.0
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.n_cells < 16:
            raise ValueError("need at least 16 cells")
        # a non-finite time would march forever (inf) or label a field it
        # never reached (nan): every comparison with nan is false
        if not 0.0 <= self.t_final < math.inf:
            raise ValueError("t_final must be finite and nonnegative")
        if not all(0.0 <= t <= self.t_final + TIME_TOL for t in self.snapshot_times):
            raise ValueError("snapshot times must lie in [0, t_final]")


def _ghosts(u: np.ndarray) -> np.ndarray:
    """`u` with GHOST cells each side, mirrored oddly about the wall value 0.

    ghost = -interior is the exact continuation of a pinned Dirichlet wall;
    holding 0 itself would be only first-order there and let boundary error
    dominate fine-grid runs.  It is written 0.0 - interior, so a zero cell's
    ghost is +0.0, not -0.0.
    """
    left = 0.0 - u[GHOST:0:-1]
    right = 0.0 - u[-2 : -GHOST - 2 : -1]
    return np.concatenate([left, u, right])


def rhs(u: np.ndarray, dx: float, pde: PdeSpec, buf=None) -> np.ndarray:
    """-f(u)_x + nu*u_xx with WENO-Z convection and central diffusion.

    `buf` is the kernel buffer `weno_derivative` writes into.
    """
    ue = _ghosts(u)
    lam = LAMBDA_SAFETY * pde.max_speed(u)
    out = -weno_derivative(ue, pde.flux, lam, dx, buf)
    if pde.viscosity > 0.0:
        out += pde.viscosity * (ue[4:-2] - 2.0 * ue[3:-3] + ue[2:-4]) / (dx * dx)
    return out


def rk3_combine(u: np.ndarray, dt: float, rhs_fn) -> np.ndarray:
    """Three-stage convex-combination update of Shu-Osher type."""
    u1 = u + dt * rhs_fn(u)
    u2 = (3.0 * u + u1 + dt * rhs_fn(u1)) / 4.0
    return (u + 2.0 * u2 + 2.0 * dt * rhs_fn(u2)) / 3.0


def stable_dt(u: np.ndarray, dx: float, pde: PdeSpec) -> float:
    """Largest step within CFL times the hyperbolic and explicit viscous bounds."""
    speed = pde.max_speed(u)
    dt = CFL * dx / max(speed, 1e-12)
    if pde.viscosity > 0.0:
        dt = min(dt, CFL * dx * dx / (2.0 * pde.viscosity))
    return dt


def tvd_rk3_step(u: np.ndarray, dx: float, dt: float, pde: PdeSpec, buf=None) -> np.ndarray:
    """One TVD-RK3 step; refuses a step longer than `stable_dt`.

    Its three stages write their WENO-Z arrays into the kernel buffer `buf`.
    """
    limit = stable_dt(u, dx, pde)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:.6g} violates the stability bound {limit:.6g}")
    return rk3_combine(u, dt, lambda v: rhs(v, dx, pde, buf))


def solve(config: SolverConfig, monitor=None):
    """March `pde.initial_field(n_cells)` to t_final, landing on every snapshot time.

    Returns (times, fields): the snapshot_times sorted, each once ([t_final]
    if none are given), and u at each.  `monitor(t, u)` is called with the
    values after every accepted step.  A step that overflows or turns
    invalid raises FloatingPointError naming the solver time it started from.
    Every stage of every step writes its WENO-Z arrays into one buffer.
    """
    pde = config.pde
    start = pde.initial_field(config.n_cells)
    u, x0, dx = start.values, start.x0, start.dx
    wanted = sorted(set(float(t) for t in config.snapshot_times)) or [config.t_final]
    buf = _Buffer()
    out_fields = []
    t = 0.0
    for target in wanted:
        while t < target - TIME_TOL:
            dt = min(stable_dt(u, dx, pde), target - t)
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    u = tvd_rk3_step(u, dx, dt, pde, buf=buf)
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"reference solve went non-finite at t={t:.6g}: {err}") from err
            t += dt
            if monitor is not None:
                monitor(t, u)
        out_fields.append(GridField(u.copy(), x0, dx))
    return wanted, out_fields


def _not_a_knot(ref: GridField, x: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through `ref`'s values, evaluated at `x`.

    The knot slopes s_i solve the C2 rows
    h_i s_(i-1) + 2 (h_(i-1) + h_i) s_i + h_(i-1) s_(i+1) = 3 (h_i d_(i-1) + h_(i-1) d_i)
    (spacings h_i, secant slopes d_i), closed by one not-a-knot row per end,
    which makes the third derivative continuous at the second knot from that
    end.  The spacings are the float differences of `ref.x`, not `ref.dx`:
    rows and spacings are those of the usual `CubicSpline(x, y)`, so the two
    agree to round-off.  A Thomas sweep on plain floats solves the rows;
    beyond the end knots the end pieces extrapolate.
    """
    knots, y, n = ref.x, ref.values, len(ref)
    h = np.diff(knots)
    d = np.diff(y) / h
    e0, e1 = h[0] + h[1], h[-2] + h[-1]
    b = np.empty(n)
    b[0] = ((h[0] + 2.0 * e0) * h[1] * d[0] + h[0] ** 2 * d[1]) / e0
    b[1:-1] = 3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:])
    b[-1] = (h[-1] ** 2 * d[-2] + (2.0 * e1 + h[-1]) * h[-2] * d[-1]) / e1
    lower = np.append(h[1:], e1).tolist()  # rows 1..n-1
    diag = np.concatenate([h[1:2], 2.0 * (h[:-1] + h[1:]), h[-2:-1]]).tolist()
    upper = np.insert(h[:-1], 0, e0).tolist()  # rows 0..n-2
    s = b.tolist()
    for i in range(1, n):
        m = lower[i - 1] / diag[i - 1]
        diag[i] -= m * upper[i - 1]
        s[i] -= m * s[i - 1]
    s[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    k = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, n - 2)
    t, hk, dk, sk = x - knots[k], h[k], d[k], s[k]
    curv = (sk + s[k + 1] - 2.0 * dk) / hk
    return y[k] + sk * t + ((dk - sk) / hk - curv) * t * t + curv / hk * t * t * t


def reference_on_grid(ref: GridField, pred: GridField) -> np.ndarray:
    """`ref` at pred's points: its own values on the same grid, else cubic."""
    if len(ref) == len(pred) and np.allclose(ref.x, pred.x, rtol=0, atol=1e-12):
        return ref.values
    return _not_a_knot(ref, pred.x)


def relative_error(pred: GridField, ref: GridField) -> float:
    """||pred - ref||_2 / ||ref||_2 over pred's grid, ref interpolated (cubic)."""
    ref_on_pred = reference_on_grid(ref, pred)
    denom = float(np.linalg.norm(ref_on_pred))
    if denom == 0.0:
        raise ValueError("reference field has zero norm")
    return float(np.linalg.norm(pred.values - ref_on_pred) / denom)
