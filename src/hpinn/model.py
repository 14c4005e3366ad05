"""Hybrid discrete-time training: residual assembly, loss, Adam loop and
multi-step marching.

One implicit Runge-Kutta step is learned at a time.  The network outputs all
q+1 stage values at once; the PDE operator applied to the first q stages uses
automatic differentiation for the convection term at smooth points and the
WENO-Z divided difference at points flagged by the discontinuity indicator
(the viscous term always comes from automatic differentiation).  Folding the
stage values back through the tableau must reproduce the known data u^n at
every collocation point, which together with the boundary mismatch forms the
training loss.  Everything after the network's last layer -- the residual,
with the WENO-Z branch run from the first flagged point to the last (one run
per shock) and 3 cells beyond, the tableau fold and the loss -- is one graph
node with a hand-written vector-Jacobian product (`loss_node`).

The discontinuity mask and the splitting speed lambda are computed once per
time step from the known data u^n and then frozen, so the loss surface stays
fixed and differentiable during the step; the mask is dilated
`weno.MASK_DILATION` cells to cover shock motion within dt.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .autodiff import Graph, Value, fused
from .irk import ButcherTableau, gauss_legendre_tableau
from .network import NetworkConfig, NetworkParameters, init_xavier, stacked_stages
from .pde import PdeSpec
from .refsolver import TIME_TOL, SolverConfig, reference_on_grid, relative_error, solve
from .weno import (
    MASK_DILATION,
    MIN_POINTS,
    DiscontinuityMask,
    GridField,
    SparseWenoZ,
    dilate_mask,
    discontinuity_flags,
)

__all__ = [
    "Discretization",
    "TrainingConfig",
    "TimeStepState",
    "StepDiagnostics",
    "MarchResult",
    "TrainingDivergedError",
    "Adam",
    "loss_node",
    "build_loss_graph",
    "train_step",
    "step_count",
    "march",
]

# Margin on the splitting speed frozen from u^n for a whole step,
# lam = LAMBDA_SAFETY * max|f'(u^n)|.  The reference solver recomputes its
# speed every stage and keeps its own factor (refsolver.LAMBDA_SAFETY).
LAMBDA_SAFETY = 1.1

# Adam's decay rates and denominator floor (Kingma & Ba's defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class Discretization:
    """Spatial/temporal discretization of one experiment.

    The WENO-Z and indicator numbers and the mask dilation are `weno`'s
    module constants.
    """

    n_points: int = 300
    dt: float = 0.1
    q_stages: int = 10
    hybrid_enabled: bool = True  # False reproduces the plain discrete-time PINN

    def __post_init__(self):
        if self.n_points < MIN_POINTS:
            raise ValueError(f"n_points must be at least {MIN_POINTS}, got {self.n_points}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 1e-4
    loss_tolerance: float = 1e-5
    max_iterations: int = 200_000
    loss_reduction: str = "mean"  # "mean" (stopping rule scale) or "sum" (raw)

    def __post_init__(self):
        if not (0.0 < self.learning_rate < math.inf and 0.0 < self.loss_tolerance < math.inf):
            raise ValueError("learning rate and tolerance must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.loss_reduction not in ("mean", "sum"):
            raise ValueError("loss_reduction must be 'mean' or 'sum'")


@dataclass
class TimeStepState:
    """Everything frozen for one training step."""

    t_n: float
    data: GridField
    mask: DiscontinuityMask
    lam: float

    def __post_init__(self):
        if len(self.data) != len(self.mask):
            raise ValueError("data and mask must have equal length")


@dataclass(frozen=True)
class StepDiagnostics:
    step: int
    t_start: float
    iterations: int
    initial_loss: float
    final_loss: float
    loss_pde: float
    loss_bc: float
    flagged_cells: int
    converged: bool
    wall_time: float


@dataclass
class MarchResult:
    """`errors` and `profiles` share their keys: the sorted, merged eval times."""

    fields: list  # GridField at k * dt for every step boundary k, initial condition first
    errors: dict  # eval time -> global relative error vs the reference run
    profiles: dict  # eval time -> (prediction, the reference on its grid), GridFields
    diagnostics: list


class TrainingDivergedError(RuntimeError):
    def __init__(self, message, iteration=None, parameter_norm=None):
        super().__init__(message)
        self.iteration = iteration
        self.parameter_norm = parameter_norm


class Adam:
    """Full-batch Adam over a flat vector, in place; the caller fills ``grad`` before a step."""

    def __init__(self, vector, grad, lr=1e-4):
        self.vector = vector
        self.grad = grad
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(vector)
        self.v = np.zeros_like(vector)

    def step(self):
        self.t += 1
        rate = self.lr * np.sqrt(1.0 - BETA2**self.t) / (1.0 - BETA1**self.t)
        g, m, v = self.grad, self.m, self.v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        self.vector -= rate * m / (np.sqrt(v) + EPS)


# -- graph assembly -----------------------------------------------------------


def loss_node(stages: Value, state: TimeStepState, tableau: ButcherTableau, pde: PdeSpec,
              disc: Discretization, reduction: str = "mean"):
    """L = L_PDE + L_BC from the stacked stage jet, as one graph node.

    The residual N_j = f(u_j)_x - nu u_j,xx of the first q stage rows takes
    its convection from autodiff, f'(u) u_x, except at the flagged points,
    where the WENO-Z divided difference (`SparseWenoZ`) replaces it; the
    viscous term always comes from autodiff.  Folding the stages back through
    the tableau, row i (i <= q) is u^{n+c_i} + dt sum_j a_ij N_j and the last
    row u^{n+1} + dt sum_j b_j N_j, and every row should match the datum u^n.
    L_PDE averages the squared mismatch over all points and all q+1 rows,
    L_BC the squared stage outputs at both walls, which hold 0; "sum" keeps
    the raw sums of the discrete-time formulation instead.

    Returns (total, l_pde, l_bc); the last two are leaves outside the graph
    that every refresh of `total` rewrites.  The VJP takes f''(u) from
    `pde.ddflux` and repeats the products and the order of summation of the
    node-per-op graph the tests keep as an oracle, so losses and gradients
    match it bit for bit; it forms no gradient for the tableau or the data.
    """
    q, n = tableau.q, len(state.data)
    mix = np.vstack([tableau.a, tableau.b[None, :]]) * disc.dt
    data, nu = state.data.values, pde.viscosity
    weno = None if state.mask.count() == 0 else SparseWenoZ(
        state.mask.flags, pde.flux, pde.dflux, state.lam, state.data.dx)
    reduce = np.mean if reduction == "mean" else np.sum
    ends = (0, n - 1)
    l_pde, l_bc = Value(0.0, label="l_pde"), Value(0.0, label="l_bc")
    tape = []  # f'(u), the target and the boundary mismatch from the last forward

    def forward(jet):
        u, ux = jet[0, :q], jet[1, :q]
        speed = pde.dflux(u)
        resid = speed * ux
        if weno is not None:
            resid[..., weno.points] = weno(u)
        if nu > 0.0:
            resid -= jet[2, :q] * nu
        diff = mix @ resid
        diff += jet[0]
        diff -= data
        bdiff = jet[0][..., ends]
        l_pde.data, l_bc.data = reduce(diff * diff), reduce(bdiff * bdiff)
        tape[:] = speed, diff, bdiff
        return l_pde.data + l_bc.data

    def vjp(g, total, jet):
        # each row of `out` is written once, summed in the oracle's order: u takes
        # (gdiff + (gweno + gconv u_x f'')) + gbdiff, u_x gconv f', u_xx -gresid nu
        speed, diff, bdiff = tape
        u, ux = jet[0, :q], jet[1, :q]
        gdiff = diff * (g / diff.size if reduction == "mean" else g)
        gdiff += gdiff  # d(x x) = x dx + x dx
        gbdiff = bdiff * (g / bdiff.size if reduction == "mean" else g)
        gbdiff += gbdiff
        gresid = mix.T @ gdiff
        out = np.empty_like(jet)
        out[1:, q] = 0.0
        if len(out) > 2:  # zeros when nu = 0
            np.multiply(gresid, -nu, out=out[2, :q])
        if weno is not None:
            gweno = weno.vjp(gresid[..., weno.points])
            gresid[..., weno.points] = 0.0  # now the convection's gconv
        gu = gresid * ux
        gu *= pde.ddflux(u)
        if weno is not None:
            gu += gweno
        np.add(gdiff[:q], gu, out=out[0, :q])
        out[0, q] = gdiff[q]
        out[0, :, 0] += gbdiff[:, 0]
        out[0, :, n - 1] += gbdiff[:, 1]
        np.multiply(gresid, speed, out=out[1, :q])
        return (out,)

    return fused((stages,), forward, vjp, "loss"), l_pde, l_bc


def build_loss_graph(params: NetworkParameters, state: TimeStepState, tableau: ButcherTableau,
                     pde: PdeSpec, disc: Discretization, reduction: str = "mean"):
    """The training loss of one step; returns (graph, (total, l_pde, l_bc), stages).

    `stages` is the network's last layer, the stacked jet (order+1, q+1, N):
    the graph is one node per layer plus `loss_node`.
    """
    stages = stacked_stages(params, state.data.x, 2 if pde.viscosity > 0.0 else 1)
    losses = loss_node(stages, state, tableau, pde, disc, reduction)
    return Graph(losses[0]), losses, stages


# -- per-step training and marching -------------------------------------------


def step_state(data: GridField, t_n: float, pde: PdeSpec, disc: Discretization) -> TimeStepState:
    """Freeze the mask and splitting speed for one step from the known data."""
    if disc.hybrid_enabled:
        mask = dilate_mask(discontinuity_flags(data), MASK_DILATION)
    else:
        mask = DiscontinuityMask(np.zeros(len(data), dtype=np.int64))
    lam = LAMBDA_SAFETY * pde.max_speed(data.values)
    return TimeStepState(t_n=t_n, data=data, mask=mask, lam=lam)


def train_step(state: TimeStepState, params: NetworkParameters, tableau: ButcherTableau,
               pde: PdeSpec, disc: Discretization, config: TrainingConfig,
               step_index: int = 0):
    """Adam until the loss drops below tolerance or the iteration cap.

    Returns (params, predicted u^{n+1} on the grid, StepDiagnostics).  The
    mask and lam stay frozen for the whole step.
    """
    started = time.perf_counter()
    q = tableau.q

    def check_finite(loss_value, iteration):
        if not np.isfinite(loss_value):
            norm = float(np.linalg.norm(params.vector))
            raise TrainingDivergedError(
                f"step {step_index} (t={state.t_n:.6g}) aborted: "
                f"non-finite loss at iteration {iteration}",
                iteration=iteration,
                parameter_norm=norm,
            )

    graph, (total, l_pde, l_bc), stages = build_loss_graph(
        params, state, tableau, pde, disc, config.loss_reduction
    )
    adam = Adam(params.vector, params.grad, config.learning_rate)
    initial_loss = float(total.data)
    check_finite(initial_loss, 0)
    loss = initial_loss
    iterations = 0
    while loss >= config.loss_tolerance and iterations < config.max_iterations:
        graph.backward()
        params.gather_grad()
        adam.step()
        iterations += 1
        graph.refresh()
        loss = float(total.data)
        check_finite(loss, iterations)

    u_next = GridField(stages.data[0, q].copy(), state.data.x0, state.data.dx)
    diag = StepDiagnostics(
        step=step_index,
        t_start=state.t_n,
        iterations=iterations,
        initial_loss=initial_loss,
        final_loss=loss,
        loss_pde=float(l_pde.data),
        loss_bc=float(l_bc.data),
        flagged_cells=state.mask.count(),
        converged=bool(loss < config.loss_tolerance),
        wall_time=time.perf_counter() - started,
    )
    return params, u_next, diag


def step_count(t_final: float, dt: float, eval_times=()):
    """The number of steps of `dt` that reach `t_final`, and the eval times
    by step boundary: (n_steps, {k: t}), sorted, each boundary k keeping the
    smallest float that names it.

    Raises ValueError unless t_final is a multiple of dt and every eval time
    is a step boundary in (0, t_final]: the march trains nothing to compare
    at t = 0.  Both are k * dt to within the same `TIME_TOL`.
    """
    def boundary(t):  # the k with k * dt == t up to round-off, else 0
        ratio = t / dt if dt > 0.0 else 0.0  # inf where t / dt overflows
        k = round(ratio) if math.isfinite(ratio) else 0
        return k if abs(k * dt - t) <= TIME_TOL else 0

    n_steps = boundary(t_final)
    if n_steps < 1:
        raise ValueError(f"t_final={t_final} is not a multiple of dt={dt}")
    steps = {}
    for t in sorted(map(float, eval_times)):
        k = boundary(t)
        if not 1 <= k <= n_steps:
            raise ValueError(f"eval time {t} does not land on a step boundary in (0, {t_final}]")
        steps.setdefault(k, t)
    return n_steps, steps


def _reference_snapshots(config: SolverConfig) -> list:
    """`solve`'s fields: what `march`'s worker process runs and sends back."""
    return solve(config)[1]


def march(pde: PdeSpec, disc: Discretization, net_config: NetworkConfig,
          training: TrainingConfig, t_final: float, eval_times=(),
          n_cells: int = SolverConfig.n_cells,
          on_step: Optional[Callable] = None) -> MarchResult:
    """March from `pde.initial_field(disc.n_points)` to t_final, one trained step at
    a time, and report global relative errors against the reference solver.

    Every step re-freezes the mask and lam from the current data and
    warm-starts from the previous step's trained parameters.  The network
    gets q+1 outputs whatever `net_config.outputs` says.  `step_count`
    checks `eval_times`, sorts them and merges them by step boundary.  When
    there are any, the reference is solved on `n_cells` cells in one worker
    process while the steps train here.  A reference grid the solver cannot
    build fails before the first step, so it costs no training; a solve that
    fails later stops the march at the next step boundary with the solver's
    own exception.  Training never waits for the solve; the march waits for
    it after the last step, and no worker outlives the call.  At each eval
    time the reference is put once onto the prediction's grid, and both the
    error and `MarchResult.profiles` come from that one array.
    """
    n_steps, steps = step_count(t_final, disc.dt, eval_times)

    net_config = replace(net_config, outputs=disc.q_stages + 1)
    tableau = gauss_legendre_tableau(disc.q_stages)

    solving = None
    with contextlib.ExitStack() as stack:
        if steps:
            times = tuple(steps.values())
            reference = SolverConfig(pde, n_cells, t_final=times[-1], snapshot_times=times)
            pde.initial_field(n_cells)  # the solver's start: a grid it cannot build fails here
            # imported here, ~20 ms: only a march with eval times pays it
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=1))
            # a module-level function pickles by name, whatever wraps `solve`
            solving = pool.submit(_reference_snapshots, reference)
        fields = [pde.initial_field(disc.n_points)]
        params = init_xavier(net_config)
        diagnostics = []
        for n in range(n_steps):
            if solving is not None and solving.done():
                solving.result()  # re-raises a failed solve's exception
            state = step_state(fields[-1], n * disc.dt, pde, disc)
            params, u_next, diag = train_step(
                state, params, tableau, pde, disc, training, step_index=n
            )
            fields.append(u_next)
            diagnostics.append(diag)
            if on_step is not None:
                on_step(diag)
        snapshots = solving.result() if solving is not None else []

    errors, profiles = {}, {}
    for (k, t), snapshot in zip(steps.items(), snapshots):
        pred = fields[k]
        ref = GridField(reference_on_grid(snapshot, pred), pred.x0, pred.dx)
        errors[t], profiles[t] = relative_error(pred, ref), (pred, ref)
    return MarchResult(fields=fields, errors=errors, profiles=profiles,
                       diagnostics=diagnostics)
