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
with the WENO-Z branch evaluated only at the flagged points and their 3-cell
halos, the tableau fold and the loss -- is one graph node with a hand-written
vector-Jacobian product (`loss_node`).

The discontinuity mask and the splitting speed lambda are computed once per
time step from the known data u^n and then frozen, so the loss surface stays
fixed and differentiable during the step; the mask is dilated a few cells to
cover shock motion within dt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .autodiff import EvaluationError, Graph, Value, fused
from .irk import ButcherTableau, gauss_legendre_tableau
from .network import NetworkConfig, NetworkParameters, init_xavier, stacked_stages
from .pde import PdeSpec
from .refsolver import SolverConfig, relative_error, solve
from .weno import (
    DiscontinuityMask,
    GridField,
    SparseWenoZ,
    WenoConstants,
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
    "march",
]

# Margin on the splitting speed frozen from u^n for a whole step,
# lam = LAMBDA_SAFETY * max|f'(u^n)|.  The reference solver recomputes its
# speed every stage and keeps its own factor (refsolver.LAMBDA_SAFETY).
LAMBDA_SAFETY = 1.1

# Adam's decay rates and denominator floor (Kingma & Ba's defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# Imaginary step of the complex-step derivative of f'(u); a power of two, so
# the step and the division by it are exact.
CURVATURE_STEP = 2.0**-40


@dataclass(frozen=True)
class Discretization:
    """Spatial/temporal discretization of one experiment."""

    n_points: int = 300
    dt: float = 0.1
    q_stages: int = 10
    mask_dilation: int = 3
    constants: WenoConstants = field(default_factory=WenoConstants)
    hybrid_enabled: bool = True  # False reproduces the plain discrete-time PINN


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 1e-4
    loss_tolerance: float = 1e-5
    max_iterations: int = 200_000
    warm_start: bool = True
    loss_reduction: str = "mean"  # "mean" (stopping rule scale) or "sum" (raw)

    def __post_init__(self):
        if self.learning_rate <= 0 or self.loss_tolerance <= 0:
            raise ValueError("learning rate and tolerance must be positive")
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
    times: list
    fields: list  # GridField at every step boundary, initial condition first
    errors: dict  # eval time -> global relative error vs the reference run
    reference: dict  # eval time -> reference GridField
    diagnostics: list


class TrainingDivergedError(RuntimeError):
    def __init__(self, message, iteration=None, parameter_norm=None):
        super().__init__(message)
        self.iteration = iteration
        self.parameter_norm = parameter_norm


class Adam:
    """Full-batch Adam over a list of parameter leaves.

    The leaves' values move into one flat vector, and each leaf's ``data``
    becomes a view of its slice, so a step is one update of the whole vector.
    """

    def __init__(self, leaves, lr=1e-4):
        self.leaves = list(leaves)
        self.lr = lr
        self.t = 0
        self.params = np.concatenate([p.data.ravel() for p in self.leaves])
        self.grad = np.empty_like(self.params)
        self._grads = []
        start = 0
        for p in self.leaves:
            stop = start + p.data.size
            p.data = self.params[start:stop].reshape(p.data.shape)
            self._grads.append(self.grad[start:stop].reshape(p.data.shape))
            start = stop
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)

    def step(self):
        self.t += 1
        rate = self.lr * np.sqrt(1.0 - BETA2**self.t) / (1.0 - BETA1**self.t)
        for p, g in zip(self.leaves, self._grads):
            g[...] = p.grad
        g, m, v = self.grad, self.m, self.v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        self.params -= rate * m / (np.sqrt(v) + EPS)


# -- graph assembly -----------------------------------------------------------


def loss_node(stages: Value, state: TimeStepState, tableau: ButcherTableau, pde: PdeSpec,
              disc: Discretization, reduction: str = "mean"):
    """L = L_PDE + L_BC from the stacked stage jet, as one graph node.

    The residual N_j = f(u_j)_x - nu u_j,xx - h of the first q stage rows takes
    its convection from autodiff, f'(u) u_x, except at the flagged points,
    where the WENO-Z divided difference (`SparseWenoZ`) replaces it; the
    viscous term always comes from autodiff.  Folding the stages back through
    the tableau, row i (i <= q) is u^{n+c_i} + dt sum_j a_ij N_j and the last
    row u^{n+1} + dt sum_j b_j N_j, and every row should match the datum u^n.
    L_PDE averages the squared mismatch over all points and all q+1 rows,
    L_BC the squared stage outputs against the Dirichlet value at both ends;
    "sum" keeps the raw sums of the discrete-time formulation instead.

    Returns (total, l_pde, l_bc); the last two are leaves outside the graph
    that every refresh of `total` rewrites.  The VJP repeats the products and
    the order of summation of the node-per-op graph the tests keep as an
    oracle, so losses and gradients match it bit for bit; it forms no
    gradient for the tableau, the data or the source.
    """
    q, n = tableau.q, len(state.data)
    mix = np.vstack([tableau.a, tableau.b[None, :]]) * disc.dt
    data, nu, bv = state.data.values, pde.viscosity, pde.boundary_value
    source = None if pde.source is None else np.stack(
        [pde.source(state.data.x, state.t_n + ci * disc.dt) for ci in tableau.c])
    weno = None if state.mask.count() == 0 else SparseWenoZ(
        state.mask.flags, pde.flux, pde.dflux, state.lam, state.data.dx, bv, disc.constants)
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
            resid = resid - jet[2, :q] * nu
        if source is not None:
            resid = resid - source
        diff = jet[0] + mix @ resid - data
        bdiff = jet[0][..., ends] - bv
        l_pde.data, l_bc.data = reduce(diff * diff), reduce(bdiff * bdiff)
        tape[:] = speed, diff, bdiff
        return l_pde.data + l_bc.data

    def vjp(g, total, jet):
        speed, diff, bdiff = tape
        u, ux = jet[0, :q], jet[1, :q]
        gdiff = diff * (g / diff.size if reduction == "mean" else g)
        gdiff += gdiff  # d(x x) = x dx + x dx
        gbdiff = bdiff * (g / bdiff.size if reduction == "mean" else g)
        gbdiff += gbdiff
        gresid = mix.T @ gdiff
        gconv, gweno = gresid, 0.0
        if weno is not None:
            gweno = weno.vjp(gresid[..., weno.points])
            gconv = gresid.copy()
            gconv[..., weno.points] = 0.0
        # f''(u) by a complex step: exact for a polynomial f', 1.0 for Burgers
        curvature = np.imag(pde.dflux(u + 1j * CURVATURE_STEP)) / CURVATURE_STEP
        gu = gweno + gconv * ux * curvature
        out = np.zeros_like(jet)
        out[0] += gdiff
        out[0, :q] += gu
        out[0][..., ends] += gbdiff
        out[1, :q] += gconv * speed
        if nu > 0.0:
            out[2, :q] -= gresid * nu
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
        mask = discontinuity_flags(data, disc.constants)
        mask = dilate_mask(mask, disc.mask_dilation)
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
            norm = float(np.sqrt(sum(np.sum(p.data**2) for p in params.leaves())))
            raise TrainingDivergedError(
                f"non-finite loss at step {step_index}, iteration {iteration}",
                iteration=iteration,
                parameter_norm=norm,
            )

    iterations = 0
    try:
        graph, (total, l_pde, l_bc), stages = build_loss_graph(
            params, state, tableau, pde, disc, config.loss_reduction
        )
        adam = Adam(params.leaves(), config.learning_rate)
        initial_loss = float(total.data)
        check_finite(initial_loss, 0)
        loss = initial_loss
        while loss >= config.loss_tolerance and iterations < config.max_iterations:
            graph.backward()
            adam.step()
            iterations += 1
            graph.refresh()
            loss = float(total.data)
            check_finite(loss, iterations)
    except EvaluationError as err:
        raise EvaluationError(f"{err} at step {step_index}, iteration {iterations}") from err

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


def march(pde: PdeSpec, disc: Discretization, net_config: NetworkConfig,
          training: TrainingConfig, t_final: float, eval_times=(),
          ref_n_cells: int = 1000, ref_cfl: float = 0.4,
          on_step: Optional[Callable] = None) -> MarchResult:
    """March from the exact initial condition to t_final, one trained step at
    a time, and report global relative errors against the reference solver.

    Every step re-freezes the mask and lam from the current data; by default
    each step warm-starts from the previous step's trained parameters.
    """
    if pde.initial is None:
        raise ValueError("march needs an initial condition on the PdeSpec")
    n_steps = int(round(t_final / disc.dt))
    if n_steps < 1 or abs(n_steps * disc.dt - t_final) > 1e-12:
        raise ValueError(f"t_final={t_final} is not a multiple of dt={disc.dt}")
    eval_times = tuple(float(t) for t in eval_times)
    for t in eval_times:
        k = int(round(t / disc.dt))
        if not 0 <= k <= n_steps or abs(k * disc.dt - t) > 1e-9:
            raise ValueError(f"eval time {t} does not land on a step boundary")

    if net_config.outputs != disc.q_stages + 1:
        net_config = NetworkConfig(
            hidden_layers=net_config.hidden_layers,
            width=net_config.width,
            outputs=disc.q_stages + 1,
            seed=net_config.seed,
        )
    tableau = gauss_legendre_tableau(disc.q_stages)

    x_left, x_right = pde.domain
    dx = (x_right - x_left) / (disc.n_points - 1)
    x = x_left + dx * np.arange(disc.n_points)
    fields = [GridField(pde.initial(x), x_left, dx)]
    times = [0.0]

    params = init_xavier(net_config)
    diagnostics = []
    for n in range(n_steps):
        if n > 0 and not training.warm_start:
            params = init_xavier(replace(net_config, seed=net_config.seed + n))
        state = step_state(fields[-1], times[-1], pde, disc)
        try:
            params, u_next, diag = train_step(
                state, params, tableau, pde, disc, training, step_index=n
            )
        except TrainingDivergedError as err:
            raise TrainingDivergedError(
                f"step {n} (t={times[-1]:.6g}) aborted: {err}",
                iteration=err.iteration,
                parameter_norm=err.parameter_norm,
            ) from err
        except EvaluationError as err:
            raise EvaluationError(f"step {n} (t={times[-1]:.6g}) aborted: {err}") from err
        fields.append(u_next)
        times.append((n + 1) * disc.dt)
        diagnostics.append(diag)
        if on_step is not None:
            on_step(diag)

    errors, reference = {}, {}
    ref_times = [t for t in eval_times if t > 0.0]
    if ref_times:
        ref_config = SolverConfig(
            pde=pde, n_cells=ref_n_cells, cfl=ref_cfl,
            t_final=max(ref_times), snapshot_times=tuple(ref_times),
        )
        _, snapshots = solve(ref_config)
        for t, ref_field in zip(ref_times, snapshots):
            k = int(round(t / disc.dt))
            errors[t] = relative_error(fields[k], ref_field)
            reference[t] = ref_field
    return MarchResult(
        times=times, fields=fields, errors=errors,
        reference=reference, diagnostics=diagnostics,
    )
