"""Per-layer tracing from outside the package.

``Tracer.active()`` swaps wrappers in for the public functions each layer
exposes and restores every original on exit, whatever happens inside.  The
wrappers record per-call wall times and counts in memory; nothing is written
until the benchmark ends.  ``replay`` re-times the loss graph of one trained
step piece by piece (network jets alone, the graph without its WENO branch,
the full graph) on a copy of the step's parameters.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import hpinn.cli
import hpinn.irk
import hpinn.model
import hpinn.network
import hpinn.refsolver
from hpinn.autodiff import Graph, Value, summation
from hpinn.network import NetworkParameters
from hpinn.weno import DiscontinuityMask

clock = time.perf_counter


@contextlib.contextmanager
def patched(targets):
    """Replace ``(owner, name) -> wrapper`` for the duration of the block."""
    saved = []
    try:
        for (owner, name), wrapper in targets.items():
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def computed_mb(graph) -> float:
    """Bytes of every computed (non-leaf) node array, i.e. written per refresh."""
    return sum(n.data.nbytes for n in graph.nodes if n.parents) / 1e6


@dataclass
class StepCapture:
    """What one ``train_step`` call saw, kept for the replays."""

    state: object
    params: NetworkParameters  # copy of the trained parameters
    tableau: object
    pde: object
    disc: object
    reduction: str


@dataclass
class RepTrace:
    """Samples and counts of one traced repetition."""

    times: dict = field(default_factory=lambda: defaultdict(list))  # name -> [seconds]
    refresh_nodes: int = 0
    graphs: list = field(default_factory=list)  # (flagged_cells, nodes, computed MB)
    rk3_steps: int = 0
    steps: list = field(default_factory=list)  # StepCapture

    def total(self, name) -> float:
        return float(sum(self.times.get(name, ())))


def copy_params(params: NetworkParameters) -> NetworkParameters:
    return NetworkParameters(
        params.config,
        [Value(w.data.copy(), label=w.label) for w in params.weights],
        [Value(b.data.copy(), label=b.label) for b in params.biases],
    )


class Tracer:
    """Collects one ``RepTrace`` per traced repetition."""

    def __init__(self):
        self.reps: list[RepTrace] = []

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.reps[-1].times[name].append(clock() - t0)

        return wrapper

    @contextlib.contextmanager
    def active(self):
        rep = RepTrace()
        self.reps.append(rep)
        refresh, backward = Graph.refresh, Graph.backward
        build, train_step = hpinn.model.build_loss_graph, hpinn.model.train_step
        rk3_step = hpinn.refsolver.tvd_rk3_step

        def traced_refresh(graph):
            rep.refresh_nodes += len(graph.nodes)
            t0 = clock()
            try:
                return refresh(graph)
            finally:
                rep.times["refresh"].append(clock() - t0)

        def traced_build(params, state, *args, **kwargs):
            t0 = clock()
            out = build(params, state, *args, **kwargs)
            rep.times["build"].append(clock() - t0)
            graph = out[0]
            rep.graphs.append((state.mask.count(), len(graph.nodes), computed_mb(graph)))
            return out

        def traced_train_step(state, params, tableau, pde, disc, config, *args, **kwargs):
            t0 = clock()
            out = train_step(state, params, tableau, pde, disc, config, *args, **kwargs)
            rep.times["train_step"].append(clock() - t0)
            rep.steps.append(StepCapture(state, copy_params(out[0]), tableau, pde, disc,
                                         config.loss_reduction))
            return out

        def counted_rk3_step(*args, **kwargs):
            rep.rk3_steps += 1
            return rk3_step(*args, **kwargs)

        t = self._timed
        tableau = t("tableau", hpinn.irk.gauss_legendre_tableau)
        init = t("init", hpinn.network.init_xavier)
        march = t("march", hpinn.model.march)
        rel_err = t("relative_error", hpinn.refsolver.relative_error)
        targets = {
            (Graph, "refresh"): traced_refresh,
            (Graph, "backward"): t("backward", backward),
            (hpinn.model.Adam, "step"): t("adam", hpinn.model.Adam.step),
            (hpinn.model, "build_loss_graph"): traced_build,
            (hpinn.model, "train_step"): traced_train_step,
            (hpinn.model, "step_state"): t("step_state", hpinn.model.step_state),
            (hpinn.model, "discontinuity_flags"): t("indicator", hpinn.model.discontinuity_flags),
            (hpinn.model, "gauss_legendre_tableau"): tableau,
            (hpinn.irk, "gauss_legendre_tableau"): tableau,
            (hpinn.model, "init_xavier"): init,
            (hpinn.network, "init_xavier"): init,
            (hpinn.model, "march"): march,
            (hpinn.cli, "march"): march,
            (hpinn.cli, "load_config"): t("load_config", hpinn.cli.load_config),
            (hpinn.model, "solve"): t("solve", hpinn.model.solve),
            (hpinn.refsolver, "tvd_rk3_step"): counted_rk3_step,
            (hpinn.model, "relative_error"): rel_err,
            (hpinn.refsolver, "relative_error"): rel_err,
        }
        with patched(targets):
            yield rep


# -- replays -------------------------------------------------------------------


def _time_graph(graph, calls):
    """Median seconds of one refresh and of one backward over `calls` calls."""
    fwd, bwd = [], []
    for _ in range(calls):
        t0 = clock()
        graph.refresh()
        t1 = clock()
        graph.backward()
        t2 = clock()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return float(np.median(fwd)), float(np.median(bwd))


@dataclass(frozen=True)
class Replay:
    """Per-iteration cost of one step's graph, split by layer (seconds)."""

    flagged: bool
    net_fwd: float
    net_bwd: float
    net_nodes: int
    plain_fwd: float  # loss graph with an all-zero mask
    plain_bwd: float
    plain_nodes: int
    full_fwd: float  # loss graph on the step's own mask
    full_bwd: float
    full_nodes: int


def replay(step: StepCapture, calls: int) -> Replay:
    pde, state = step.pde, step.state
    order = 2 if pde.viscosity > 0.0 else 1
    jet = hpinn.network.forward_stages(step.params, state.data.x, order=order)
    parts = [p for p in (jet.u, jet.dx, jet.dxx) if p is not None]
    root = summation(parts[0])
    for p in parts[1:]:
        root = root + summation(p)
    net_graph = Graph(root)
    net_nodes = len(net_graph.nodes) - (2 * len(parts) - 1)  # minus the reduction

    def loss_graph(s):
        return hpinn.model.build_loss_graph(step.params, s, step.tableau, pde, step.disc,
                                            step.reduction)[0]

    plain_state = hpinn.model.TimeStepState(
        t_n=state.t_n, data=state.data,
        mask=DiscontinuityMask(np.zeros(len(state.mask), dtype=np.int64)), lam=state.lam,
    )
    plain = loss_graph(plain_state)
    plain_fwd, plain_bwd = _time_graph(plain, calls)
    flagged = state.mask.count() > 0
    if flagged:
        full = loss_graph(state)
        full_fwd, full_bwd = _time_graph(full, calls)
    else:
        full, full_fwd, full_bwd = plain, plain_fwd, plain_bwd
    return Replay(flagged, *_time_graph(net_graph, calls), net_nodes,
                  plain_fwd, plain_bwd, len(plain.nodes),
                  full_fwd, full_bwd, len(full.nodes))
