"""hpinn benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload shock-inviscid-q10 --seed 0 --seconds 20 --trace 0

Repeats the workload's fixed-budget rep until ``--seconds`` have passed (at
least three reps) and reports medians over the reps, with each rep's times
and each set-up probe scaled to the reference machine speed (see
calibration.py; the raw times are printed on the ``# run`` line).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced reps, replays each trained step's graph layer by layer and prints
the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when the
correctness gate passes; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from calibration import REFERENCE_IMPORT, REFERENCE_IMPORT_S, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
SETUP_PROBES = 6
REPLAY_CALLS = 9
EXIT_INCORRECT = 1
EXIT_USAGE = 2


def median(values) -> float:
    """Median, or 0.0 when there is nothing to take it of (a run that failed early)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def environment() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def seconds_to_ready(cmd) -> float:
    """Seconds from spawning ``cmd`` to its ``ready`` line; it must then exit with 0."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            raise
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1]} failed with exit code {code}")
    return elapsed


def setup_seconds(name: str, seed: int) -> list:
    """(probe, reference) seconds: fresh interpreter to the first training call,
    each followed by the reference import of calibration.py.

    One unmeasured probe first, so the package's bytecode caches exist as a
    user's second run finds them.
    """
    probe = [sys.executable, str(HERE / "workloads.py"), name, str(seed)]
    reference = [sys.executable, "-c", REFERENCE_IMPORT]
    seconds_to_ready(probe)
    return [(seconds_to_ready(probe), seconds_to_ready(reference))
            for _ in range(SETUP_PROBES)]


class Gate:
    """The correctness gate over every rep of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.numbers = None  # (loss_sum, rel_l2_final) of the first rep

    def add(self, rep, label):
        from workloads import N_STEPS

        self.attempted += N_STEPS
        self.failed += rep.failed_steps()
        self.reasons += [f"{label} step {s}: {why}" for s, why in rep.failures]
        numbers = (rep.loss_sum, rep.rel_l2_final)
        if self.numbers is None:
            self.numbers = numbers
        elif numbers != self.numbers and not rep.failures:
            # same seed, same budget: any difference is a defect, traced or not
            self.failed += 1
            self.reasons.append(f"{label}: (loss_sum, rel_l2_final) = {numbers!r}, "
                                f"first rep gave {self.numbers!r}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def one_rep(workload, calibration, gate, label):
    gc.collect()  # each rep starts without the previous rep's garbage graphs
    rep, scale = calibration.around(workload.rep)
    rep.scale = scale
    gate.add(rep, label)
    return rep


def run_untraced(workload, seconds, gate):
    calibration = Calibration()
    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        reps.append(one_rep(workload, calibration, gate, f"rep {len(reps) + 1}"))
    return reps


def run_traced(workload, seconds, gate):
    """Alternate plain and traced reps (changing which goes first each pair)."""
    from tracing import Tracer

    tracer = Tracer()
    calibration = Calibration()
    plain, traced = [], []
    started = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - started < seconds:
        order = ("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain")
        for kind in order:
            if kind == "plain":
                plain.append(one_rep(workload, calibration, gate, f"plain rep {len(plain) + 1}"))
            else:
                with tracer.active():
                    traced.append(one_rep(workload, calibration, gate,
                                          f"traced rep {len(traced) + 1}"))
    return plain, traced, tracer


def end_to_end(reps, setup) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": (median(r.wall_s * r.scale for r in reps), "s"),
        "ms_per_iter": (median(r.ms_per_iter * r.scale for r in reps), "ms"),
        "setup_s": (median(p * REFERENCE_IMPORT_S / r for p, r in setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(plain, traced, tracer) -> dict:
    from tracing import replay
    from workloads import N_STEPS

    rep, last = traced[-1], tracer.reps[-1]
    times = {}  # pooled samples of every traced rep
    for t in tracer.reps:
        for k, v in t.times.items():
            times.setdefault(k, []).extend(v)
    n_traced = len(tracer.reps)

    def ms_per_iter(flagged):
        steps = [d for d in rep.diagnostics if (d.flagged_cells > 0) == flagged]
        iters = sum(d.iterations for d in steps)
        return 1e3 * sum(d.wall_time for d in steps) / iters if iters else 0.0

    def graph_stat(flagged, column):
        values = [g[column] for g in last.graphs if (g[0] > 0) == flagged]
        return max(values) if values else 0

    iterations = rep.iterations
    loop_other = sum(times.get("train_step", ())) - sum(
        sum(times.get(k, ())) for k in ("refresh", "backward", "adam", "build"))
    sweep_s = sum(times.get("refresh", ())) + sum(times.get("backward", ()))
    sweep_nodes = sum(t.refresh_nodes for t in tracer.reps)

    replays = [replay(step, REPLAY_CALLS) for step in last.steps]
    flagged_replays = [r for r in replays if r.flagged]
    branch_fwd = median(r.full_fwd - r.plain_fwd for r in flagged_replays)
    branch_bwd = median(r.full_bwd - r.plain_bwd for r in flagged_replays)
    branch_nodes = max((r.full_nodes - r.plain_nodes for r in replays), default=0)
    flagged_ms = ms_per_iter(True)
    flags = [d.flagged_cells for d in rep.diagnostics]
    n_points = len(last.steps[0].state.data) if last.steps else 0
    untraced_run = median(r.wall_s * r.scale for r in plain)

    def ms(key):
        return 1e3 * median(times[key]) if times.get(key) else 0.0

    return {
        "autodiff.refresh_ms.p50": (1e3 * percentile(times.get("refresh", []), 50), "ms"),
        "autodiff.refresh_ms.p99": (1e3 * percentile(times.get("refresh", []), 99), "ms"),
        "autodiff.backward_ms.p50": (1e3 * percentile(times.get("backward", []), 50), "ms"),
        "autodiff.backward_ms.p99": (1e3 * percentile(times.get("backward", []), 99), "ms"),
        "autodiff.timing_samples": (len(times.get("refresh", [])), "count"),
        "autodiff.refresh_calls": (len(last.times.get("refresh", [])), "count"),
        "autodiff.graph_builds": (len(last.graphs), "count"),
        "autodiff.nodes.smooth": (graph_stat(False, 1), "count"),
        "autodiff.nodes.flagged": (graph_stat(True, 1), "count"),
        "autodiff.node_mb.smooth": (graph_stat(False, 2), "MB"),
        "autodiff.node_mb.flagged": (graph_stat(True, 2), "MB"),
        "autodiff.us_per_node": (1e6 * sweep_s / sweep_nodes if sweep_nodes else 0.0, "us"),
        "network.fwd_ms": (1e3 * median(r.net_fwd for r in replays), "ms"),
        "network.bwd_ms": (1e3 * median(r.net_bwd for r in replays), "ms"),
        "network.nodes": (replays[0].net_nodes if replays else 0, "count"),
        "network.init_ms": (ms("init"), "ms"),
        "weno.branch_fwd_ms": (1e3 * branch_fwd, "ms"),
        "weno.branch_bwd_ms": (1e3 * branch_bwd, "ms"),
        "weno.branch_nodes": (branch_nodes, "count"),
        "weno.branch_share": (1e3 * (branch_fwd + branch_bwd) / flagged_ms if flagged_ms else 0.0,
                              "frac"),
        "weno.indicator_ms": (ms("indicator"), "ms"),
        "weno.flagged_points": (sum(flags), "count"),
        "weno.flagged_share": (sum(flags) / (n_points * N_STEPS) if n_points else 0.0, "frac"),
        "weno.flagged_steps": (sum(1 for f in flags if f > 0), "count"),
        "model.smooth_ms_per_iter": (ms_per_iter(False), "ms"),
        "model.flagged_ms_per_iter": (flagged_ms, "ms"),
        "model.adam_ms.p50": (1e3 * percentile(times.get("adam", []), 50), "ms"),
        "model.adam_ms.p99": (1e3 * percentile(times.get("adam", []), 99), "ms"),
        "model.build_graph_ms": (ms("build"), "ms"),
        "model.step_state_ms": (ms("step_state"), "ms"),
        "model.fold_loss_fwd_ms": (1e3 * median(r.plain_fwd - r.net_fwd for r in replays), "ms"),
        "model.loop_other_ms": (1e3 * loop_other / max(iterations * n_traced, 1), "ms"),
        "model.iterations": (iterations, "count"),
        "model.loss_sum": (rep.loss_sum, "loss"),
        "model.rel_l2_final": (rep.rel_l2_final, "frac"),
        "irk.tableau_ms": (ms("tableau"), "ms"),
        "irk.tableau_calls": (len(last.times.get("tableau", [])), "count"),
        "refsolver.solve_s": (median(t.total("solve") for t in tracer.reps), "s"),
        "refsolver.rk3_steps": (last.rk3_steps, "count"),
        "refsolver.relative_error_ms": (ms("relative_error"), "ms"),
        "cli.load_config_ms": (ms("load_config"), "ms"),
        "cli.outside_march_s": (median(r.wall_s - t.total("march")
                                       for r, t in zip(traced, tracer.reps))
                                if times.get("march") else 0.0, "s"),
        "trace.overhead_frac": (median(r.wall_s * r.scale for r in traced) / untraced_run - 1.0,
                                "frac"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int, default=None,
                        help="override the per-step budget (smoke tests only)")
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "hpinn" / "__init__.py", ROOT / "configs" / "viscous.yaml")
               if not p.is_file()]
    if missing:
        print(f"benchmark: run from a checkout of the repository; missing {missing[0]}",
              file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.SPECS)}", file=sys.stderr)
        return EXIT_USAGE

    env = environment()
    print("# environment " + json.dumps(env), flush=True)
    gate = Gate()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed)
        workload = workloads.make(args.workload, args.seed, args.iterations, Path(tmp))
        if args.trace:
            plain, traced, tracer = run_traced(workload, args.seconds, gate)
            reps = plain + traced  # rep_wall_s lists the plain reps first
            metrics = per_layer(plain, traced, tracer)
        else:
            reps = run_untraced(workload, args.seconds, gate)
            metrics = end_to_end(reps, setup)

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "reps": len(reps),
        "rep_wall_s": [round(r.wall_s, 4) for r in reps],
        "rep_scale": [round(r.scale, 4) for r in reps],
        "raw_run_s": median(r.wall_s for r in reps),
        "raw_ms_per_iter": median(r.ms_per_iter for r in reps),
        "loss_sum": gate.numbers[0], "rel_l2_final": gate.numbers[1],
        "setup_probe_s": [round(p, 4) for p, _ in setup],
        "setup_reference_s": [round(r, 4) for _, r in setup],
    }
    print("# run " + json.dumps(summary), flush=True)
    for reason in gate.reasons:
        print(f"# FAILED {reason}", flush=True)
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if gate.correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
