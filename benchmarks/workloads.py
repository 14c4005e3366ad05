"""The benchmark's workloads: fixed-budget training runs driven through the
package's public functions only.

A repetition ("rep") is one full pass of a workload from a fresh network
initialised with the workload seed; every rep of a run therefore trains the
same trajectory and must give bit-identical losses.  Every step runs exactly
its iteration budget: the loss tolerance is set far below anything the loss
reaches, so the work does not depend on convergence.

Run as a script, this module is the set-up probe: a fresh interpreter that
imports the package, loads the workload's inputs, builds the tableau and
initialises the network, then prints ``ready`` and exits.

    python3 benchmarks/workloads.py <workload> <seed>
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import hpinn  # noqa: E402
import hpinn.cli  # noqa: E402
import hpinn.irk  # noqa: E402
import hpinn.model  # noqa: E402
import hpinn.network  # noqa: E402
import hpinn.refsolver  # noqa: E402
from hpinn.weno import GridField  # noqa: E402
from tracing import patched  # noqa: E402

clock = time.perf_counter

DATA_FILE = HERE / "data" / "shock_reference.npz"
DATA_SHA256 = "1399fbfdb2f1695caec08507a06c4d6bce2438a343d9fb85aa96873d0122ffa0"
PRESET = ROOT / "configs" / "viscous.yaml"
N_STEPS = 10
DT = 0.1
TOLERANCE = 1e-300  # never reached: every step runs its whole budget


@dataclass(frozen=True)
class Spec:
    name: str
    q: int
    iterations: int  # Adam iterations per step
    data: str | None = None  # key in DATA_FILE for the shock workloads


SPECS = {
    s.name: s
    for s in (
        # why each workload exists: README.md and BENCHMARK.json
        Spec("shock-inviscid-q10", q=10, iterations=100, data="inviscid"),
        Spec("shock-viscous-q50", q=50, iterations=30, data="viscous"),
        Spec("baseline-viscous-q10", q=10, iterations=120),
    )
}


@dataclass
class RepResult:
    wall_s: float  # the timed phase
    diagnostics: list = field(default_factory=list)  # StepDiagnostics
    rel_l2_final: float = math.nan
    failures: list = field(default_factory=list)  # (step, reason)
    scale: float = 1.0  # reference machine speed / speed measured around the rep

    @property
    def loss_sum(self) -> float:
        return float(sum(d.final_loss for d in self.diagnostics))

    @property
    def iterations(self) -> int:
        return sum(d.iterations for d in self.diagnostics)

    @property
    def ms_per_iter(self) -> float:
        return 1e3 * sum(d.wall_time for d in self.diagnostics) / max(self.iterations, 1)

    def failed_steps(self) -> int:
        return len({step for step, _ in self.failures})


def check_steps(diagnostics, budget: int) -> list:
    """The per-step part of the correctness gate: (step, reason) per violation."""
    bad = []
    for step in range(N_STEPS):
        if step >= len(diagnostics):
            bad.append((step, "not run"))
            continue
        d = diagnostics[step]
        losses = (d.initial_loss, d.final_loss, d.loss_pde, d.loss_bc)
        if not all(math.isfinite(v) for v in losses):
            bad.append((step, "non-finite loss"))
        elif d.final_loss > d.initial_loss:
            bad.append((step, f"final loss {d.final_loss!r} > initial {d.initial_loss!r}"))
        if d.iterations != budget:
            bad.append((step, f"ran {d.iterations} of {budget} iterations"))
    return bad


def load_shock_data(key: str):
    blob = DATA_FILE.read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != DATA_SHA256:
        raise RuntimeError(f"{DATA_FILE.name} has sha256 {digest}, expected {DATA_SHA256}")
    with np.load(io.BytesIO(blob)) as data:
        fields = [GridField(v, float(data["x0"]), float(data["dx"])) for v in data[key]]
        return fields, [float(t) for t in data["times"]], float(data[f"{key}_nu"])


class ShockWorkload:
    """Ten warm-started ``train_step``s on frozen reference data at t_n = 0..0.9."""

    def __init__(self, spec: Spec, seed: int, iterations: int):
        self.spec, self.iterations = spec, iterations
        self.fields, self.times, nu = load_shock_data(spec.data)
        self.pde = hpinn.burgers(nu)
        self.disc = hpinn.model.Discretization(n_points=len(self.fields[0]), dt=DT,
                                               q_stages=spec.q)
        self.training = hpinn.model.TrainingConfig(
            loss_tolerance=TOLERANCE, max_iterations=iterations, loss_reduction="sum")
        self.net_config = hpinn.network.NetworkConfig(
            hidden_layers=5, width=20, outputs=spec.q + 1, seed=seed)

    def prepare(self):
        """Tableau and initial network: the set-up before the first training call."""
        return (hpinn.irk.gauss_legendre_tableau(self.spec.q),
                hpinn.network.init_xavier(self.net_config))

    def rep(self) -> RepResult:
        tableau, params = self.prepare()
        result = RepResult(wall_s=math.nan)
        u_next = None
        t0 = clock()
        try:
            for n in range(N_STEPS):
                state = hpinn.model.step_state(self.fields[n], self.times[n], self.pde, self.disc)
                params, u_next, diag = hpinn.model.train_step(
                    state, params, tableau, self.pde, self.disc, self.training, step_index=n)
                result.diagnostics.append(diag)
        except Exception as err:  # a failed step is counted, never fatal
            result.failures.append((len(result.diagnostics), f"{type(err).__name__}: {err}"))
        result.wall_s = clock() - t0
        result.failures += check_steps(result.diagnostics, self.iterations)
        if u_next is not None and len(result.diagnostics) == N_STEPS:
            result.rel_l2_final = hpinn.refsolver.relative_error(u_next, self.fields[N_STEPS])
        if not math.isfinite(result.rel_l2_final):
            result.failures.append((N_STEPS - 1, "non-finite final relative error"))
        return result


class CliWorkload:
    """``hpinn baseline`` in-process on the viscous preset with a fixed budget."""

    def __init__(self, spec: Spec, seed: int, iterations: int, workdir: Path):
        self.spec, self.seed, self.iterations = spec, seed, iterations
        cfg = yaml.safe_load(PRESET.read_text())
        cfg["discretization"]["q_stages"] = spec.q
        cfg["training"].update(max_iterations=iterations, tolerance=TOLERANCE)
        cfg["outputs"].update(t_final=1.0, profile_times=[0.2, 1.0])
        self.out = workdir / "out"
        self.config = workdir / f"{spec.name}.yaml"
        workdir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(yaml.safe_dump(cfg))

    def prepare(self):
        exp = hpinn.cli.load_config(self.config, out_override=self.out, seed_override=self.seed)
        return (hpinn.irk.gauss_legendre_tableau(exp.disc.q_stages),
                hpinn.network.init_xavier(exp.network))

    def rep(self) -> RepResult:
        shutil.rmtree(self.out, ignore_errors=True)
        captured = []
        march = hpinn.cli.march

        def capture(*args, **kwargs):
            captured.append(march(*args, **kwargs))
            return captured[-1]

        argv = ["baseline", "--config", str(self.config), "--out", str(self.out),
                "--seed", str(self.seed)]
        result = RepResult(wall_s=math.nan)
        try:
            with patched({(hpinn.cli, "march"): capture}), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                t0 = clock()
                code = hpinn.cli.main(argv)
                result.wall_s = clock() - t0
        except Exception as exc:  # a failed run is counted, never fatal
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        if code != 0 or not captured:
            result.failures.append((0, f"exit code {code}: {err.getvalue().strip()}"))
            result.failures += [(n, "not run") for n in range(1, N_STEPS)]
            return result
        march_result = captured[0]
        result.diagnostics = list(march_result.diagnostics)
        result.failures += check_steps(result.diagnostics, self.iterations)
        result.failures += self.check_outputs(march_result, result)
        result.rel_l2_final = float(march_result.errors.get(1.0, math.nan))
        if not math.isfinite(result.rel_l2_final):
            result.failures.append((N_STEPS - 1, "non-finite final relative error"))
        return result

    def check_outputs(self, march_result, result) -> list:
        """The files must say what the march computed."""
        try:
            with (self.out / "diagnostics.jsonl").open() as fh:
                steps = [r for r in map(json.loads, fh) if "step" in r]
            with (self.out / "errors.csv").open() as fh:
                errors = {float(r["time"]): float(r["rel_error"]) for r in csv.DictReader(fh)}
        except (OSError, ValueError, KeyError) as err:
            return [(N_STEPS - 1, f"unreadable output: {type(err).__name__}: {err}")]
        bad = []
        if [(r["iterations"], r["final_loss"]) for r in steps] != \
                [(d.iterations, d.final_loss) for d in result.diagnostics]:
            bad.append((N_STEPS - 1, "diagnostics.jsonl disagrees with the march"))
        if errors != march_result.errors:
            bad.append((N_STEPS - 1, "errors.csv disagrees with the march"))
        for t in (0.2, 1.0):
            if not (self.out / f"profile_t{t:g}.csv").is_file():
                bad.append((N_STEPS - 1, f"profile at t={t:g} missing"))
        return bad


def make(name: str, seed: int, iterations: int | None, workdir: Path):
    spec = SPECS[name]
    budget = spec.iterations if iterations is None else iterations
    if spec.data is None:
        return CliWorkload(spec, seed, budget, workdir)
    return ShockWorkload(spec, seed, budget)


def _probe(argv) -> int:
    import tempfile

    name, seed = argv[0], int(argv[1])
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        make(name, seed, None, Path(tmp)).prepare()
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_probe(sys.argv[1:]))
