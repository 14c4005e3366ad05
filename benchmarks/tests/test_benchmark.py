"""The benchmark's own tests.

    python3 -m pytest -q benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hpinn.cli
import hpinn.model
import hpinn.network
import hpinn.refsolver
import tracing
import workloads
from hpinn.autodiff import Graph

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_ITERATIONS = 2


def make(name, seed, tmp_path, iterations=SMOKE_ITERATIONS):
    return workloads.make(name, seed, iterations, tmp_path)


def flag_pattern(workload):
    return [
        hpinn.model.step_state(f, t, workload.pde, workload.disc).mask.flags
        for f, t in zip(workload.fields[:-1], workload.times[:-1])
    ]


@pytest.mark.parametrize("name", ["shock-inviscid-q10", "shock-viscous-q50"])
def test_same_seed_same_inputs_flags_and_losses(name, tmp_path):
    a, b = make(name, 3, tmp_path), make(name, 3, tmp_path)
    for fa, fb in zip(a.fields, b.fields):
        assert np.array_equal(fa.values, fb.values)
    flags = flag_pattern(a)
    assert all(np.array_equal(x, y) for x, y in zip(flags, flag_pattern(b)))
    assert [int(f.sum() > 0) for f in flags] == [0, 0, 0] + [1] * 7
    ra, rb = a.rep(), b.rep()
    assert not ra.failures and not rb.failures
    assert ra.loss_sum == rb.loss_sum and ra.rel_l2_final == rb.rel_l2_final
    assert make(name, 4, tmp_path).rep().loss_sum != ra.loss_sum


def test_frozen_data_matches_the_collocation_grid():
    fields, times, nu = workloads.load_shock_data("viscous")
    assert len(fields) == len(times) == workloads.N_STEPS + 1
    assert np.allclose(times, np.arange(11) * workloads.DT)
    assert len(fields[0]) == 300 and fields[0].x[0] == -1.0 and np.isclose(fields[0].x[-1], 1.0)
    assert nu == 1e-4 / np.pi


def test_cli_workload_same_seed_same_config_and_losses(tmp_path):
    a = make("baseline-viscous-q10", 1, tmp_path / "a")
    b = make("baseline-viscous-q10", 1, tmp_path / "b")
    assert a.config.read_text() == b.config.read_text()
    ra, rb = a.rep(), b.rep()
    assert not ra.failures and not rb.failures
    assert ra.loss_sum == rb.loss_sum and ra.rel_l2_final == rb.rel_l2_final
    assert all(d.flagged_cells == 0 for d in ra.diagnostics)


def wrapped_targets():
    names = [
        (Graph, "refresh"), (Graph, "backward"), (hpinn.model.Adam, "step"),
        (hpinn.model, "build_loss_graph"), (hpinn.model, "train_step"),
        (hpinn.model, "step_state"), (hpinn.model, "discontinuity_flags"),
        (hpinn.model, "gauss_legendre_tableau"), (hpinn.irk, "gauss_legendre_tableau"),
        (hpinn.model, "init_xavier"), (hpinn.network, "init_xavier"),
        (hpinn.model, "march"), (hpinn.cli, "march"), (hpinn.cli, "load_config"),
        (hpinn.model, "solve"), (hpinn.refsolver, "tvd_rk3_step"),
        (hpinn.model, "relative_error"), (hpinn.refsolver, "relative_error"),
    ]
    return {key: getattr(*key) for key in names}


def test_tracing_restores_every_wrapped_function(tmp_path):
    before = wrapped_targets()
    tracer = tracing.Tracer()
    workload = make("baseline-viscous-q10", 0, tmp_path)
    with tracer.active():
        inside = wrapped_targets()
        rep = workload.rep()
    assert all(inside[k] is not before[k] for k in before)
    assert wrapped_targets() == before
    assert not rep.failures
    with pytest.raises(RuntimeError):
        with tracer.active():
            raise RuntimeError("boom")
    assert wrapped_targets() == before


def test_traced_rep_trains_the_same_trajectory(tmp_path):
    workload = make("shock-inviscid-q10", 0, tmp_path)
    plain = workload.rep()
    with tracing.Tracer().active() as trace:
        traced = workload.rep()
    assert (plain.loss_sum, plain.rel_l2_final) == (traced.loss_sum, traced.rel_l2_final)
    assert len(trace.steps) == workloads.N_STEPS
    assert len(trace.times["refresh"]) == workloads.N_STEPS * SMOKE_ITERATIONS


def test_gate_rejects_a_step_whose_loss_grew():
    diag = hpinn.model.StepDiagnostics(
        step=0, t_start=0.0, iterations=5, initial_loss=1.0, final_loss=2.0, loss_pde=1.0,
        loss_bc=1.0, flagged_cells=0, converged=False, wall_time=0.1)
    short = hpinn.model.StepDiagnostics(**{**diag.__dict__, "final_loss": 0.5, "iterations": 4})
    bad = workloads.check_steps([diag, short], budget=5)
    assert [s for s, _ in bad] == [0, 1] + list(range(2, workloads.N_STEPS))


def test_traced_run_of_a_failing_program_reports_the_failure(monkeypatch, capsys):
    import run

    def diverging_step(*args, **kwargs):
        raise FloatingPointError("step diverged")

    monkeypatch.setattr(hpinn.model, "train_step", diverging_step)
    code = run.main(["--workload", "shock-inviscid-q10", "--seed", "0", "--seconds", "0",
                     "--trace", "1", "--iterations", str(SMOKE_ITERATIONS)])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == run.EXIT_INCORRECT
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
    assert any(line.startswith("# FAILED") and "step diverged" in line for line in out)
    assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace,
                     "--iterations", str(SMOKE_ITERATIONS))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "shock-inviscid-q10", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_keeps_to_its_format():
    import re

    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SPECS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


def test_calibration_scale_is_a_positive_speed_ratio():
    import calibration

    cal = calibration.Calibration()
    out, scale = cal.around(lambda: "done")
    assert out == "done" and 0.1 < scale < 10.0
