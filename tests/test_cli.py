import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from hpinn import cli
from hpinn.autodiff import EvaluationError
from hpinn.model import TrainingDivergedError

TINY = {
    "pde": {"viscosity": 0.0},
    "discretization": {"n_points": 48, "dt": 0.5, "q_stages": 1},
    "network": {"layers": 2, "width": 8, "seed": 0},
    "training": {"max_iterations": 120},
    "reference": {"n_cells": 64},
    "outputs": {"t_final": 0.5, "profile_times": [0.5]},
}


def write_config(tmp_path, overrides=None, name="config.yaml"):
    cfg = yaml.safe_load(yaml.safe_dump(TINY))
    for section, fields in (overrides or {}).items():
        cfg.setdefault(section, {}).update(fields)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_field_names_path(self, tmp_path, capsys):
        path = write_config(tmp_path, {"training": {"learning_rte": 1e-4}})
        code = cli.main(["run", "--config", str(path)])
        assert code == 2
        assert "training.learning_rte" in capsys.readouterr().err

    @pytest.mark.parametrize("section,fields,where", [
        ("pde", {"source": "zero"}, "pde.source"),
        ("outputs", {"format": "csv"}, "outputs.format"),
        ("discretization", {"indicator": {"on_flux": False}},
         "discretization.indicator.on_flux"),
    ])
    def test_keys_without_a_setting_are_unknown(self, tmp_path, capsys, section, fields, where):
        path = write_config(tmp_path, {section: fields})
        assert cli.main(["run", "--config", str(path)]) == 2
        assert f"{where}: unknown field" in capsys.readouterr().err

    def test_bad_type_names_path(self, tmp_path, capsys):
        path = write_config(tmp_path, {"discretization": {"dt": "soon"}})
        code = cli.main(["run", "--config", str(path)])
        assert code == 2
        assert "discretization.dt" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("pde: [unclosed")
        code = cli.main(["run", "--config", str(path)])
        assert code == 2

    def test_profile_beyond_t_final(self, tmp_path):
        path = write_config(tmp_path, {"outputs": {"profile_times": [0.9]}})
        assert cli.main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("verb", ["reference", "run"])
    @pytest.mark.parametrize("setting,message", [
        ({"cfl": 50.0}, "cfl must lie in (0, 1]"),
        ({"n_cells": 8}, "need at least 16 cells"),
    ])
    def test_reference_setting_the_solver_rejects(self, tmp_path, capsys, verb, setting,
                                                  message):
        path = write_config(tmp_path, {"reference": setting})
        code = cli.main([verb, "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # rejected before any work

    def test_yaml_exponent_literals_are_numbers(self, tmp_path):
        # YAML 1.2 floats; PyYAML's YAML 1.1 resolver reads them as strings
        path = tmp_path / "exp.yaml"
        path.write_text("training: {tolerance: 2e-5, learning_rate: 3E-4}\n"
                        "pde: {domain: [-1e0, 1e0]}\n")
        exp = cli.load_config(path)
        assert exp.training.loss_tolerance == 2e-5
        assert exp.training.learning_rate == 3e-4
        assert exp.pde.domain == (-1.0, 1.0)

    def test_quoted_exponent_literal_stays_a_string(self, tmp_path, capsys):
        path = tmp_path / "quoted.yaml"
        path.write_text("training: {tolerance: '1e-5'}\n")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "training.tolerance: expected a number, got '1e-5'" in capsys.readouterr().err


class TestRun:
    def test_artifacts_and_determinism(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(out2)]) == 0

        profile = out1 / "profile_t0.5.csv"
        errors = out1 / "errors.csv"
        log = out1 / "diagnostics.jsonl"
        assert profile.is_file() and errors.is_file() and log.is_file()
        header = profile.read_text().splitlines()[0]
        assert header == "x,u_hpinn,u_ref"
        assert errors.read_text().splitlines()[0] == "time,rel_error"
        # identical config and seed: byte-identical artifacts
        assert profile.read_bytes() == (out2 / "profile_t0.5.csv").read_bytes()
        assert errors.read_bytes() == (out2 / "errors.csv").read_bytes()

    def test_config_echoed_in_diagnostics(self, tmp_path):
        import json

        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        first = json.loads((out / "diagnostics.jsonl").read_text().splitlines()[0])
        assert first["config"]["discretization"]["n_points"] == 48
        assert first["config"]["training"]["learning_rate"] == pytest.approx(1e-4)

    def test_seed_override_changes_profiles(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "s0", tmp_path / "s1"
        assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(out2), "--seed", "9"]) == 0
        a = (out1 / "profile_t0.5.csv").read_bytes()
        b = (out2 / "profile_t0.5.csv").read_bytes()
        assert a != b

    def test_numerical_failure_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path)
        failures = (
            TrainingDivergedError("non-finite loss at step 0", iteration=17),
            EvaluationError("near-zero divisor in node 'div'"),
        )
        for failure in failures:
            def explode(*args, failure=failure, **kwargs):
                raise failure

            monkeypatch.setattr(cli, "march", explode)
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
            assert code == 3, type(failure).__name__
            assert "numerical failure" in capsys.readouterr().err

    def test_near_zero_divisor_exits_3(self, tmp_path, capsys):
        # a threshold no point can meet flags every point, and eps below the
        # divisor guard leaves beta + eps ~ 0 on the all-ghost stencils
        indicator = {"eps": 1.0e-320, "threshold": 0.3}
        path = write_config(tmp_path, {"discretization": {"indicator": indicator}})
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "near-zero divisor" in err
        # the graph build evaluates the first loss: step 0, before any update
        assert "step 0 (t=0)" in err
        assert "iteration 0" in err


class TestBaseline:
    def test_baseline_column_name(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "base"
        assert cli.main(["baseline", "--config", str(path), "--out", str(out)]) == 0
        header = (out / "profile_t0.5.csv").read_text().splitlines()[0]
        assert header == "x,u_pinn_baseline,u_ref"


class TestReference:
    def test_reference_profiles(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "ref"
        assert cli.main(["reference", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "reference_t0.5.csv").read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 1 + 64  # one row per reference cell

    def test_non_finite_solve_exits_3(self, tmp_path, capsys):
        # the boundary ghosts' flux overflows in the first step
        path = write_config(tmp_path, {"pde": {"boundary_value": 1.0e200}})
        code = cli.main(["reference", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "reference solve went non-finite at t=0" in err
        assert "Traceback" not in err


class TestSweep:
    def test_tiny_grid_schema(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = cli.main(
            ["sweep", "--config", str(path), "--out", str(out),
             "--q", "1", "--dt", "0.5", "0.25", "--nu", "0.0"]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "q,dt,nu,rel_error,iterations,converged,error"
        assert len(lines) == 3  # header + 2 cells

    def test_cell_failure_recorded_in_row(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "sweepfail"
        # dt = 0.4 does not divide t_final = 0.5: the cell fails, sweep survives
        code = cli.main(
            ["sweep", "--config", str(path), "--out", str(out),
             "--q", "1", "--dt", "0.4", "--nu", "0.0"]
        )
        assert code == 0
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[3] == ""  # no rel_error
        assert row[5] == "false"
        assert row[6] != ""

    def test_parallel_jobs_match_serial(self, tmp_path):
        path = write_config(tmp_path)
        serial, parallel = tmp_path / "ser", tmp_path / "par"
        args = ["--q", "1", "--dt", "0.5", "--nu", "0.0", "0.01"]
        assert cli.main(["sweep", "--config", str(path), "--out", str(serial)] + args) == 0
        assert cli.main(
            ["sweep", "--config", str(path), "--out", str(parallel), "--jobs", "2"] + args
        ) == 0
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """Pool sizes the sweep asks for; cells run in-process as stubs."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        def stub_cell(cell):
            _, _, _, q, dt, nu = cell
            return {"q": q, "dt": dt, "nu": nu, "rel_error": "0.5", "iterations": "1",
                    "converged": "true", "error": ""}

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "_sweep_cell", stub_cell)
        return sizes

    @pytest.mark.parametrize("jobs,cells,pool", [("64", 3, [3]), ("2", 3, [2]), ("8", 1, [])])
    def test_pool_is_capped_at_the_cell_count(self, tmp_path, serial_pool, jobs, cells, pool):
        dts = ["0.5", "0.25", "0.1"][:cells]
        code = cli.main(["sweep", "--config", str(write_config(tmp_path)),
                         "--out", str(tmp_path / "s"), "--jobs", jobs,
                         "--q", "1", "--nu", "0.0", "--dt", *dts])
        assert code == 0
        assert serial_pool == pool
        assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == 1 + cells

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, serial_pool, capsys, jobs):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "--config", str(write_config(tmp_path)),
                      "--out", str(tmp_path / "s"), "--jobs", jobs, "--q", "1"])
        assert exit_info.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert serial_pool == [] and not (tmp_path / "s").exists()


def test_installed_entry_point_smoke():
    # the child imports the same package as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hpinn.cli", "run", "--config", "/nonexistent.yaml"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr
