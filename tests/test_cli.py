import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from hpinn import cli
from hpinn.model import Discretization, StepDiagnostics, TrainingConfig, TrainingDivergedError
from hpinn.network import NetworkConfig
from hpinn.pde import PdeSpec, burgers
from hpinn.refsolver import SolverConfig, reference_on_grid, solve
from hpinn.weno import GridField

TINY = {
    "pde": {"viscosity": 0.0},
    "discretization": {"n_points": 48, "dt": 0.5, "q_stages": 1},
    "network": {"layers": 2, "width": 8, "seed": 0},
    "training": {"max_iterations": 120},
    "reference": {"n_cells": 64},
    "outputs": {"t_final": 0.5, "profile_times": [0.5]},
}


class Overflowing(PdeSpec):
    """Burgers with its flux scaled by 1e200, which overflows a reference solve's
    first step; at module level, so a march's worker process can unpickle it."""

    @staticmethod
    def flux(u):
        return 1.0e200 * PdeSpec.flux(u)


def write_config(tmp_path, overrides=None, name="config.yaml"):
    cfg = yaml.safe_load(yaml.safe_dump(TINY))
    for section, fields in (overrides or {}).items():
        cfg.setdefault(section, {}).update(fields)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.yaml"
        code = cli.main(["run", "--config", str(path)])
        assert code == 2
        want = f"config error: cannot read {path}: [Errno 2] No such file or directory"
        assert want in capsys.readouterr().err

    def test_directory_is_not_a_config(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path)])
        assert code == 2
        want = f"config error: cannot read {tmp_path}: [Errno 21] Is a directory"
        assert want in capsys.readouterr().err

    def test_unknown_field_names_path(self, tmp_path, capsys):
        path = write_config(tmp_path, {"training": {"learning_rte": 1e-4}})
        code = cli.main(["run", "--config", str(path)])
        assert code == 2
        assert "training.learning_rte" in capsys.readouterr().err

    @pytest.mark.parametrize("section,fields,where", [
        ("pde", {"source": "zero"}, "pde.source"),
        ("outputs", {"format": "csv"}, "outputs.format"),
        ("discretization", {"indicator": {"on_flux": False}}, "discretization.indicator"),
        ("discretization", {"indicator": {"eps": 1e-40}}, "discretization.indicator"),
        ("discretization", {"indicator": {"delta": 1e-4}}, "discretization.indicator"),
        ("discretization", {"indicator": {"power": 6}}, "discretization.indicator"),
        ("discretization", {"indicator": {"threshold": 5e-4}}, "discretization.indicator"),
        ("discretization", {"mask_dilation": 3}, "discretization.mask_dilation"),
        # the walls hold 0, the domain is [-1, 1] and every step warm-starts
        ("pde", {"boundary_value": 0.0}, "pde.boundary_value"),
        ("pde", {"domain": [-1.0, 1.0]}, "pde.domain"),
        ("training", {"warm_start": True}, "training.warm_start"),
        # a reversed, non-numeric, one-ended or infinite domain is unknown
        # before it is malformed
        ("pde", {"domain": [1.0, -1.0]}, "pde.domain"),
        ("pde", {"domain": ["a", 1]}, "pde.domain"),
        ("pde", {"domain": [0.0]}, "pde.domain"),
        ("pde", {"domain": [-1.0, float("inf")]}, "pde.domain"),
    ])
    def test_keys_without_a_setting_are_unknown(self, tmp_path, capsys, section, fields, where):
        path = write_config(tmp_path, {section: fields})
        assert cli.main(["run", "--config", str(path)]) == 2
        assert f"{where}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("directory", [5, None, True, ["a", "b"], {"x": 1},
                                           pytest.param("", id="empty")])
    def test_non_string_output_directory_names_path(self, tmp_path, capsys, monkeypatch,
                                                     directory):
        path = write_config(tmp_path, {"outputs": {"directory": directory}})
        monkeypatch.chdir(tmp_path)  # where Path("") would write
        assert cli.main(["reference", "--config", str(path)]) == 2
        want = f"config error: outputs.directory: expected a path string, got {directory!r}"
        assert want in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == [path.name]
        # --out replaces the key unread, as --seed does network.seed
        assert cli.main(["reference", "--config", str(path), "--out", str(tmp_path / "x")]) == 0

    def test_empty_out_flag_names_it(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["reference", "--config", str(path), "--out", ""]) == 2
        assert "config error: --out: expected a path string, got ''" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == [path.name]

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

    def test_top_level_list(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- pde\n- training\n")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config error: config: expected a mapping" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        # only an empty document (YAML null) takes every default: a false
        # document that is not a mapping is refused like a list
        for text in ("0\n", "[]\n", "false\n", "''\n"):
            path.write_text(text)
            code = cli.main(["reference", "--config", str(path), "--out", str(tmp_path / "x")])
            assert code == 2, text
            assert "config error: config: expected a mapping" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_profile_beyond_t_final(self, tmp_path):
        path = write_config(tmp_path, {"outputs": {"profile_times": [0.9]}})
        assert cli.main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("overrides,flags,message", [
        ({"outputs": {"profile_times": [0.3]}}, [],
         "outputs.profile_times: eval time 0.3 does not land on a step boundary"),
        ({"outputs": {"t_final": 0.75}}, [],
         "outputs.t_final: t_final=0.75 is not a multiple of dt=0.5"),
        ({"outputs": {"profile_times": ["abc"]}}, [],
         "outputs.profile_times: expected a number, got 'abc'"),
        ({"outputs": {"t_final": 1.0, "profile_times": [-0.5, 1.0]}}, [],
         "outputs.profile_times: eval time -0.5 does not land on a step boundary"),
        ({"pde": {"viscosity": -0.1}}, [], "pde: viscosity must be finite and nonnegative"),
        ({"pde": {"viscosity": "a"}}, [], "pde.viscosity: expected a number, got 'a'"),
        ({"discretization": {"q_stages": 101}}, [],
         "discretization.q_stages: stage count must be in [1, 100], got 101"),
        ({"network": {"seed": -1}}, [], "network: seed must be nonnegative, got -1"),
        ({}, ["--seed", "-1"], "network: seed must be nonnegative, got -1"),
        # nothing is trained to compare at t = 0
        ({"outputs": {"profile_times": [0.0, 0.5]}}, [],
         "outputs.profile_times: eval time 0.0 does not land on a step boundary in (0, 0.5]"),
        ({"training": {"loss_reduction": "median"}}, [],
         "training: loss_reduction must be 'mean' or 'sum'"),
        ({"outputs": {"profile_times": 0.5}}, [],
         "outputs.profile_times: expected a nonempty list"),
        ({"discretization": {"dt": 0.0}}, [],
         "discretization: dt must be finite and positive, got 0.0"),
        ({"outputs": {"profile_times": []}}, [],
         "outputs.profile_times: expected a nonempty list"),
        # t_final and an eval time are step boundaries to the same 1e-12
        ({"outputs": {"profile_times": [0.5000000001]}}, [],
         "outputs.profile_times: eval time 0.5000000001 does not land on a step boundary"
         " in (0, 0.5]"),
        # t_final / dt overflows to inf, which is no step count
        ({"discretization": {"dt": 1.0e-300},
          "outputs": {"t_final": 1.0e300, "profile_times": [1.0e300]}}, [],
         "outputs.t_final: t_final=1e+300 is not a multiple of dt=1e-300"),
    ])
    def test_setting_the_package_rejects(self, tmp_path, capsys, overrides, flags, message):
        # the package's own checks (PdeSpec, NetworkConfig, TrainingConfig,
        # the tableau's stage range, march's step boundaries) and the
        # parser's shape checks run before any training
        path = write_config(tmp_path, overrides)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x"), *flags])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("verb", ["reference", "run"])
    @pytest.mark.parametrize("setting,message", [
        # the Courant number is refsolver.CFL, not a setting; the id is kept
        # so the case stays traceable to the range check it replaces
        pytest.param({"cfl": 50.0}, "reference.cfl: unknown field",
                     id="setting0-cfl must lie in (0, 1]"),
        ({"n_cells": 8}, "need at least 16 cells"),
    ])
    def test_reference_setting_the_solver_rejects(self, tmp_path, capsys, verb, setting,
                                                  message):
        path = write_config(tmp_path, {"reference": setting})
        code = cli.main([verb, "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # rejected before any work

    @pytest.mark.parametrize("section,fields,where", [
        # a fraction below one passes the positivity check
        ("discretization", {"q_stages": 0.5}, "discretization.q_stages"),
        ("discretization", {"n_points": 48.5}, "discretization.n_points"),
        ("discretization", {"q_stages": 10.9}, "discretization.q_stages"),
        # below the 8-point minimum, but reported as fractional first
        ("discretization", {"n_points": 7.5}, "discretization.n_points"),
        ("network", {"seed": 0.5}, "network.seed"),
        ("network", {"layers": 2.5}, "network.layers"),
        ("network", {"width": 20.5}, "network.width"),
        ("training", {"max_iterations": 120.5}, "training.max_iterations"),
        ("reference", {"n_cells": 64.5}, "reference.n_cells"),
    ])
    def test_fractional_integer_setting_names_path(self, tmp_path, capsys, section, fields,
                                                   where):
        path = write_config(tmp_path, {section: fields})
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{where}: expected an integer" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section,fields,where,reason", [
        ("training", {"tolerance": float("nan")}, "training.tolerance", "expected a finite number"),
        ("pde", {"viscosity": float("nan")}, "pde.viscosity", "expected a finite number"),
        ("training", {"learning_rate": float("inf")}, "training.learning_rate",
         "expected a finite number"),
        # a deleted key is refused by name before its value is read
        ("reference", {"cfl": float("nan")}, "reference.cfl", "unknown field"),
        ("outputs", {"t_final": float("inf")}, "outputs.t_final", "expected a finite number"),
    ], ids=["training-fields0-training.tolerance", "pde-fields1-pde.viscosity",
            "training-fields2-training.learning_rate", "reference-fields3-reference.cfl",
            "outputs-fields4-outputs.t_final"])
    def test_non_finite_number_names_path(self, tmp_path, capsys, section, fields, where,
                                          reason):
        path = write_config(tmp_path, {section: fields})  # written as .nan / .inf
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"config error: {where}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_that_is_not_utf8_names_path(self, tmp_path, capsys):
        path = tmp_path / "utf16.yaml"
        path.write_bytes(b"\xff\xfe" + "pde: {viscosity: 0.0}\n".encode("utf-16-le"))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"config error: cannot read {path}: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("verb", ["run", "baseline", "reference", "sweep"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_output_directory_that_cannot_be_made_exits_2(self, tmp_path, capsys,
                                                          monkeypatch, verb, under):
        def no_work(*args, **kwargs):
            raise AssertionError("nothing may be trained or solved")

        monkeypatch.setattr(cli, "march", no_work)
        monkeypatch.setattr(cli, "solve", no_work)
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n")
        out = blocker / "x" if under else blocker
        swept = ["--dt", "0.5"] if verb == "sweep" else []  # the default dts do not divide 0.5
        code = cli.main([verb, "--config", str(write_config(tmp_path)), "--out", str(out), *swept])
        assert code == 2
        assert f"config error: cannot create output directory {out}: " in capsys.readouterr().err
        assert blocker.read_text() == "a file\n"

    @pytest.mark.parametrize("verb", ["run", "baseline", "reference", "sweep"])
    def test_output_directory_with_a_nul_byte_exits_2(self, tmp_path, capsys, monkeypatch,
                                                      verb):
        def no_work(*args, **kwargs):
            raise AssertionError("nothing may be trained or solved")

        monkeypatch.setattr(cli, "march", no_work)
        monkeypatch.setattr(cli, "solve", no_work)
        out = f"{tmp_path}/a\0b"  # no path may hold a NUL byte
        path = write_config(tmp_path, {"outputs": {"directory": out}})
        swept = ["--dt", "0.5"] if verb == "sweep" else []
        assert cli.main([verb, "--config", str(path), *swept]) == 2
        want = f"config error: cannot create output directory {out}: embedded null byte"
        assert want in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == [path.name]

    def test_empty_file_takes_the_types_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        exp = cli.load_config(path)
        assert exp.pde == burgers()
        assert exp.disc == Discretization()
        assert exp.network == NetworkConfig(outputs=11)
        assert exp.training == TrainingConfig()
        assert exp.n_cells == SolverConfig.n_cells

    def test_integral_float_settings_are_integers(self, tmp_path):
        path = tmp_path / "floats.yaml"
        path.write_text("training: {max_iterations: 2.0e5}\n"
                        "discretization: {q_stages: 10.0}\n")
        exp = cli.load_config(path)
        assert exp.training.max_iterations == 200000
        assert type(exp.training.max_iterations) is int
        assert exp.disc.q_stages == 10 and exp.network.outputs == 11

    def test_echo_holds_the_typed_values(self, tmp_path):
        # each setting takes the kind of its default, and the echo holds it
        path = tmp_path / "kinds.yaml"
        path.write_text("training: {max_iterations: 2.0e5}\npde: {viscosity: 0}\n")
        resolved = cli.load_config(path).resolved
        assert json.dumps(resolved["training"]["max_iterations"]) == "200000"
        assert json.dumps(resolved["pde"]["viscosity"]) == "0.0"

    def test_yaml_exponent_literals_are_numbers(self, tmp_path):
        # YAML 1.2 floats; PyYAML's YAML 1.1 resolver reads them as strings
        path = tmp_path / "exp.yaml"
        path.write_text("training: {tolerance: 2e-5, learning_rate: 3E-4}\n"
                        "pde: {viscosity: +1e-2}\n")
        exp = cli.load_config(path)
        assert exp.training.loss_tolerance == 2e-5
        assert exp.training.learning_rate == 3e-4
        assert exp.pde.viscosity == 0.01

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

    def test_step_records_carry_every_step_diagnostic(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "diagnostics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        steps = [rec for rec in records if "step" in rec]
        assert steps
        fields = [f.name for f in dataclasses.fields(StepDiagnostics)]
        assert all(list(rec) == fields for rec in steps)

    def test_repeated_profile_times_pair_each_profile_with_its_own_reference(self, tmp_path):
        path = write_config(tmp_path, {"discretization": {"dt": 0.25},
                                       "training": {"max_iterations": 5},
                                       "outputs": {"profile_times": [0.25, 0.25, 0.5]}})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "errors.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.25", "0.5"]
        exp = cli.load_config(path)
        _, snapshots = solve(SolverConfig(
            exp.pde, exp.n_cells, t_final=0.5, snapshot_times=(0.25, 0.5)))
        grid = exp.pde.initial_field(exp.disc.n_points)
        for t, snapshot in zip((0.25, 0.5), snapshots):
            profile = np.loadtxt(out / f"profile_t{t:g}.csv", delimiter=",", skiprows=1)
            pred = GridField(profile[:, 1], grid.x0, grid.dx)
            assert np.array_equal(profile[:, 0], pred.x)
            assert np.array_equal(profile[:, 2], reference_on_grid(snapshot, pred))

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
            FloatingPointError("reference solve went non-finite at t=0.5"),
        )
        for failure in failures:
            def explode(*args, failure=failure, **kwargs):
                raise failure

            monkeypatch.setattr(cli, "march", explode)
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
            assert code == 3, type(failure).__name__
            assert "numerical failure" in capsys.readouterr().err


    def test_reference_that_overflows_in_its_worker_exits_3(self, tmp_path, monkeypatch,
                                                            capsys):
        # the worker's FloatingPointError reaches the verb as itself; `baseline`
        # trains a plain PINN, which never evaluates the flux
        monkeypatch.setattr(cli, "_PDE", Overflowing(cli._PDE.viscosity))
        path = write_config(tmp_path, {"training": {"max_iterations": 5}})
        code = cli.main(["baseline", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: reference solve went non-finite at t=0" in err
        assert "Traceback" not in err


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

    def test_one_profile_per_step_boundary(self, tmp_path, capsys):
        # two floats naming one step boundary: one line, one file, at the smaller
        path = write_config(tmp_path, {"outputs": {"profile_times": [
            float(np.nextafter(0.5, 1.0)), 0.5]}})
        out = tmp_path / "ref"
        assert cli.main(["reference", "--config", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == ["reference profile written for t=0.5"]
        assert [f.name for f in out.iterdir()] == ["reference_t0.5.csv"]

    def test_non_finite_solve_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_PDE", Overflowing(cli._PDE.viscosity))
        path = write_config(tmp_path)
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

    def test_cell_failure_recorded_in_row(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        out = tmp_path / "sweepfail"

        def failing_march(*args, **kwargs):
            raise RuntimeError("the cell's march failed")

        # the march fails inside the cell, and the sweep survives
        monkeypatch.setattr(cli, "march", failing_march)
        code = cli.main(
            ["sweep", "--config", str(path), "--out", str(out),
             "--q", "1", "--dt", "0.5", "--nu", "0.0"]
        )
        assert code == 0
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[3] == ""  # no rel_error
        assert row[5] == "false"
        assert row[6] == "the cell's march failed"

    def test_printed_lines_of_a_failed_and_a_finished_cell(self, tmp_path, monkeypatch,
                                                           capsys):
        def march(pde, disc, *args, t_final, **kwargs):
            if disc.dt == 0.25:
                raise RuntimeError("diverged (step 1)")
            return SimpleNamespace(errors={t_final: 0.125}, diagnostics=[])

        monkeypatch.setattr(cli, "march", march)
        out = tmp_path / "s"
        code = cli.main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(out),
                         "--q", "1", "--dt", "0.1", "0.25", "--nu", "0.0"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "q=1 dt=0.1 nu=0.0: rel_error=0.125",
            "q=1 dt=0.25 nu=0.0: rel_error=FAILED (diverged (step 1))",
        ]
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[:4] for row in rows] == [["1", "0.1", "0.0", "0.125"],
                                             ["1", "0.25", "0.0", ""]]

    @pytest.mark.parametrize("swept,message", [
        (["--q", "1", "--dt", "0.25", "0.4", "0.3", "0", "--nu", "0.0"],
         "--dt: 0.4, 0.3, 0.0 does not divide t_final=0.5"),
        (["--q", "0", "1", "101", "--dt", "0.25", "--nu", "0.0"],
         "--q: 0, 101 is not a stage count in [1, 100]"),
        (["--q", "1", "--dt", "0.25", "--nu", "0.0", "-0.1", "-0.01", "nan", "inf"],
         "--nu: -0.1, -0.01, nan, inf is not a nonnegative viscosity"),
        # t_final / dt overflows to inf, which is no step count
        (["--q", "1", "--dt", "1e-320", "--nu", "0.0"],
         "--dt: 1e-320 does not divide t_final=0.5"),
    ], ids=["dt", "q", "nu", "dt-overflow"])
    def test_rejected_swept_values_exit_2(self, tmp_path, monkeypatch, capsys, swept,
                                          message):
        def march(*args, **kwargs):
            raise AssertionError("no cell may run")

        monkeypatch.setattr(cli, "march", march)
        out = tmp_path / "s"
        code = cli.main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(out),
                         *swept])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset,code", [("inviscid", 2), ("viscous", 2), ("sweep", 0)])
    def test_default_dts_against_the_shipped_presets(self, tmp_path, serial_pool, preset, code):
        # t_final = 1.0 is not a multiple of 0.3 or 0.6; the sweep preset's 0.6 is
        path = Path(__file__).resolve().parents[1] / "configs" / f"{preset}.yaml"
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == code

    def test_config_is_read_once(self, tmp_path, monkeypatch):
        # a config edited during a long sweep must not change its later cells
        loads, load = [], cli.load_config

        def counted_load(*args, **kwargs):
            loads.append(args)
            return load(*args, **kwargs)

        def march(*args, t_final, **kwargs):
            return SimpleNamespace(errors={t_final: 0.125}, diagnostics=[])

        monkeypatch.setattr(cli, "load_config", counted_load)
        monkeypatch.setattr(cli, "march", march)
        out = tmp_path / "s"
        code = cli.main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(out),
                         "--q", "1", "2", "--dt", "0.5", "0.25", "--nu", "0.0"])
        assert code == 0
        assert len(loads) == 1
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[3] for row in rows] == ["0.125"] * 4

    def test_repeated_swept_values_run_once(self, tmp_path, monkeypatch):
        calls = []

        def march(pde, disc, *args, t_final, **kwargs):
            calls.append((disc.q_stages, disc.dt, pde.viscosity))
            return SimpleNamespace(errors={t_final: 0.125}, diagnostics=[])

        monkeypatch.setattr(cli, "march", march)
        out = tmp_path / "s"
        code = cli.main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(out),
                         "--q", "1", "1", "--dt", "0.5", "0.5", "--nu", "0.0", "0.0"])
        assert code == 0
        assert calls == [(1, 0.5, 0.0)]
        assert len((out / "sweep.csv").read_text().splitlines()) == 2  # header and one row

    def test_negative_zero_viscosity_is_the_zero_cell(self, tmp_path):
        # the cell's seed hashes repr(nu), and repr(-0.0) is not repr(0.0)
        path = write_config(tmp_path, {"training": {"max_iterations": 2}})
        rows = {}
        for nus in (["0.0"], ["-0.0"], ["-0.0", "0.0"]):
            out = tmp_path / "_".join(nus)
            assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                             "--q", "1", "--dt", "0.5", "--nu", *nus]) == 0
            rows[" ".join(nus)] = (out / "sweep.csv").read_bytes().splitlines()[1:]
        assert len(rows["0.0"]) == 1 and rows["0.0"][0].split(b",")[2] == b"0.0"
        assert rows["-0.0"] == rows["0.0"]
        assert rows["-0.0 0.0"] == rows["0.0"]

    def test_rows_are_written_in_table_order(self, tmp_path, monkeypatch):
        # q and dt ascending, nu descending, whatever order the flags give
        calls = []

        def march(pde, disc, *args, t_final, **kwargs):
            calls.append((disc.q_stages, disc.dt, pde.viscosity))
            return SimpleNamespace(errors={t_final: 0.125}, diagnostics=[])

        monkeypatch.setattr(cli, "march", march)
        out = tmp_path / "s"
        code = cli.main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(out),
                         "--q", "2", "1", "2", "--dt", "0.5", "0.25", "--nu", "0.0", "0.01"])
        assert code == 0
        order = [(q, dt, nu) for q in (1, 2) for dt in (0.25, 0.5) for nu in (0.01, 0.0)]
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [(int(r[0]), float(r[1]), float(r[2])) for r in rows] == order
        assert calls == order  # the cells run in that order too

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
            _, q, dt, nu = cell
            return (str(q), repr(dt), repr(nu), "0.5", "1", "true", "")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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


def test_shipped_presets_load():
    # a preset that still carries a deleted key fails as an unknown field
    presets = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    assert presets
    for path in presets:
        exp = cli.load_config(path)
        assert (exp.disc.n_points, exp.disc.q_stages, exp.disc.dt) == (300, 10, 0.1), path
        assert exp.training.loss_reduction == "sum", path


def run_fresh_interpreter(*args):
    # the child imports the same package as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_installed_entry_point_smoke():
    proc = run_fresh_interpreter("-m", "hpinn.cli", "run", "--config", "/nonexistent.yaml")
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_package_imports_no_scipy():
    # the runtime needs numpy and pyyaml only; scipy is the tests' oracle
    proc = run_fresh_interpreter(
        "-c", "import sys, hpinn, hpinn.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_imports_no_process_pool():
    # a march with eval times and a parallel sweep (--jobs N>1) import the
    # pool when they start one; importing the package loads none
    proc = run_fresh_interpreter(
        "-c", "import sys, hpinn, hpinn.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_spawned_reference_worker_writes_the_same_bytes(tmp_path):
    # the worker that solves the reference starts from a fresh import under
    # "spawn" (and "forkserver"), so everything it is sent must pickle
    path = write_config(tmp_path, {"training": {"max_iterations": 20}})
    default, spawned = tmp_path / "default", tmp_path / "spawned"
    assert cli.main(["run", "--config", str(path), "--out", str(default)]) == 0
    proc = run_fresh_interpreter(
        "-c", "import multiprocessing, sys; multiprocessing.set_start_method('spawn'); "
        "from hpinn import cli; sys.exit(cli.main(sys.argv[1:]))",
        "run", "--config", str(path), "--out", str(spawned))
    assert proc.returncode == 0, proc.stderr
    for name in ("errors.csv", "profile_t0.5.csv"):
        assert (spawned / name).read_bytes() == (default / name).read_bytes(), name
