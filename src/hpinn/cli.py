"""Experiment runner: single runs, Table-style (q, dt, nu) sweeps, plain-PINN
baselines and reference-solver exports, all driven by one YAML config.

Exit codes: 0 ok, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import zlib
from pathlib import Path

import numpy as np
import yaml

from .irk import MAX_STAGES, check_stage_count
from .model import Discretization, TrainingConfig, TrainingDivergedError, march, step_count
from .network import NetworkConfig
from .pde import PdeSpec, burgers
from .refsolver import SolverConfig, solve

__all__ = ["main", "load_config", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEP_Q = (1, 4, 10, 50)
SWEEP_DT = (0.1, 0.3, 0.6)
SWEEP_NU = (1e-4 / np.pi, 0.0)


class ConfigError(ValueError):
    pass


# -- configuration ------------------------------------------------------------


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats such as 1e-5 and 3e2.

    YAML 1.1, which PyYAML follows, wants a dot and a signed exponent, so it
    reads those as strings.  Quoted scalars stay strings.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)

# Each setting's default is its type's own; only the outputs have no type.
# The defaults are also the schema: `_merge` checks a value against its default's kind.
_PDE, _DISC, _NET, _TRAIN = burgers(), Discretization(), NetworkConfig(), TrainingConfig()
_DEFAULTS = {
    "pde": {"viscosity": _PDE.viscosity},
    "discretization": {"n_points": _DISC.n_points, "dt": _DISC.dt, "q_stages": _DISC.q_stages},
    "network": {"layers": _NET.hidden_layers, "width": _NET.width, "seed": _NET.seed},
    "training": {
        "learning_rate": _TRAIN.learning_rate,
        "tolerance": _TRAIN.loss_tolerance,
        "max_iterations": _TRAIN.max_iterations,
        "loss_reduction": _TRAIN.loss_reduction,
    },
    "reference": {"n_cells": SolverConfig.n_cells},
    "outputs": {"t_final": 0.6, "profile_times": [0.6], "directory": "out"},
}


def _kind(base, node, path):
    """`node` as the kind of its default `base`; the range is for the type
    that takes it to check.

    An int takes an integral, finite number, which YAML may also write as
    2.0e5; a float takes a finite number and a list a nonempty list of
    numbers.  A string is left to the type or check that owns it.
    """
    if isinstance(base, str):
        return node
    if isinstance(base, list):
        if not isinstance(node, list) or not node:
            raise ConfigError(f"{path}: expected a nonempty list")
        return [_kind(base[0], item, path) for item in node]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {node!r}")
    if not abs(node) <= sys.float_info.max:  # exact for ints of any size
        raise ConfigError(f"{path}: expected a finite number, got {node!r}")
    if isinstance(base, float):
        return float(node)
    if not float(node).is_integer():
        raise ConfigError(f"{path}: expected an integer, got {float(node)!r}")
    return int(node)


def _merge(defaults, given, overrides, path=""):
    """`given` over `defaults`, each value checked by `_kind`; a non-None
    value in `overrides` (`--seed`, `--out`) takes its key's place unread."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping")
    for key in given:
        if key not in defaults:
            raise ConfigError(f"{path}.{key}: unknown field" if path else f"{key}: unknown field")
    out = {}
    for key, base in defaults.items():
        here = f"{path}.{key}" if path else key
        if isinstance(base, dict):
            out[key] = _merge(base, given.get(key, {}), overrides.get(key, {}), here)
        elif overrides.get(key) is not None:
            out[key] = overrides[key]
        else:
            out[key] = _kind(base, given[key], here) if key in given else base
    return out


def _checked(path, build, *args, **kwargs):
    """build(*args, **kwargs), with its ValueError as a ConfigError naming `path`.

    The package's own types check their values; this reports their verdict
    before any work is spent.
    """
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


@dataclasses.dataclass
class Experiment:
    pde: PdeSpec
    disc: Discretization
    network: NetworkConfig
    training: TrainingConfig
    n_cells: int  # the reference solver's
    t_final: float
    profile_times: tuple  # sorted, one per step boundary (`model.step_count`)
    out_dir: Path
    resolved: dict


def load_config(path, out_override=None, seed_override=None) -> Experiment:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    if out_override is not None:
        out_override = str(out_override)
    overrides = {"network": {"seed": seed_override}, "outputs": {"directory": out_override}}
    cfg = _merge(_DEFAULTS, {} if raw is None else raw, overrides)  # None: an empty document

    pde = _checked("pde", dataclasses.replace, _PDE, **cfg["pde"])
    disc = _checked("discretization", Discretization, **cfg["discretization"])
    _checked("discretization.q_stages", check_stage_count, disc.q_stages)
    net, train = dict(cfg["network"]), dict(cfg["training"])
    network = _checked("network", NetworkConfig, hidden_layers=net.pop("layers"),
                       outputs=disc.q_stages + 1, **net)
    training = _checked("training", TrainingConfig, loss_tolerance=train.pop("tolerance"),
                        **train)

    t_final, times = cfg["outputs"]["t_final"], cfg["outputs"]["profile_times"]
    _checked("outputs.t_final", step_count, t_final, disc.dt)
    _, steps = _checked("outputs.profile_times", step_count, t_final, disc.dt, times)

    n_cells = cfg["reference"]["n_cells"]
    _checked("reference", SolverConfig, pde=pde, n_cells=n_cells)

    out_dir = cfg["outputs"]["directory"]
    if not isinstance(out_dir, str) or not out_dir:  # Path("") is the current directory
        where = "outputs.directory" if out_override is None else "--out"
        raise ConfigError(f"{where}: expected a path string, got {out_dir!r}")
    cfg["outputs"]["directory"] = str(Path(out_dir))
    return Experiment(
        pde=pde,
        disc=disc,
        network=network,
        training=training,
        n_cells=n_cells,
        t_final=t_final,
        profile_times=tuple(steps.values()),
        out_dir=Path(out_dir),
        resolved=cfg,
    )


# -- output helpers ------------------------------------------------------------


def _make_out_dir(path: Path):
    """Create `path`; a path that cannot be a directory is a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:  # ValueError: a NUL byte, which no path may hold
        reason = getattr(err, "strerror", None) or err
        raise ConfigError(f"cannot create output directory {path}: {reason}") from err


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return repr(float(v))  # the shortest text that reads back as the same float


def _profile_name(prefix: str, t: float) -> str:
    return f"{prefix}_t{t:g}.csv"


# -- verbs ---------------------------------------------------------------------


def _run_experiment(exp: Experiment, hybrid: bool) -> int:
    _make_out_dir(exp.out_dir)
    column = "u_hpinn" if hybrid else "u_pinn_baseline"
    disc = dataclasses.replace(exp.disc, hybrid_enabled=hybrid)
    log_records = [{"config": exp.resolved, "mode": column}]

    def on_step(diag):
        log_records.append(dataclasses.asdict(diag))
        print(
            f"step {diag.step}: iterations={diag.iterations} loss={diag.final_loss:.3e} "
            f"flagged={diag.flagged_cells} converged={diag.converged}",
            flush=True,
        )

    result = march(
        exp.pde, disc, exp.network, exp.training,
        t_final=exp.t_final, eval_times=exp.profile_times,
        n_cells=exp.n_cells, on_step=on_step,
    )

    for t, (pred, ref) in result.profiles.items():
        rows = [
            (_fmt(xi), _fmt(ui), _fmt(ri))
            for xi, ui, ri in zip(pred.x, pred.values, ref.values)
        ]
        _atomic_write(exp.out_dir / _profile_name("profile", t), _csv(rows, ("x", column, "u_ref")))

    err_rows = [(_fmt(t), _fmt(err)) for t, err in result.errors.items()]
    _atomic_write(exp.out_dir / "errors.csv", _csv(err_rows, ("time", "rel_error")))
    log_records.append({"errors": {str(t): err for t, err in result.errors.items()}})
    _atomic_write(
        exp.out_dir / "diagnostics.jsonl",
        "\n".join(json.dumps(rec) for rec in log_records) + "\n",
    )
    for t, err in result.errors.items():
        print(f"t={t:g}: rel_error={err:.6e}")
    return EXIT_OK


def cmd_reference(exp: Experiment) -> int:
    _make_out_dir(exp.out_dir)
    got_times, fields = solve(SolverConfig(
        exp.pde, exp.n_cells, t_final=exp.t_final, snapshot_times=exp.profile_times))
    for t, f in zip(got_times, fields):
        rows = [(_fmt(xi), _fmt(ui)) for xi, ui in zip(f.x, f.values)]
        _atomic_write(exp.out_dir / _profile_name("reference", t), _csv(rows, ("x", "u")))
        print(f"reference profile written for t={t:g}")
    return EXIT_OK


def _cell_seed(base: int, q: int, dt: float, nu: float) -> int:
    key = f"{base}|{q}|{dt!r}|{nu!r}".encode()
    return zlib.crc32(key) & 0x7FFFFFFF


def _sweep_cell(args):
    """One (q, dt, nu) cell of the loaded experiment, as its sweep.csv row of
    strings; cell and row pickle for --jobs."""
    exp, q, dt, nu = args
    cell = (str(q), _fmt(dt), _fmt(nu))
    try:
        result = march(
            dataclasses.replace(exp.pde, viscosity=nu),
            dataclasses.replace(exp.disc, dt=dt, q_stages=q),
            dataclasses.replace(exp.network, seed=_cell_seed(exp.network.seed, q, dt, nu)),
            exp.training, t_final=exp.t_final, eval_times=(exp.t_final,),
            n_cells=exp.n_cells,
        )
        iterations = sum(d.iterations for d in result.diagnostics)
        converged = all(d.converged for d in result.diagnostics)
        return (*cell, _fmt(result.errors[exp.t_final]), str(iterations),
                str(converged).lower(), "")
    except Exception as err:  # failures recorded in-row, sweep continues
        return (*cell, "", "0", "false", str(err).replace(",", ";"))


def _check_swept(flag, values, check, reason):
    """Raise a ConfigError naming `flag` and every value `check` rejects.

    The package's own checks decide, so a value no cell could run is
    reported before any cell runs.
    """
    bad = []
    for value in values:
        try:
            check(value)
        except ValueError:
            bad.append(repr(value))
    if bad:
        raise ConfigError(f"{flag}: {', '.join(bad)} {reason}")


def cmd_sweep(exp: Experiment, qs, dts, nus, jobs: int) -> int:
    # a repeated value would train the same cell, with the same seed, twice
    nus = [nu + 0.0 for nu in nus]  # -0.0 is the cell 0.0; the seed hashes repr(nu)
    qs, dts, nus = (list(dict.fromkeys(values)) for values in (qs, dts, nus))
    _check_swept("--q", qs, check_stage_count, f"is not a stage count in [1, {MAX_STAGES}]")
    _check_swept("--dt", dts, lambda dt: step_count(exp.t_final, dt),
                 f"does not divide t_final={_fmt(exp.t_final)}")
    _check_swept("--nu", nus, lambda nu: dataclasses.replace(exp.pde, viscosity=nu),
                 "is not a nonnegative viscosity")
    _make_out_dir(exp.out_dir)
    # cells run, and their rows are written, in the table's order
    cells = [(exp, q, dt, nu) for q in sorted(qs) for dt in sorted(dts)
             for nu in sorted(nus, reverse=True)]
    workers = min(jobs, len(cells))  # the pool starts every worker at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # as `march` does: no import-time cost
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

    _atomic_write(
        exp.out_dir / "sweep.csv",
        _csv(rows, ("q", "dt", "nu", "rel_error", "iterations", "converged", "error")),
    )
    for r in rows:
        print(f"q={r[0]} dt={r[1]} nu={r[2]}: rel_error={r[3] or 'FAILED'}"
              + (f" ({r[6]})" if r[6] else ""))
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parser():
    parser = argparse.ArgumentParser(
        prog="hpinn",
        description="Hybrid PINN experiments for 1-D Burgers-type equations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep", "baseline", "reference"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if verb == "sweep":
            p.add_argument("--jobs", type=_positive_int, default=1, help="parallel sweep cells")
            p.add_argument("--q", type=int, nargs="+", default=list(SWEEP_Q))
            p.add_argument("--dt", type=float, nargs="+", default=list(SWEEP_DT))
            p.add_argument("--nu", type=float, nargs="+", default=list(SWEEP_NU))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        exp = load_config(args.config, out_override=args.out, seed_override=args.seed)
        if args.verb == "reference":
            return cmd_reference(exp)
        if args.verb == "sweep":
            return cmd_sweep(exp, args.q, args.dt, args.nu, args.jobs)
        return _run_experiment(exp, hybrid=args.verb == "run")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDivergedError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
