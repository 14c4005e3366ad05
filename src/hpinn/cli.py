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
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from .autodiff import EvaluationError
from .model import Discretization, TrainingConfig, TrainingDivergedError, march
from .network import NetworkConfig
from .pde import PdeSpec, burgers
from .refsolver import SolverConfig, reference_on_grid, solve
from .weno import WenoConstants

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

_DEFAULTS = {
    "pde": {
        "viscosity": 0.0,
        "domain": [-1.0, 1.0],
        "boundary_value": 0.0,
    },
    "discretization": {
        "n_points": 300,
        "dt": 0.1,
        "q_stages": 10,
        "mask_dilation": 3,
        "indicator": {
            "eps": 1e-40,
            "delta": 1e-4,
            "power": 6,
            "threshold": 5e-4,
        },
    },
    "network": {"layers": 5, "width": 20, "seed": 0},
    "training": {
        "learning_rate": 1e-4,
        "tolerance": 1e-5,
        "max_iterations": 200_000,
        "warm_start": True,
        "loss_reduction": "mean",
    },
    "reference": {"n_cells": 1000, "cfl": 0.4},
    "outputs": {
        "t_final": 0.6,
        "profile_times": [0.6],
        "directory": "out",
    },
}


def _merge(defaults, given, path=""):
    if not isinstance(given, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping")
    out = {}
    for key, base in defaults.items():
        here = f"{path}.{key}" if path else key
        if key not in given:
            out[key] = base
        elif isinstance(base, dict):
            out[key] = _merge(base, given[key], here)
        else:
            out[key] = given[key]
    for key in given:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"{here}: unknown field")
    return out


def _need_number(cfg, path, positive=False):
    node = cfg
    for part in path.split("."):
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {node!r}")
    if positive and node <= 0:
        raise ConfigError(f"{path}: must be positive, got {node!r}")
    return float(node)


@dataclasses.dataclass
class Experiment:
    pde: PdeSpec
    disc: Discretization
    network: NetworkConfig
    training: TrainingConfig
    ref_n_cells: int
    ref_cfl: float
    t_final: float
    profile_times: tuple
    out_dir: Path
    resolved: dict


def load_config(path, out_override=None, seed_override=None) -> Experiment:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text(), Loader=_Loader)
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    cfg = _merge(_DEFAULTS, raw or {})

    domain = cfg["pde"]["domain"]
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2):
        raise ConfigError("pde.domain: expected [left, right]")
    nu = _need_number(cfg, "pde.viscosity")
    if nu < 0:
        raise ConfigError("pde.viscosity: must be nonnegative")
    bval = _need_number(cfg, "pde.boundary_value")
    pde = dataclasses.replace(
        burgers(nu), domain=(float(domain[0]), float(domain[1])), boundary_value=bval
    )

    consts = WenoConstants(
        eps=_need_number(cfg, "discretization.indicator.eps", positive=True),
        delta=_need_number(cfg, "discretization.indicator.delta", positive=True),
        p=int(_need_number(cfg, "discretization.indicator.power", positive=True)),
        c_t=_need_number(cfg, "discretization.indicator.threshold", positive=True),
    )
    disc = Discretization(
        n_points=int(_need_number(cfg, "discretization.n_points", positive=True)),
        dt=_need_number(cfg, "discretization.dt", positive=True),
        q_stages=int(_need_number(cfg, "discretization.q_stages", positive=True)),
        mask_dilation=int(_need_number(cfg, "discretization.mask_dilation")),
        constants=consts,
    )
    if disc.n_points < 8:
        raise ConfigError("discretization.n_points: need at least 8 points")

    seed = int(_need_number(cfg, "network.seed")) if seed_override is None else int(seed_override)
    cfg["network"]["seed"] = seed
    network = NetworkConfig(
        hidden_layers=int(_need_number(cfg, "network.layers", positive=True)),
        width=int(_need_number(cfg, "network.width", positive=True)),
        outputs=disc.q_stages + 1,
        seed=seed,
    )

    reduction = cfg["training"]["loss_reduction"]
    if reduction not in ("mean", "sum"):
        raise ConfigError("training.loss_reduction: expected 'mean' or 'sum'")
    if not isinstance(cfg["training"]["warm_start"], bool):
        raise ConfigError("training.warm_start: expected true/false")
    training = TrainingConfig(
        learning_rate=_need_number(cfg, "training.learning_rate", positive=True),
        loss_tolerance=_need_number(cfg, "training.tolerance", positive=True),
        max_iterations=int(_need_number(cfg, "training.max_iterations", positive=True)),
        warm_start=cfg["training"]["warm_start"],
        loss_reduction=reduction,
    )

    t_final = _need_number(cfg, "outputs.t_final", positive=True)
    times = cfg["outputs"]["profile_times"]
    if not isinstance(times, (list, tuple)) or not times:
        raise ConfigError("outputs.profile_times: expected a nonempty list")
    profile_times = tuple(sorted(float(t) for t in times))
    if profile_times[-1] > t_final + 1e-12:
        raise ConfigError("outputs.profile_times: beyond t_final")

    ref_n_cells = int(_need_number(cfg, "reference.n_cells", positive=True))
    ref_cfl = _need_number(cfg, "reference.cfl", positive=True)
    try:  # the solver's own checks, before any training is spent
        SolverConfig(pde=pde, n_cells=ref_n_cells, cfl=ref_cfl)
    except ValueError as err:
        raise ConfigError(f"reference: {err}") from err

    out_dir = Path(out_override) if out_override is not None else Path(cfg["outputs"]["directory"])
    cfg["outputs"]["directory"] = str(out_dir)
    return Experiment(
        pde=pde,
        disc=disc,
        network=network,
        training=training,
        ref_n_cells=ref_n_cells,
        ref_cfl=ref_cfl,
        t_final=t_final,
        profile_times=profile_times,
        out_dir=out_dir,
        resolved=cfg,
    )


# -- output helpers ------------------------------------------------------------


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
    return f"{v:.17g}"


def _profile_name(prefix: str, t: float) -> str:
    return f"{prefix}_t{t:g}.csv"


# -- verbs ---------------------------------------------------------------------


def _run_experiment(exp: Experiment, column: str, hybrid: bool) -> int:
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    disc = dataclasses.replace(exp.disc, hybrid_enabled=hybrid)
    log_records = [{"config": exp.resolved, "mode": column}]

    def on_step(diag):
        rec = {
            "step": diag.step,
            "t_start": diag.t_start,
            "iterations": diag.iterations,
            "final_loss": diag.final_loss,
            "loss_pde": diag.loss_pde,
            "loss_bc": diag.loss_bc,
            "flagged_cells": diag.flagged_cells,
            "converged": diag.converged,
            "wall_time": diag.wall_time,
        }
        log_records.append(rec)
        print(
            f"step {diag.step}: iterations={diag.iterations} loss={diag.final_loss:.3e} "
            f"flagged={diag.flagged_cells} converged={diag.converged}",
            flush=True,
        )

    result = march(
        exp.pde, disc, exp.network, exp.training,
        t_final=exp.t_final, eval_times=exp.profile_times,
        ref_n_cells=exp.ref_n_cells, ref_cfl=exp.ref_cfl, on_step=on_step,
    )

    for t in exp.profile_times:
        if t <= 0.0:
            continue
        k = int(round(t / exp.disc.dt))
        pred = result.fields[k]
        ref_interp = reference_on_grid(result.reference[t], pred)
        rows = [
            (_fmt(xi), _fmt(ui), _fmt(ri))
            for xi, ui, ri in zip(pred.x, pred.values, ref_interp)
        ]
        _atomic_write(exp.out_dir / _profile_name("profile", t), _csv(rows, ("x", column, "u_ref")))

    err_rows = [(_fmt(t), _fmt(result.errors[t])) for t in exp.profile_times if t > 0.0]
    _atomic_write(exp.out_dir / "errors.csv", _csv(err_rows, ("time", "rel_error")))
    log_records.append({"errors": {str(t): result.errors[t] for t in result.errors}})
    _atomic_write(
        exp.out_dir / "diagnostics.jsonl",
        "\n".join(json.dumps(rec) for rec in log_records) + "\n",
    )
    for t in exp.profile_times:
        if t > 0.0:
            print(f"t={t:g}: rel_error={result.errors[t]:.6e}")
    return EXIT_OK


def cmd_run(exp: Experiment) -> int:
    return _run_experiment(exp, "u_hpinn", hybrid=True)


def cmd_baseline(exp: Experiment) -> int:
    return _run_experiment(exp, "u_pinn_baseline", hybrid=False)


def cmd_reference(exp: Experiment) -> int:
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    times = tuple(t for t in exp.profile_times if t > 0.0)
    config = SolverConfig(
        pde=exp.pde, n_cells=exp.ref_n_cells, cfl=exp.ref_cfl,
        t_final=exp.t_final, snapshot_times=times,
    )
    got_times, fields = solve(config)
    for t, f in zip(got_times, fields):
        rows = [(_fmt(xi), _fmt(ui)) for xi, ui in zip(f.x, f.values)]
        _atomic_write(exp.out_dir / _profile_name("reference", t), _csv(rows, ("x", "u")))
        print(f"reference profile written for t={t:g}")
    return EXIT_OK


def _cell_seed(base: int, q: int, dt: float, nu: float) -> int:
    key = f"{base}|{q}|{dt!r}|{nu!r}".encode()
    return zlib.crc32(key) & 0x7FFFFFFF


def _sweep_cell(args):
    """One (q, dt, nu) cell; returns a row dict (picklable for --jobs)."""
    config_path, out_dir, base_seed, q, dt, nu = args
    try:
        exp = load_config(config_path, out_override=out_dir)
        cell_seed = _cell_seed(base_seed, q, dt, nu)
        pde = dataclasses.replace(exp.pde, viscosity=nu)
        disc = dataclasses.replace(exp.disc, dt=dt, q_stages=q)
        net = NetworkConfig(
            hidden_layers=exp.network.hidden_layers, width=exp.network.width,
            outputs=q + 1, seed=cell_seed,
        )
        result = march(
            pde, disc, net, exp.training, t_final=exp.t_final,
            eval_times=(exp.t_final,), ref_n_cells=exp.ref_n_cells, ref_cfl=exp.ref_cfl,
        )
        iterations = sum(d.iterations for d in result.diagnostics)
        converged = all(d.converged for d in result.diagnostics)
        return {
            "q": q, "dt": dt, "nu": nu,
            "rel_error": _fmt(result.errors[exp.t_final]),
            "iterations": str(iterations),
            "converged": str(converged).lower(),
            "error": "",
        }
    except Exception as err:  # failures recorded in-row, sweep continues
        return {
            "q": q, "dt": dt, "nu": nu,
            "rel_error": "", "iterations": "0", "converged": "false",
            "error": str(err).replace(",", ";"),
        }


def cmd_sweep(exp: Experiment, config_path, qs, dts, nus, jobs: int, base_seed: int) -> int:
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    cells = [
        (str(config_path), str(exp.out_dir), base_seed, q, dt, nu)
        for q in qs for dt in dts for nu in nus
    ]
    workers = min(jobs, len(cells))  # the pool starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

    rows.sort(key=lambda r: (r["q"], r["dt"], -r["nu"]))
    table = [
        (str(r["q"]), _fmt(r["dt"]), _fmt(r["nu"]), r["rel_error"],
         r["iterations"], r["converged"], r["error"])
        for r in rows
    ]
    _atomic_write(
        exp.out_dir / "sweep.csv",
        _csv(table, ("q", "dt", "nu", "rel_error", "iterations", "converged", "error")),
    )
    for r in table:
        print(f"q={r[0]} dt={r[1]} nu={r[2]}: rel_error={r[3] or 'FAILED'} ({r[6]})".rstrip(" ()"))
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
        if args.verb == "run":
            return cmd_run(exp)
        if args.verb == "baseline":
            return cmd_baseline(exp)
        if args.verb == "reference":
            return cmd_reference(exp)
        seed = exp.network.seed if args.seed is None else args.seed
        return cmd_sweep(exp, args.config, args.q, args.dt, args.nu, args.jobs, seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDivergedError, EvaluationError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
