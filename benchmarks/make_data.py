"""Regenerate the frozen inputs of the shock workloads.

Writes ``benchmarks/data/shock_reference.npz``: the WENO-Z reference solution
of inviscid and viscous (nu = 1e-4/pi) Burgers on the 300-point collocation
grid at t = 0, 0.1, ..., 1.0.  ``SolverConfig(n_cells=300)`` lays its cells
exactly on the training grid, so the snapshots are the step data as they are,
with no interpolation.

The file is committed so that a later change to the solver does not silently
change the shock workloads' inputs.  Regenerating it is a benchmark change:
update ``DATA_SHA256`` in ``workloads.py`` with the digest this script prints.

    python3 benchmarks/make_data.py
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hpinn import SolverConfig, burgers, solve  # noqa: E402

N_POINTS = 300
TIMES = tuple(round(0.1 * k, 10) for k in range(11))
VISCOSITIES = {"inviscid": 0.0, "viscous": 1e-4 / np.pi}
DATA_FILE = HERE / "data" / "shock_reference.npz"


def generate() -> dict:
    arrays = {"times": np.array(TIMES)}
    for name, nu in VISCOSITIES.items():
        config = SolverConfig(pde=burgers(nu), n_cells=N_POINTS, t_final=TIMES[-1],
                              snapshot_times=TIMES)
        _, fields = solve(config)
        arrays[name] = np.stack([f.values for f in fields])
        arrays[f"{name}_nu"] = np.array(nu)
        arrays["x0"], arrays["dx"] = np.array(fields[0].x0), np.array(fields[0].dx)
    return arrays


def main() -> int:
    buf = io.BytesIO()
    np.savez(buf, **generate())
    DATA_FILE.parent.mkdir(parents=True, exist_ok=True)
    DATA_FILE.write_bytes(buf.getvalue())
    print(f"wrote {DATA_FILE.name} sha256={hashlib.sha256(buf.getvalue()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
