"""The benchmark's view of the package, checked on every test run.

``benchmarks/workloads.py`` drives the package through its public names and
``benchmarks/tracing.py`` wraps some of them by attribute name, so removing
or renaming one breaks the benchmark.  The benchmark's own suite
(``python3 -m pytest -q benchmarks/tests``) takes over a minute and is not
part of this one; this module runs one tiny traced rep of every workload.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_traced_rep_runs_clean(name, tmp_path):
    workload = workloads.make(name, 0, 2, tmp_path)
    with tracing.Tracer().active() as trace:
        result = workload.rep()
    assert result.failures == []
    assert result.iterations == 2 * workloads.N_STEPS
    assert len(trace.steps) == workloads.N_STEPS and trace.refresh_nodes > 0
    replay = tracing.replay(trace.steps[-1], calls=1)
    assert replay.net_nodes > 0 and replay.full_nodes >= replay.plain_nodes
