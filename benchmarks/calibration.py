"""Machine speed, measured right around each timed piece of work.

The 2-vCPU machine this benchmark was tuned on runs the same rep anywhere
between 3 and 5.3 s within minutes, from contention that neither process CPU
time nor steal time shows.  A fixed kernel timed right before and right after
each rep follows those swings; a rep's wall time multiplied by
``REFERENCE_S / kernel time`` is its time at the reference speed.

The kernel imitates the program's hot loop without importing it: a chain of
Python closures, each one small numpy operation on a (20, 300) array, re-run
in order like ``Graph.refresh``.  No change to the package can move it.

Set-up time (a fresh interpreter up to the first training call) swings as
much, and the kernel does not follow it.  Each set-up probe is therefore
paired with a reference process that only runs REFERENCE_IMPORT: the
third-party imports that take about 90% of the probe's time at the commit of
baseline.json.  A probe's time multiplied by ``REFERENCE_IMPORT_S /
reference time`` is its time at the reference speed; a change to the
package's own imports moves the probe and not the reference.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.013  # one chunk on the machine of baseline.json
REFERENCE_IMPORT = "import numpy, scipy.interpolate; print('ready', flush=True)"
REFERENCE_IMPORT_S = 0.75  # REFERENCE_IMPORT in a fresh interpreter on that machine
CHUNKS = 9
NODES = 60
SWEEPS = 15


class _Node:
    __slots__ = ("data", "fwd")


def _chain():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((20, 20)) * 0.2
    first = _Node()
    first.data, first.fwd = rng.standard_normal((20, 300)) * 0.1, None
    nodes, prev = [first], first
    for k in range(NODES):
        out = _Node()
        out.data = None
        if k % 3 == 0:
            def fwd(out=out, p=prev):
                out.data = np.tanh(w @ p.data)
        elif k % 3 == 1:
            def fwd(out=out, p=prev):
                out.data = p.data * 1.01 + 0.1
        else:
            def fwd(out=out, p=prev):
                out.data = p.data - p.data * p.data * 0.1
        out.fwd = fwd
        nodes.append(out)
        prev = out
    return [n.fwd for n in nodes if n.fwd is not None]


class Calibration:
    def __init__(self):
        self._fwds = _chain()
        self.measure()  # the first call pays for warming up

    def _chunk(self) -> float:
        t0 = time.perf_counter()
        for _ in range(SWEEPS):
            for fwd in self._fwds:
                fwd()
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Median kernel time over CHUNKS runs, in seconds."""
        return statistics.median(self._chunk() for _ in range(CHUNKS))

    def around(self, fn):
        """``fn()`` and REFERENCE_S over the mean kernel time right before and after it."""
        before = self.measure()
        out = fn()
        return out, REFERENCE_S / (0.5 * (before + self.measure()))
