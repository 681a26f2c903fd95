"""Machine pace: a fixed reference workload timed between jobs.

The shared machine the benchmark was tuned on changes speed by up to 1.7x
in spells of tens of seconds to minutes, in CPU time as much as in wall
time, and every kind of work slows together.  No statistic inside one run
removes a spell that lasts the whole run.  So the harness times this
module's reference work, which is the benchmark's own code and never calls
the program, between jobs (outside their timers), and scales each job's
latency by how fast the reference ran near it:

    paced latency = raw latency x REFERENCE_S / local reference time

A paced second is a second on a machine that runs the reference in
``REFERENCE_S``.  A change to the program moves paced times as it moves raw
ones; a change in the machine's speed moves the reference too and cancels.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0045  # typical reference time on the tuning machine; a fixed scale
EVERY_S = 0.25  # job time between two reference timings
WINDOW = 4  # a job is paced by the median of the 2*WINDOW+1 nearest timings
_SMALL = np.linspace(0.0, 1.0, 64)
# buffers allocated once, so the reference's time does not depend on the
# state the jobs left the allocator in
_U = np.empty((8192, 8))
_ROW = np.empty(8192)
_GRID = np.empty((512, 512), dtype=bool)
_PREFIX = np.empty((512, 512), dtype=bool)


def _reference_work() -> float:
    """The ingredients of the workloads' jobs, in fixed sizes."""
    gen = np.random.Generator(np.random.Philox(key=7))
    gen.random(out=_U)  # Monte Carlo draws and a row reduction
    total = float(np.max(_U, axis=1, out=_ROW).sum())
    np.less_equal(_U[:512, :1], _U[None, :512, 1], out=_GRID)  # dense boolean tabulation
    total += float(np.logical_or.accumulate(_GRID, axis=1, out=_PREFIX).sum())
    for i in range(300):  # many small array calls, as in the analytic solvers
        total += float(np.cumsum(_SMALL * (i + 1))[-1])
    acc = 0
    for i in range(15000):  # interpreter work, as in argument parsing and JSON
        acc += (i * i) % 7
    return total + acc


def reference() -> float:
    """Seconds the reference work takes now, after one untimed pass warms the caches."""
    _reference_work()
    ts = perf_counter()
    _reference_work()
    return perf_counter() - ts


class Pacer:
    """Reference timings taken along a stream of jobs, and the pace of each job."""

    def __init__(self):
        self.at: list[int] = []  # index of the job each timing preceded
        self.times: list[float] = []
        self._since = EVERY_S

    def before(self, job_index: int, busy_since_last: float) -> None:
        """Time the reference before job ``job_index`` when enough job time passed."""
        self._since += busy_since_last
        if self._since >= EVERY_S:
            self.at.append(job_index)
            self.times.append(reference())
            self._since = 0.0

    def scale(self, job_index: int) -> float:
        """REFERENCE_S over the median of the timings nearest to the job."""
        k = max(bisect_right(self.at, job_index) - 1, 0)
        near = self.times[max(k - WINDOW, 0):k + WINDOW + 1]
        return REFERENCE_S / statistics.median(near)

    def run_scale(self) -> float:
        """REFERENCE_S over the median of every timing of the run."""
        return REFERENCE_S / statistics.median(self.times)


def settle_scale(count: int = 2 * WINDOW + 1) -> float:
    """REFERENCE_S over the median of ``count`` timings taken now."""
    return REFERENCE_S / statistics.median(reference() for _ in range(count))
