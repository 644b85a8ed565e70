"""Host speed, measured beside the benchmark and divided out of its times.

The reference host is a 2-vCPU VM whose speed changes as other tenants
load the machine: by 20-40% between runs minutes apart, and by as much
within a second.  CPU time tracks wall time, so it is not steal time:
every instruction is slower.  A drift that outlasts a run cannot be
averaged away inside the run.

So the benchmark times a fixed calibration kernel between the pieces of
its work (between the solves of a frame, between the simulations of a
generation, after every operation and warm-up), leaves that time out of
every operation, and reports every time on the reference speed scale:

    reported = measured * REFERENCE_MS / kernel time near that moment

The kernel uses none of this repository's code, so a change to the
program moves the reported times exactly as it moves the measured ones,
while a slow phase of the host slows both and cancels.  It mixes what
the solve workloads do: Python-level object, dict and list work, and
small dense NumPy/SciPy kernels (QR, matrix products, triangular solves)
on one BLAS thread.  Frame times follow it closely.  The cycle
simulator, which accelerator generation spends its time in, follows it
only in part: between runs on a drifting host, a generation's time grew
as about the 0.4-0.7th power of the kernel's, and a pure-Python
event-loop kernel followed it no better.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

import numpy as np
from scipy.linalg import solve_triangular

# The host's speed changes phase within a second, so an operation's
# speed is the median of the kernel samples taken during it, or of the
# WINDOW samples nearest to it when fewer were taken during it.
WINDOW = 9
# At most one kernel sample per this much work, taken at the next
# ``pause``: a ~1 ms kernel adds at most about 3% on top of the timed
# work, never counted in it.  One sample per pause, never two in a row:
# the first run of the kernel after other work finds its code and data
# out of the caches, as the work does after the kernel, and those cold
# runs follow the host's speed closer than warm repeats do.
WORK_MS_PER_SAMPLE = 30.0

_RNG = np.random.default_rng(20240427)
_MATRICES = [_RNG.standard_normal((n, n)) + n * np.eye(n)
             for n in (3, 6, 6, 9, 12, 12)]
_VECTORS = [_RNG.standard_normal(m.shape[0]) for m in _MATRICES]


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.children = []


def _object_work() -> int:
    table = {}
    root = _Node(0, 0)
    nodes = [root]
    for i in range(300):
        node = _Node(i % 37, i)
        nodes[i % len(nodes)].children.append(node)
        nodes.append(node)
        table[(node.key, i % 5)] = table.get((node.key, i % 5), 0) + 1
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        total += node.value + len(node.children)
        stack.extend(node.children)
    return total + sum(table.values())


def _small_arrays() -> float:
    total = 0.0
    for _ in range(3):
        for a, b in zip(_MATRICES, _VECTORS):
            q, r = np.linalg.qr(a)
            x = solve_triangular(r, q.T @ b)
            total += float(np.dot(a @ x, b))
    return total


def kernel() -> float:
    """One calibration sample's work (about 1 ms)."""
    return _object_work() + _small_arrays()


# The kernel time, in ms, at which reported times equal measured ones:
# about a cold run's median on the reference host in a quiet phase (a
# warm repeat takes about 1.0 ms there).
REFERENCE_MS = 1.3


class HostSpeed:
    """Kernel samples taken through a run, and the scale they give."""

    def __init__(self) -> None:
        self.times_ns: List[int] = []
        self.kernel_ms: List[float] = []
        # Time spent sampling since the last ``take_sampling_ns``.
        self.sampling_ns = 0
        # Work done since the last sample, and since when it is counted.
        self.owed_ns = 0
        self.work_started_ns = time.perf_counter_ns()
        kernel()  # the first call pays for NumPy/SciPy's lazy set-up

    def start(self) -> None:
        """Work starts now (the time since the last pause was not work)."""
        self.work_started_ns = time.perf_counter_ns()

    def pause(self) -> None:
        """A point between two pieces of work: take a sample when
        WORK_MS_PER_SAMPLE of work has passed since ``start`` or the last
        sample."""
        self.owed_ns += time.perf_counter_ns() - self.work_started_ns
        if self.owed_ns >= WORK_MS_PER_SAMPLE * 1e6:
            self.owed_ns = 0
            started = time.perf_counter_ns()
            kernel()
            ended = time.perf_counter_ns()
            self.times_ns.append((started + ended) // 2)
            self.kernel_ms.append((ended - started) / 1e6)
            self.sampling_ns += ended - started
        self.work_started_ns = time.perf_counter_ns()

    def take_sampling_ns(self) -> int:
        spent, self.sampling_ns = self.sampling_ns, 0
        return spent

    def scale(self, start_ns: int, end_ns: int) -> float:
        """REFERENCE_MS over the median kernel time of the samples taken
        between ``start_ns`` and ``end_ns``, or of the WINDOW samples
        nearest to that span when fewer were."""
        times = self.times_ns
        lo = bisect.bisect_left(times, start_ns)
        hi = bisect.bisect_right(times, end_ns)
        middle = (start_ns + end_ns) // 2
        while hi - lo < WINDOW and (lo > 0 or hi < len(times)):
            if lo > 0 and (hi == len(times) or
                           middle - times[lo - 1] <= times[hi] - middle):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_MS / statistics.median(self.kernel_ms[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.kernel_ms)
