"""Host-speed scaling for the end-to-end times.

The benchmark runs on shared hosts whose CPU speed drifts: a fixed loop of
plain Python can run 1.5-2x slower for stretches of seconds to minutes, and
every part of dolrm slows with it. Raw wall times of the same code then
spread by more than the benchmark's bounds from run to run.

So the end-to-end times are scaled to a host of fixed speed. Between timed
regions the benchmark runs ``kernel()``, a fixed loop of plain Python that
shares no code with dolrm, and records how long it took. A timed region that
ran from ``start`` to ``end`` is multiplied by ``REFERENCE_KERNEL_NS / k``,
where ``k`` is the median kernel time over the samples taken from
``MARGIN_NS`` before ``start`` to ``MARGIN_NS`` after ``end``. A change to
dolrm moves the scaled time as much as the raw one; a change in the host's
speed moves the kernel too and cancels out. The kernel's own time is never
inside a timed region: callers take ``spent_ns`` off what they time.
"""

from __future__ import annotations

import bisect
import statistics
import time

# The kernel's median time on the 2-core Xeon the baselines were recorded on,
# so scaled times read close to raw ones there.
REFERENCE_KERNEL_NS = 800_000
MARGIN_NS = 1_000_000_000
REPS = 3


def kernel(n: int = 4000) -> float:
    """About 0.8 ms of float arithmetic, modulo and list indexing."""
    acc = 0.0
    buf = [0.0] * 64
    for i in range(n):
        x = (i * 0.5 + acc) % 7.0
        acc += x * 1.0001 - 0.5 * buf[i & 63]
        buf[i & 63] = x
    return acc


class HostSpeed:
    """Kernel samples over a run, and the scale of any region of it."""

    def __init__(self) -> None:
        self.at_ns: list[int] = []
        self.kernel_ns: list[int] = []
        self.spent_ns = 0

    def sample(self) -> None:
        """Time ``REPS`` kernel calls, one sample each."""
        begin = time.perf_counter_ns()
        for _ in range(REPS):
            start = time.perf_counter_ns()
            kernel()
            end = time.perf_counter_ns()
            self.at_ns.append(end)
            self.kernel_ns.append(end - start)
        self.spent_ns += time.perf_counter_ns() - begin

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor that takes a time measured from ``start_ns`` to ``end_ns`` to the reference host."""
        lo = bisect.bisect_left(self.at_ns, start_ns - MARGIN_NS)
        hi = bisect.bisect_right(self.at_ns, end_ns + MARGIN_NS)
        if lo == hi:
            raise ValueError("no host-speed sample within the margin of the region")
        return REFERENCE_KERNEL_NS / statistics.median(self.kernel_ns[lo:hi])
