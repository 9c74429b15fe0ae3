"""A fixed calibration loop that tracks the host's current speed.

On a shared host the same ops run up to 1.4x slower or faster from one
2-second stretch to the next, because other tenants contend for the same
cores and caches. A run therefore times this loop between its ops, outside the
timed region, once per EVERY_MS of op time (at most WINDOW times after
one op). It divides each op's latency by the host's slowdown around it:
the median of the WINDOW samples taken just before the op and the WINDOW
just after it, over REFERENCE_MS. The result is the op's latency on a
host on which the loop takes REFERENCE_MS ("reference ms").

The loop uses no su2pulse code, so a change to the package moves the
scaled timings exactly as it moves the raw ones; only the host's drift is
divided out. It mixes the kinds of work the package does per op: scalar
math, 2x2 complex numpy products, short numpy vectors, and plain Python
integer and dict work.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_MS = 1.25      # about the loop's median between ops on a shared 2-core x86_64 VM
EVERY_MS = 10.0          # op time per sample
WINDOW = 4               # samples on each side of an op
_B = np.array([[0.6 + 0.0j, -0.8j], [-0.8j, 0.6 + 0.0j]])
_V = np.linspace(0.0, 1.0, 64)


def _loop() -> float:
    a = np.eye(2, dtype=complex)
    x, acc, table = 0.3, 0.0, {}
    for i in range(120):
        a = a @ _B
        x = math.atan2(math.sin(x + i), math.cos(x) + 2.0)
        acc += abs(complex(a[0, 0])) + x
    for i in range(30):
        acc += float(np.sum(np.sin(_V * i) * np.cos(_V)))
    s = 0
    for i in range(1200):
        s += (i * i) % 7
        table[i & 63] = s
    return acc + s


def sample() -> int:
    """Wall time of one pass of the loop, in ns."""
    t0 = time.perf_counter_ns()
    _loop()
    return time.perf_counter_ns() - t0


def warm_up() -> None:
    for _ in range(20):
        _loop()


class Clock:
    """Calibration samples taken between ops, and where each op fell among them."""

    def __init__(self):
        self.samples_ns = [sample()]
        self.marks = []              # per op: samples taken before it ended
        self._since_ns = 0

    def after_op(self, op_ns: int) -> None:
        self.marks.append(len(self.samples_ns))
        self._since_ns += op_ns
        due = int(self._since_ns // (EVERY_MS * 1e6))
        self._since_ns -= due * EVERY_MS * 1e6
        # a long op needs no more than the WINDOW samples next to it
        self.samples_ns.extend(sample() for _ in range(min(due, WINDOW)))

    @property
    def loop_ms(self) -> float:
        """Median of every sample of the run."""
        return statistics.median(self.samples_ns) / 1e6

    def slowdowns(self) -> np.ndarray:
        """Per op: the host's time over the reference host's, around that op."""
        by_mark = {m: statistics.median(self.samples_ns[max(0, m - WINDOW):m + WINDOW])
                   for m in set(self.marks)}
        return np.array([by_mark[m] for m in self.marks]) / (REFERENCE_MS * 1e6)
