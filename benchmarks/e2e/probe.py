"""Interpreter-speed probe: takes host contention out of op times.

On a shared virtual machine the other tenants slow interpreted code by
up to half, in phases that last seconds, and a 25 s window can fall
entirely into a slow phase.  Compiled kernels barely notice: a numpy
matrix product keeps its speed while a Python loop slows by 45%.  The
simulator is interpreter-bound, so its wall times swing with the host.

A :class:`SpeedProbe` runs a fixed pure-Python loop from a ``SIGALRM``
timer every :data:`PERIOD_S` and records when it ran and how long it
took.  :meth:`SpeedProbe.factor` is :data:`REFERENCE_S` over the median
probe time around an op; an op's wall time times that factor is the
time it would take at the reference interpreter speed.  A slower code
path moves the op and not the probe, so it shows in full; a slow phase
of the host moves both, so it cancels.

Run as a script, it wraps ``repro serve`` so that the server process
probes its own speed and writes the samples to ``OUT`` when it exits::

    python3 benchmarks/e2e/probe.py OUT serve --port 0 --workers 2
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import sys
import time
from typing import Callable, List

#: Seconds between probes; each probe takes about 25 us.
PERIOD_S = 0.02
#: Median probe time on the reference machine (a 2-vCPU x86_64 virtual
#: machine, Python 3.11) in its uncontended phases.
REFERENCE_S = 25e-6
#: Fewest probes a factor rests on; a short op borrows the probes taken
#: just before it.
MIN_PROBES = 10


def _loop() -> int:
    total = 0
    for i in range(400):
        total += i * i % 7
    return total


class SpeedProbe:
    """Probe samples of this process; ``clock`` stamps them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.stamps: List[float] = []
        self.times: List[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _tick(self, _signum, _frame) -> None:
        stamp = self.clock()
        began = time.perf_counter()
        _loop()
        self.times.append(time.perf_counter() - began)
        self.stamps.append(stamp)

    def factor(self, start: float, end: float) -> float:
        """:data:`REFERENCE_S` over the median probe time between
        ``start`` and ``end``, widened to the :data:`MIN_PROBES` probes
        nearest before and after; 1 when nothing was probed."""
        n = len(self.stamps)
        if not n:
            return 1.0
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < min(MIN_PROBES, n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < MIN_PROBES:
                hi += 1
        return REFERENCE_S / statistics.median(self.times[lo:hi])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stamps": self.stamps, "times": self.times}, handle)

    @classmethod
    def load(cls, path: str) -> "SpeedProbe":
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        probe = cls(clock=time.time)
        probe.stamps, probe.times = doc["stamps"], doc["times"]
        return probe


def serve_main(argv: List[str]) -> int:
    """``repro.cli`` with a wall-clock probe, dumped to ``argv[0]``."""
    from repro.cli import main

    probe = SpeedProbe(clock=time.time)
    probe.start()
    try:
        return main(argv[1:])
    finally:
        probe.stop()
        probe.dump(argv[0])


if __name__ == "__main__":
    sys.exit(serve_main(sys.argv[1:]))
