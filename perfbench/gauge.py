"""A speed gauge for timing on a shared core.

Standard library only, so the set-up probe can load it in a fresh
interpreter without importing anything asplan imports.
"""

from __future__ import annotations

import math
import signal
import time


class _Pair:
    __slots__ = ("t1", "t2")

    def __init__(self, t1: float, t2: float) -> None:
        self.t1 = t1
        self.t2 = t2


def _gap(pair: _Pair) -> float:
    return math.exp(-pair.t1 / 300.0) - math.exp(-pair.t2 / 300.0)


def _gauge_loop() -> float:
    """Fixed work shaped like the solver's inner loop: small objects,
    attribute reads, calls, `math.exp` and a dict store."""
    total = 0.0
    seen = {}
    for i in range(1, 120):
        total += _gap(_Pair(i * 0.5, i * 0.75))
        seen[i & 7] = total
        total = min(total, 1e9)
    return total


class SpeedGauge:
    """How fast this core runs right now, measured while a workload runs.

    Other tenants of a shared machine slow the same computation by up to
    40 %, for stretches of seconds to minutes.  While the gauge is entered,
    a SIGALRM handler runs `_gauge_loop` every INTERVAL_S seconds and times
    it; the loop's mean time over a stretch says how slow the core was then.
    `now` is a clock that leaves out the time spent in the handler.
    """

    INTERVAL_S = 0.01
    # Loop time to which corrected times are scaled: a round figure near
    # the loop's time on a quiet core of a 2-core Xeon VM (80-85 us).
    NOMINAL_S = 1e-4

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        _gauge_loop()
        self.total += time.perf_counter() - start
        self.count += 1

    def now(self) -> float:
        return time.perf_counter() - self.total

    def reading(self) -> tuple[int, float]:
        return self.count, self.total

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @classmethod
    def corrected(cls, seconds: float, probes: int, probe_s: float) -> float:
        """`seconds` of work scaled to the nominal speed, given the probes
        taken over the same stretch; unscaled when there were none."""
        return seconds * cls.NOMINAL_S * probes / probe_s if probes else seconds
