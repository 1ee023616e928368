"""Host-speed adjustment of the end-to-end timings.

The benchmark's host is shared and its speed drifts: the same CLI invocation,
in the same process, can take 60% longer than it did a minute before, in CPU
time as much as in wall time, with no steal time visible inside the VM, and
the speed changes within a second as well.  A median over passes cannot
remove a drift that lasts longer than a run.  So the benchmark measures the
host's speed while it measures the program: `probe` is a fixed unit of the
interpreter work betaorbit does most (exact rational arithmetic, hashing,
sorting by comparison, allocation), and `Meter.time` runs `BRACKET` units
right before and right after an invocation and, for an in-process invocation,
one unit every `TICK_S` seconds during it, from a SIGALRM handler.  The
invocation's own time (its wall time less the ticks) is rescaled to a host on
which one unit takes `REFERENCE_UNIT_S`:

    adjusted = (wall - ticks) * REFERENCE_UNIT_S / (time of all units / units run)

The probe is part of the benchmark, not of betaorbit: a change to the program
moves the adjusted time as it moves the wall time, while a change in the
host's speed slows the invocation and the units run beside it alike.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# median time of one `probe` unit on the host the benchmark was defined on
# (2 vCPUs of an Intel Xeon at 2.1 GHz, CPython 3.11.7)
REFERENCE_UNIT_S = 0.0026
BRACKET = 8     # units before and after every invocation
TICK_S = 0.05   # interval of the units run during an in-process invocation


def probe(units: int = 1) -> float:
    """Wall time of `units` fixed pieces of work, each about 3 ms."""
    t0 = time.perf_counter()
    for _ in range(units):
        x, below = Fraction(1, 3), 0
        for i in range(75):
            x = (x * Fraction(7, 5) + Fraction(i % 11, 13)) % 3
            below += x < Fraction(3, 2)
            table = {}
            for j in range(10):
                table[i, j] = j * j
        seen: dict[Fraction, int] = {}
        for i in range(150):
            y = Fraction(i * 7919 % 1009 - 500, 1 + i % 97)
            seen[y] = seen.get(y, 0) + 1
        sum(sorted(seen)[::5], Fraction(below))
    return time.perf_counter() - t0


class Meter:
    """Times invocations and adjusts them to the reference host speed."""

    def __init__(self, ticks: bool):
        self.ticks = ticks     # probe during the invocation (in-process only)
        self.units = 0         # every unit run, for the mean host speed
        self.unit_s = 0.0
        self._tick_units = 0
        self._tick_s = 0.0

    def _tick(self, signum, frame) -> None:
        self._tick_s += probe()
        self._tick_units += 1

    def time(self, fn):
        """Run `fn()`; return its result, its own wall time (ticks excluded)
        and that time at reference host speed."""
        before = probe(BRACKET)
        self._tick_units, self._tick_s = 0, 0.0
        if self.ticks:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
        finally:
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        after = probe(BRACKET)
        units = 2 * BRACKET + self._tick_units
        probe_s = before + after + self._tick_s
        self.units += units
        self.unit_s += probe_s
        own = wall - self._tick_s
        return result, own, own * REFERENCE_UNIT_S * units / probe_s

    def speed(self) -> float:
        """The host's mean speed over every unit run, as a multiple of the reference."""
        return REFERENCE_UNIT_S * self.units / self.unit_s
