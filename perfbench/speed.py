"""Interpreter-speed probe used to normalise wall times.

Shared virtual machines lend their cores to other tenants, and the speed one
process gets drifts by tens of percent from second to second: on a 2-vCPU KVM
guest the same ``fit`` took from 1.3 s to 2.5 s of wall time in one process.
``Probe`` samples that speed while an operation runs. An interval timer
interrupts the operation every ``TICK_INTERVAL_S``, and the signal handler
times a fixed piece of interpreter-bound work (string slicing, dict updates,
float arithmetic) over a working set small enough to stay in cache, so the
tick's cost does not depend on how much memory the program under test
touches. ``Probe.normalise`` removes the handlers' own time from the
operation's wall time and rescales the rest by the median tick, to what it
would have taken at the speed at which one tick takes ``REFERENCE_TICK_S``.

The ticks run no program code, so a change to the program moves the
normalised time as it moves the wall time at a fixed speed.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_INTERVAL_S = 0.01
REFERENCE_TICK_S = 1.5e-4  # defines the reference speed; any fixed value works
_WORDS = [f"word{i:03d}" for i in range(64)]


class Probe:
    """Context manager sampling the interpreter's speed during its block."""

    def __init__(self):
        self.ticks: list[float] = []
        self.overhead_s = 0.0

    def _tick(self, *_):
        start = time.perf_counter()
        counts: dict[str, int] = {}
        acc = 0.0
        for i in range(400):
            key = _WORDS[i & 63][2:6]
            counts[key] = counts.get(key, 0) + 1
            acc += i * 0.5
        self.ticks.append(time.perf_counter() - start)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.overhead_s = sum(self.ticks)
        if not self.ticks:  # block shorter than one interval: sample right after it
            self._tick()

    def normalise(self, wall_s: float) -> float:
        """``wall_s``, measured inside the block, at the reference speed."""
        return (wall_s - self.overhead_s) * REFERENCE_TICK_S / statistics.median(self.ticks)
