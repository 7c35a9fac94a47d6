"""Host clock: process CPU time, normalised by an interleaved calibration kernel.

The sandbox this benchmark was sized on is a small VM with noisy neighbours.
Two things move raw wall medians of a 10 s run by 20-30% between runs of
identical code: the hypervisor steals time in bursts, and the host switches
between speed states (the same pure-Python loop takes 100% or ~130% of its
best time, in phases of 3-8 s; zlib and numpy slow down by the same factor).

* :data:`now` is ``time.process_time``.  The program under test is one
  thread that never sleeps or waits for I/O, so on an undisturbed host its
  CPU time *is* its wall time; stolen time is simply not counted.
* Every timed segment is bracketed by a fixed calibration kernel (pure
  Python + numpy + zlib, independent of the repo's code) and its time is
  divided by how slow the kernel ran around it.

Reported host times are *calibrated seconds*: the time the work would take
on a host where the kernel takes exactly :data:`NOMINAL_KERNEL_S`.  The
raw/calibrated ratio of a run is reported as ``bench.host_speed_factor``.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

#: The clock every host measurement (meters and spans) is taken with.
now = time.process_time

#: Calibrated seconds are anchored to the kernel taking exactly this long.
NOMINAL_KERNEL_S = 0.002
_KERNEL_REPS = 5
#: A reading this recent still describes the host's current speed phase.
_FRESH_S = 0.02

_ARRAY = np.arange(20_000, dtype=np.int64)
_BLOB = bytes(range(256)) * 40


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _count(n: int):
    yield from range(n)


def _kernel() -> None:
    """~2 ms of the instruction mix the stores lean on: generator steps,
    attribute-bearing objects in dicts, a sort, a numpy pass, one zlib call."""
    total = 0
    for i in _count(12_000):
        total += i * i % 7
    cells = {i: _Cell(i, total) for i in range(4_000)}
    sorted(cells, key=lambda k: -k)
    (_ARRAY * 3 % 11).sum()
    zlib.compress(_BLOB)


class HostClock:
    """Runs the calibration kernel and remembers every reading."""

    def __init__(self, reps: int = _KERNEL_REPS) -> None:
        self.reps = reps
        self.readings: list[float] = []
        self._read_at = 0.0

    def calibrate(self) -> float:
        """Median kernel time over a few back-to-back runs, in seconds."""
        samples = []
        for _ in range(self.reps):
            t0 = now()
            _kernel()
            samples.append(now() - t0)
        reading = statistics.median(samples)
        self.readings.append(reading)
        self._read_at = now()
        return reading

    def recent(self) -> float:
        """The last reading if it is fresh (back-to-back segments share
        one calibration), else a new one."""
        if self.readings and now() - self._read_at < _FRESH_S:
            return self.readings[-1]
        return self.calibrate()


class Meter:
    """Accumulates wall over segments, each normalised by the calibration
    readings taken at its two ends.  Calibration time itself is excluded.

    ``with meter: work()`` times one segment; ``meter.lap()`` inside the
    block closes the running segment and opens the next, so long work is
    cut into pieces shorter than a host speed phase.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self._reading = 0.0
        self._started = 0.0

    def __enter__(self) -> "Meter":
        self._reading = self.clock.recent()
        self._started = now()
        return self

    def lap(self) -> None:
        stopped = now()
        reading = self.clock.calibrate()
        wall = stopped - self._started
        self.raw_s += wall
        self.calibrated_s += wall * NOMINAL_KERNEL_S / ((self._reading + reading) / 2)
        self._reading = reading
        self._started = now()

    def __exit__(self, *exc) -> None:
        self.lap()

    def include(self, other: "Meter") -> None:
        """Charge another meter's segments to this one as well."""
        self.raw_s += other.raw_s
        self.calibrated_s += other.calibrated_s

    @property
    def speed_factor(self) -> float:
        """Raw wall per calibrated second (>1: the host ran slow)."""
        return self.raw_s / self.calibrated_s if self.calibrated_s else 1.0
