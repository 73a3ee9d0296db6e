"""Host-speed calibration: a fixed CPU workload timed beside every operation.

The build host is a small shared VM whose speed drifts by up to 80% over
seconds to minutes under neighbouring load; CPU time tracks wall time
there, so the drift is invisible from inside.  A fixed loop of small
numpy and interpreter operations (the instruction mix of discovery) is
timed before and after each measured operation; the operation's wall
time is then expressed in *reference-host seconds*:

    wall * REFERENCE_S / mean(calibration before, calibration after)

i.e. what the operation would have taken on a host where the loop takes
``REFERENCE_S``.  The loop uses no code of the program under test, so a
program change moves the measured operation and never the calibration.
Changing the loop or ``REFERENCE_S`` redefines every timing metric.

It applies to operations that keep one core busy, bracketed by
calibrations no more than a few seconds apart: over ten serve-ring runs
during which the host's speed varied 1.9x, the normalised warm metrics
varied 1.4x.  It does not apply to a process pool that keeps both cores
busy: calibrations taken between pool runs, on one core or on two, did
not follow the pool runs' wall times.  That is why every timed
operation of the benchmark runs in one process.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable

import numpy as np

#: Median duration of :func:`calibration_seconds` on the build host when
#: idle (2-core Linux VM, Python 3.11, numpy 2.4).
REFERENCE_S = 0.011
_ITERATIONS = 3000


def calibration_seconds() -> float:
    """Wall time of the fixed calibration loop (about 11 ms)."""
    start = perf_counter()
    acc = 0
    for i in range(_ITERATIONS):
        a = np.arange(64 + (i % 64))
        acc += int((a * 3).sum())
        acc += len({j: j for j in range(8)})
    elapsed = perf_counter() - start
    if acc < 0:  # keeps the work observable; never true
        raise AssertionError(acc)
    return elapsed


class HostSpeed:
    """Calibrations taken at the boundaries between measured operations."""

    def __init__(self, calibrate: Callable[[], float] = calibration_seconds) -> None:
        self._calibrate = calibrate
        self.last = calibrate()
        self.samples = [self.last]
        self._mark = perf_counter()

    def factor(self) -> float:
        """Calibrate now and return the factor that converts the wall time
        elapsed since the previous calibration into reference-host seconds."""
        before, self.last = self.last, self._calibrate()
        self.samples.append(self.last)
        self._mark = perf_counter()
        return REFERENCE_S / ((before + self.last) / 2.0)

    def lap(self) -> float:
        """Reference-host seconds since the previous calibration ended;
        calibrates now, so consecutive laps cover the time between
        calibrations and nothing else."""
        wall = perf_counter() - self._mark
        return wall * self.factor()

    def median_s(self) -> float:
        return statistics.median(self.samples)
