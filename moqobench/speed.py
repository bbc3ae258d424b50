"""Host-speed scaling of measured times.

The shared 2-vCPU host the benchmark was built on runs in speed phases that
last from seconds to minutes: back-to-back cold climbs of one query took
about 410 ms in one phase and 650 ms in the next, with CPU time equal to wall
time.  A run that falls in slow phases therefore reads up to 1.6x slower,
whatever the program does.

To take the host's speed out of the figures, a fixed reference routine --
pure Python, independent of the program, and frozen with the benchmark -- is
timed next to every operation.  Each operation's times are multiplied by
``REFERENCE_S / r``, where ``r`` is the median time of the
:data:`NEAREST` reference samples closest to the operation, so they read as
at the host speed at which the reference takes :data:`REFERENCE_S`.  Over
180 s of alternating climbs and references, 15 s block medians of the raw
climb times varied with a coefficient of variation of 0.21 and the scaled
ones with 0.07; medians of 30-climb windows went from 0.20 to 0.02.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Tuple

_perf = time.perf_counter

#: Seconds the reference routine takes at the speed scaled times refer to.
REFERENCE_S = 0.010
#: Reference samples around an operation whose median gives its scale.
NEAREST = 4


def reference_routine() -> int:
    """A fixed Pareto filter over seeded 3-D points (dict, tuple and float work).

    Never change it: scaled times are comparable only under one routine.
    """
    rng = random.Random(7)
    points = [(rng.random(), rng.random(), rng.random()) for _ in range(6000)]
    front = {}
    for index, point in enumerate(points):
        dominated = False
        for other in list(front.values())[:64]:
            if other[0] <= point[0] and other[1] <= point[1] and other[2] <= point[2]:
                dominated = True
                break
        if not dominated:
            front[index] = point
            if len(front) > 200:
                for key in list(front)[:50]:
                    del front[key]
    return len(front)


class SpeedLog:
    """Reference timings of one run, by the time they were taken."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def measure(self) -> float:
        """Time the reference routine once and record it."""
        started = _perf()
        reference_routine()
        elapsed = _perf() - started
        self.samples.append((started + elapsed / 2.0, elapsed))
        return elapsed

    def scale(self, start: float, end: float) -> float:
        """Factor that brings times taken between ``start`` and ``end`` to the
        reference speed."""
        if not self.samples:
            raise ValueError("no reference samples")
        middle = (start + end) / 2.0
        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))[:NEAREST]
        return REFERENCE_S / statistics.median(seconds for _, seconds in nearest)

    def median_s(self) -> float:
        return statistics.median(seconds for _, seconds in self.samples)
