"""Summary statistics shared by every workload.

Two rules keep a run's figures comparable from run to run:

* **Tail rule.**  The reported tail is the highest percentile of
  :data:`TAIL_LADDER` with at least :data:`MIN_BEYOND` samples above it.  The
  rung is a function of the sample count only, so workloads pick run shapes
  whose count stays inside one rung's band (see :func:`tail_rung`).
* **Whole passes.**  Session workloads run every pool member once per pass,
  in seeded order, and only whole passes are measured, so the member mix of
  the sample is identical in every run and percentiles of a pooled,
  multi-member distribution cannot jump between members.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

#: Percentiles the tail may be reported at, lowest first.
TAIL_LADDER: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond the reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (the ``statistics`` 'inclusive' rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_rung(count: int) -> float:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples beyond.

    ``count * (1 - p/100)`` samples lie above the ``p``-th percentile.  Raises
    when not even the median qualifies (fewer than ``2 * MIN_BEYOND`` samples):
    a run that short has no tail to report.
    """
    best = None
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 + 1e-9 >= MIN_BEYOND:
            best = pct
    if best is None:
        raise ValueError(
            f"{count} samples: the tail rule needs at least {2 * MIN_BEYOND}"
        )
    return best


def summarize(values: Sequence[float]) -> dict:
    """Median, tail (by the tail rule), the tail's percentile and the count."""
    pct = tail_rung(len(values))
    return {
        "p50": percentile(values, 50.0),
        "tail": percentile(values, pct),
        "tail_pct": pct,
        "count": len(values),
    }


def seeded_pass(pool: Sequence[str], rng: random.Random) -> List[str]:
    """One pass over the pool: every member exactly once, in seeded order."""
    members = list(pool)
    rng.shuffle(members)
    return members
