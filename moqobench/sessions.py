"""In-process cold climbs through ``repro.api.open_session``.

Shared by the timed workload and by ``pin.py``, so the digests a run checks
come from exactly the code path it times.  Digests are computed after the
clock stops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from pools import request, update_digest

_perf = time.perf_counter


@dataclass
class Op:
    """One timed cold climb."""

    ttff_s: float
    total_s: float
    plans: int
    updates: list = field(repr=False)

    def digests(self) -> List[str]:
        return [update_digest(update) for update in self.updates]


def cold_climb(member: str) -> Op:
    """Open a fresh session and climb every level without steering."""
    from repro.api import open_session

    started = _perf()
    session = open_session(request(member))
    updates = []
    ttff = None
    for update in session.updates():
        if ttff is None:
            ttff = _perf() - started
        updates.append(update)
    total = _perf() - started
    return Op(ttff, total, session.driver.factory.counters.total_plans_built, updates)
