"""Input pools, request builders and frontier digests.

Everything a workload sends is built here from the workload seed, so the
same seed gives the same inputs.  The pools are pinned: every frontier a
member shows under the pinned hash seed has a digest in ``digests.json``
(written by ``pin.py``), and each run checks what it saw against them.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Sequence

#: Python hash seed every timed process runs under.  Frontiers of some
#: pool members depend on it (see ``pin.py --probe``), so it is pinned to make
#: the work identical from run to run.
HASH_SEED = "0"

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Anytime configuration of every request.
LEVELS = 5
SCALE = "smoke"

#: refine_cold: 5- to 6-table TPC-H blocks, generated clique/star/cycle/chain
#: queries and template instantiations.  Odd size, so the median of a whole
#: number of passes falls inside one member's block of samples.
REFINE_POOL = (
    "tpch:q02_main",
    "tpch:q05",
    "tpch:q09",
    "gen:clique:5:7",
    "gen:star:6:42",
    "gen:chain:6:1",
    "gen:cycle:5:4",
    "template:ss_customer_funnel:1",
    "template:ss_address_rollup:2",
)

#: serve_zipf: cheap members (cold climbs of 0.3-0.75 s), so cold requests
#: leave the shards mostly idle at the fixed rate.  Each key of the repo's
#: zipf_repeat trace shape is mapped onto one of them (see serve.py).
SERVE_POOL = (
    "tpch:q02_main",
    "gen:clique:5:7",
    "gen:star:5:11",
    "gen:chain:6:1",
    "gen:cycle:5:4",
    "template:ss_customer_funnel:1",
)
#: Invocations a probe asks for (``repro.bench.trace``'s probe-first rule).
PROBE_INVOCATIONS = 1
#: First bound component of key ``k`` is ``MISS_BOUND * (1 + k)``: far above
#: every plan cost, so the frontier equals the unbounded one, yet the request
#: fingerprint is new.  ``pin.py`` checks the equality.
MISS_BOUND = 1e250


#: Members whose cold climbs are timed both untraced and traced in a traced
#: run; the ratio is trace.overhead.
CALIBRATION = ("tpch:q02_main", "gen:cycle:5:4", "template:ss_customer_funnel:1")


def request(workload: str, max_invocations=None, key=None):
    """The ``OptimizeRequest`` for a pool member."""
    from repro.api import Budget, OptimizeRequest
    from repro.costs.vector import CostVector

    bounds = None
    if key is not None:
        bounds = CostVector([MISS_BOUND * (1 + key), math.inf, math.inf])
    return OptimizeRequest(
        workload=workload,
        levels=LEVELS,
        scale=SCALE,
        bounds=bounds,
        budget=Budget(max_invocations=max_invocations),
    )


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def frontier_digest(frontier_dicts: Sequence[dict]) -> str:
    """Digest of one frontier in wire form (``PlanSummary.to_dict`` entries)."""
    rows = [[entry["cost"], entry["render"]] for entry in frontier_dicts]
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def update_digest(update) -> str:
    """Digest of an in-process ``FrontierUpdate``."""
    return frontier_digest([summary.to_dict() for summary in update.frontier])


def load_digests() -> Dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)
