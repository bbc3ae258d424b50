"""Set-up probe: a fresh interpreter from start to ready-to-plan.

    python3 moqobench/probe.py <workload>

Imports the planner API, opens a session for the workload (spec resolution,
statistics, plan factory) and prints ``ready``.  ``run.py`` times it from
spawn to that line.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pools  # noqa: E402
from repro.api import open_session  # noqa: E402

open_session(pools.request(sys.argv[1]))
print("ready", flush=True)
