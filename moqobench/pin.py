"""Pin the frontier digests every run checks, and probe hash-seed determinism.

    python3 moqobench/pin.py            # rewrite moqobench/digests.json
    python3 moqobench/pin.py --probe    # which inputs diverge under other hash seeds

Digests are taken under the pinned ``PYTHONHASHSEED`` (``pools.HASH_SEED``).
``--probe`` recomputes them in child processes under other hash seeds and
lists every input whose frontiers differ.  Known defect: the cardinality
estimator multiplies selectivities in ``frozenset`` iteration order, so some
inputs (``gen:star:6:42``, ``gen:chain:6:1``, ``template:ss_address_rollup:2``) change
their frontiers with the hash seed.  They stay in the pools on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pools  # noqa: E402
from sessions import cold_climb  # noqa: E402

PROBE_SEEDS = ("1", "2")


def compute() -> dict:
    """Every pinned digest, computed in this process."""
    refine = {}
    for member in sorted(set(pools.REFINE_POOL) | set(pools.SERVE_POOL)):
        refine[member] = cold_climb(member).digests()
    return {"hash_seed": os.environ.get("PYTHONHASHSEED"), "refine": refine}


def check_miss_equivalence(refine: dict) -> None:
    """A fresh-key request (huge finite bound) must show the unbounded frontiers."""
    from repro.api import open_session

    for member in pools.SERVE_POOL:
        session = open_session(pools.request(member, key=0))
        seen = [pools.update_digest(update) for update in session.updates()]
        if seen != refine[member]:
            raise SystemExit(f"{member}: a fresh-key request changes the frontier")


def divergent(pinned: dict, other: dict) -> list:
    """Inputs whose digests differ between two digest tables."""
    return [
        member
        for member, digests in pinned["refine"].items()
        if other["refine"].get(member) != digests
    ]


def probe() -> int:
    pinned = pools.load_digests()
    for seed in PROBE_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, __file__, "--emit"],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=900,
        ).stdout
        names = divergent(pinned, json.loads(out.strip().splitlines()[-1]))
        print(f"PYTHONHASHSEED={seed}: {len(names)} input(s) diverge from the pinned digests")
        for name in names:
            print(f"  {name}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help="hash-seed determinism probe")
    parser.add_argument("--emit", action="store_true", help="print digests as JSON")
    args = parser.parse_args()
    if args.probe:
        return probe()
    if os.environ.get("PYTHONHASHSEED") != pools.HASH_SEED and not args.emit:
        env = dict(os.environ, PYTHONHASHSEED=pools.HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    digests = compute()
    if args.emit:
        print(json.dumps(digests))
        return 0
    check_miss_equivalence(digests["refine"])
    with open(pools.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {pools.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
