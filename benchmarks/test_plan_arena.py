"""E-arena: micro-benchmark of the arena-backed generate → cost hot path.

Compares batched block costing (``PlanFactory.combine_block``: one vectorized
kernel call per metric for a whole (left-block × right-block × operator)
combination block) against per-plan costing (``PlanFactory.join_plan``: the
pre-arena hot path — per-plan cardinality lookups, per-plan component
dictionaries, one ``CostVector`` and one plan handle per combination), at the
block sizes the optimizer's fresh-plan generation produces.

Both paths go through the same cost formulas and must produce bit-identical
cost rows (asserted per size on both kernel backends); the block path is
required to be at least 2x faster at the largest size on the numpy backend
(the acceptance bar of the arena refactor).  A small end-to-end IAMA
resolution sweep is also timed for reference.  Results are persisted to
``results/plan_arena.txt`` under the session's output directory (see
``benchmarks/conftest.py``).
"""

from __future__ import annotations

import time
from typing import List, Tuple

from benchmarks.conftest import results_dir
from repro import kernel
from repro.api import OptimizeRequest, open_session, resolve_request
from repro.plans.arena import PlanArena

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_NUMPY = False


#: Combination-block sizes bracketing what fresh-plan generation feeds the
#: costing step; 4096 is the acceptance-criteria size.
SIZES = (256, 1024, 4096)
REPEATS = 5


def best_time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _combination_fixture(size: int):
    """A factory plus ``size`` (left id, right id, operator) triples.

    The operand blocks are scan plans of two generator tables, repeated until
    the cross product with the operator inner loop reaches ``size`` -- the
    exact shape of one fresh-plan generation split.
    """
    resolved = resolve_request(
        OptimizeRequest(workload="gen:chain:2:0", algorithm="iama", scale="tiny")
    )
    factory = resolved.factory
    tables = sorted(resolved.query.tables)
    left_table, right_table = tables[0], tables[1]
    operators = factory.join_operators()
    arena = factory.arena

    per_pair = len(operators)
    pairs_needed = -(-size // per_pair)
    side = max(1, int(pairs_needed ** 0.5) + 1)
    left_ids: List[int] = []
    right_ids: List[int] = []
    while len(left_ids) < side:
        left_ids.extend(factory.scan_block(left_table))
    while len(right_ids) < side:
        right_ids.extend(factory.scan_block(right_table))

    triples: List[Tuple[int, int, int]] = []
    for left_id in left_ids:
        for right_id in right_ids:
            for operator_index in range(per_pair):
                triples.append((left_id, right_id, operator_index))
                if len(triples) == size:
                    return factory, arena, triples, operators
    raise AssertionError("fixture could not reach the requested block size")


def measure_block_costing(size: int) -> dict:
    """combine_block vs a join_plan-per-combination loop, both backends."""
    factory, arena, triples, operators = _combination_fixture(size)
    left_tables = arena.tables_of(triples[0][0])
    right_tables = arena.tables_of(triples[0][1])

    def per_plan() -> List[Tuple[float, ...]]:
        return [
            tuple(
                factory.join_plan(
                    arena.plan(left_id), arena.plan(right_id), operators[k]
                ).cost
            )
            for left_id, right_id, k in triples
        ]

    def block() -> List[Tuple[float, ...]]:
        ids = factory.combine_block(left_tables, right_tables, triples, operators)
        return [arena.cost_row(plan_id) for plan_id in ids]

    expected = per_plan()
    row = {"size": size, "scalar_seconds": best_time(per_plan)}
    for backend in ("python",) + (("numpy",) if HAVE_NUMPY else ()):
        with kernel.use_backend(backend):
            assert block() == expected, (
                f"block costing diverged from per-plan costing on {backend}"
            )
            row[f"{backend}_seconds"] = best_time(block)
            row[f"{backend}_speedup"] = (
                row["scalar_seconds"] / row[f"{backend}_seconds"]
            )
    return row


def measure_end_to_end() -> dict:
    """Per-invocation IAMA wall time on the arena path (reference numbers)."""
    request = OptimizeRequest(
        workload="gen:clique:5:7", algorithm="iama", scale="smoke", levels=4
    )
    started = time.perf_counter()
    result = open_session(request).run()
    elapsed = time.perf_counter() - started
    durations = result.durations_seconds
    return {
        "workload": request.workload,
        "invocations": len(durations),
        "plans_generated": result.plans_generated,
        "avg_invocation_seconds": sum(durations) / len(durations),
        "max_invocation_seconds": max(durations),
        "total_seconds": elapsed,
    }


def format_table(title: str, rows: list) -> str:
    keys = [k for k in rows[0] if k != "size"]
    header = f"## {title}\n" + " | ".join(["size"] + keys)
    lines = [header, " | ".join(["----"] * (len(keys) + 1))]
    for row in rows:
        cells = [str(row["size"])]
        for key in keys:
            value = row[key]
            cells.append(f"{value:.3g}" if "speedup" in key else f"{value * 1e6:.1f}us")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def test_plan_arena_block_costing_speedup():
    rows = [measure_block_costing(size) for size in SIZES]
    end_to_end = measure_end_to_end()

    sections = [
        "# plan_arena",
        "Arena block costing (PlanFactory.combine_block: gather child cost "
        "rows + one vectorized aggregation per metric) vs per-plan costing "
        "(PlanFactory.join_plan: the pre-arena per-object hot path), at "
        f"fresh-generation block sizes, best of {REPEATS} runs.",
        "Cost rows are asserted bit-identical between both paths and both "
        "kernel backends before timing.",
        f"numpy available: {HAVE_NUMPY}",
        "",
        format_table("block costing (combine_block) vs per-plan (join_plan)", rows),
        "",
        "## end-to-end reference (arena path)",
        "\n".join(
            f"{key}: {value:.6g}" if isinstance(value, float) else f"{key}: {value}"
            for key, value in end_to_end.items()
        ),
    ]
    results_path = results_dir() / "plan_arena.txt"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text("\n".join(sections) + "\n")
    print("\n".join(sections))
    print(f"[plan_arena] rows written to {results_path}")

    largest = rows[-1]
    if HAVE_NUMPY:
        # Acceptance criterion of the arena refactor: >= 2x at 4096-plan
        # blocks on the numpy backend.
        assert largest["numpy_speedup"] >= 2.0, largest
    # The pure-Python block path must never lose to per-plan costing.
    assert largest["python_speedup"] >= 1.0, largest
