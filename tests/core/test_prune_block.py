"""Property test: block pruning equals plain per-row sequential pruning.

:func:`repro.core.pruning.prune_all_ids` decides a whole block with a few
kernel calls.  The reference below prunes one plan at a time, scanning every
result plan for a witness and writing each plan with ``PlanIndex.insert_id``;
it shares no search or bulk-write code with the block path.  On random
blocks (chains of plans approximated inside the block, out-of-bounds plans,
``inf`` costs, interesting orders, cached witnesses, resolution below and at
the maximum) both must produce the same outcome sequence and the same result
and candidate index contents in ``retrieve_ids`` order -- on every kernel
backend, and again after a second round that takes the candidates back out
(``take_ids`` vs ``retrieve_ids`` + ``remove_id``) and re-prunes them one
resolution higher.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import flags, kernel
from repro.core.index import PlanIndex
from repro.core.pruning import PruneOutcome, prune_all_ids
from repro.plans.arena import PlanArena

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_NUMPY = False

BACKENDS = (
    ("python",)
    + (("numpy",) if HAVE_NUMPY else ())
    + (("native",) if kernel.native_available() else ())
)

DIMS = 2
TABLES = frozenset({"t"})
#: Close values so that alpha-approximation chains form inside a block.
VALUES = (1.0, 1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 8.0, math.inf)
ORDERS = (None, None, "sorted:a", "sorted:b")
EVERYTHING = (math.inf,) * DIMS

rows = st.tuples(st.tuples(*[st.sampled_from(VALUES)] * DIMS), st.sampled_from(ORDERS))


@st.composite
def scenarios(draw):
    max_resolution = draw(st.integers(min_value=1, max_value=3))
    return {
        "result_rows": draw(
            st.lists(
                st.tuples(rows, st.integers(min_value=0, max_value=max_resolution)),
                max_size=30,
            )
        ),
        "candidate_rows": draw(
            st.lists(
                st.tuples(rows, st.integers(min_value=0, max_value=max_resolution)),
                max_size=10,
            )
        ),
        "block_rows": draw(st.lists(rows, min_size=1, max_size=48)),
        "bounds": draw(st.tuples(*[st.sampled_from((2.0, 5.0, math.inf))] * DIMS)),
        "alpha": draw(st.sampled_from((1.0, 1.1, 1.25, 1.5, 2.0))),
        "resolution": draw(st.integers(min_value=0, max_value=max_resolution)),
        "max_resolution": max_resolution,
        "respect_orders": draw(st.booleans()),
        "use_witnesses": draw(st.booleans()),
        "witness_picks": draw(st.lists(st.integers(min_value=0, max_value=200), max_size=48)),
        "incremental_pareto": draw(st.booleans()),
    }


def sequential_prune(
    result_index, candidate_index, bounds, resolution, alpha, max_resolution,
    arena, plan_ids, respect_orders, witnesses,
):
    """Algorithm 3, one plan at a time, with a brute-force witness scan."""
    outcomes = []
    for plan_id in plan_ids:
        cost = arena.cost_row(plan_id)
        target = [min(bound, value * alpha) for bound, value in zip(bounds, cost)]
        need = arena.order_id_of(plan_id) if respect_orders else 0

        def qualifies(witness):
            return (
                result_index.contains_id(witness)
                and result_index.resolution_of_id(witness) <= resolution
                and (need == 0 or arena.order_id_of(witness) == need)
                and all(x <= t for x, t in zip(arena.cost_row(witness), target))
            )

        witness = 0
        if witnesses is not None:
            cached = witnesses.get(plan_id)
            if cached is not None and qualifies(cached):
                witness = cached
        if not witness:
            witness = next((w for w in result_index.all_ids() if qualifies(w)), 0)
        if witness:
            if resolution < max_resolution:
                if witnesses is not None:
                    witnesses[plan_id] = witness
                candidate_index.insert_id(plan_id, resolution + 1, arena)
                outcomes.append(PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION)
            else:
                if witnesses is not None:
                    witnesses.pop(plan_id, None)
                outcomes.append(PruneOutcome.DISCARDED)
        elif not all(value <= bound for value, bound in zip(cost, bounds)):
            candidate_index.insert_id(plan_id, resolution, arena)
            outcomes.append(PruneOutcome.OUT_OF_BOUNDS)
        else:
            result_index.insert_id(plan_id, resolution, arena)
            if witnesses is not None:
                witnesses.pop(plan_id, None)
            outcomes.append(PruneOutcome.INSERTED)
    return outcomes


def contents(index, max_resolution):
    ids = index.retrieve_ids(EVERYTHING, max_resolution + 1)
    return [(plan_id, index.resolution_of_id(plan_id)) for plan_id in ids]


def build(case):
    arena = PlanArena(DIMS)

    def allocate(row):
        cost, order = row
        return arena.allocate_generic(TABLES, cost, interesting_order=order)

    setups = []
    result_entries = [(allocate(row), level) for row, level in case["result_rows"]]
    candidate_entries = [(allocate(row), level) for row, level in case["candidate_rows"]]
    block = [allocate(row) for row in case["block_rows"]]
    for _ in range(2):
        result_index, candidate_index = PlanIndex(), PlanIndex()
        for plan_id, level in result_entries:
            result_index.insert_id(plan_id, level, arena)
        for plan_id, level in candidate_entries:
            candidate_index.insert_id(plan_id, level, arena)
        setups.append((result_index, candidate_index))
    witnesses = None
    if case["use_witnesses"]:
        # Cached witnesses point anywhere: at result plans (valid or not),
        # at candidates, and at plans of the block itself.
        pool = [plan_id for plan_id, _ in result_entries + candidate_entries] + block
        witnesses = {
            plan_id: pool[pick % len(pool)]
            for plan_id, pick in zip(block, case["witness_picks"])
        }
    return arena, block, setups, witnesses


def check_round(case, arena, block, setups, witnesses, resolution):
    (block_result, block_cand), (seq_result, seq_cand) = setups
    block_witnesses = None if witnesses is None else dict(witnesses)
    seq_witnesses = None if witnesses is None else dict(witnesses)
    common = dict(
        bounds=case["bounds"],
        resolution=resolution,
        alpha=case["alpha"],
        max_resolution=case["max_resolution"],
        arena=arena,
        plan_ids=block,
        respect_orders=case["respect_orders"],
    )
    got = prune_all_ids(block_result, block_cand, witnesses=block_witnesses, **common)
    expected = sequential_prune(seq_result, seq_cand, witnesses=seq_witnesses, **common)
    assert got == expected
    top = case["max_resolution"]
    assert contents(block_result, top) == contents(seq_result, top)
    assert contents(block_cand, top) == contents(seq_cand, top)
    if witnesses is not None:
        assert block_witnesses.keys() == seq_witnesses.keys()
        for plan_id, outcome in zip(block, got):
            if outcome is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION:
                assert block_result.contains_id(block_witnesses[plan_id])
    return block_witnesses


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(case=scenarios())
def test_block_pruning_matches_sequential_reference(backend, case):
    with kernel.use_backend(backend), flags.overrides(
        incremental_pareto=case["incremental_pareto"]
    ):
        arena, block, setups, witnesses = build(case)
        resolution = case["resolution"]
        witnesses = check_round(case, arena, block, setups, witnesses, resolution)
        if resolution == case["max_resolution"]:
            return
        # Second round, as the optimizer's candidate reconsideration runs it:
        # take every retrievable candidate out and re-prune them one level up.
        resolution += 1
        (block_result, block_cand), (seq_result, seq_cand) = setups
        taken = block_cand.take_ids(case["bounds"], resolution)
        retrieved = seq_cand.retrieve_ids(case["bounds"], resolution)
        for plan_id in retrieved:
            seq_cand.remove_id(plan_id)
        assert taken == retrieved
        top = case["max_resolution"]
        assert contents(block_cand, top) == contents(seq_cand, top)
        if taken:
            check_round(case, arena, taken, setups, witnesses, resolution)
