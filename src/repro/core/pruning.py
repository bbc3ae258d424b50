"""Procedure ``Prune`` (Algorithm 3), applied a block of plans at a time.

Given a new plan ``p`` for table set ``q``, the current cost bounds ``b``, the
current resolution ``r`` and its precision factor ``alpha_r``, pruning decides
which of three things happens:

1. some result plan registered at resolution ``<= r`` and within the bounds
   already *approximates* ``p`` (its cost dominates ``alpha_r * c(p)``): ``p``
   is kept as a **candidate for resolution r + 1** -- it might become relevant
   once the resolution is refined -- or discarded if the maximal resolution is
   already reached;
2. otherwise, if ``p``'s cost exceeds the bounds, ``p`` is kept as a
   **candidate for the current resolution** -- it might become relevant once
   the user relaxes the bounds;
3. otherwise ``p`` is **inserted into the result set**, registered at the
   current resolution.

Two deliberate design decisions from Section 4.2 are preserved:

* the new plan is only compared against result plans registered at the current
  resolution *or lower* (never higher), keeping the number of comparisons
  proportional to the result set size at the current resolution;
* result plans that are dominated by the new plan are **not** discarded,
  because they may already serve as sub-plans of previously combined plans.

Following Section 4.3, the cost comparison is restricted to plans producing a
compatible interesting tuple order: a result plan can only approximate the new
plan when it provides at least the same ordering guarantee.

Block algorithm
---------------

The optimizer hands over whole blocks of plan ids of one table set
(:func:`prune_all_ids`), and the outcome sequence must equal pruning the plans
one by one in block order.  A plan's outcome depends on one fact only:
whether a *witness* exists -- a result plan ``W`` registered at resolution
``<= r`` with a compatible order and ``c(W) <= min(b, alpha_r * c(p))``.
Within a block the result set only grows, and only through the block's own
INSERTED plans, which sit at resolution ``r`` inside the bounds.  So a plan
has a witness in sequence exactly when it has one in the result set as it
was before the block, or some earlier plan of the block was inserted and
approximates it.  The block is therefore decided in four steps:

1. every cached witness (``witnesses``) is re-validated at once: one gather
   of the witnesses' cost rows and one row-wise comparison against the
   targets ``min(b, alpha_r * c(p))``;
2. the plans still undecided are matched against the pre-block result set
   with one block-vs-bucket kernel call per in-range bucket
   (:meth:`PlanIndex.find_dominating_ids`);
3. the rest walk in block order: an in-bounds plan nobody approximates is
   inserted, and one kernel call claims every later undecided plan it
   approximates with a compatible order; an out-of-bounds plan nobody
   approximates stays a candidate for ``r``;
4. the candidate and result index writes go in per (resolution, bucket) in
   block order (:meth:`PlanIndex.insert_ids`), which creates buckets and
   slots exactly as the per-plan inserts would.

Which witness a plan records may differ from a per-plan run (an in-block
plan and a pre-block plan can both qualify); the witness cache only promises
*some* witness, and every cached witness is re-validated before use.
"""

from __future__ import annotations

import enum
from array import array
from typing import Dict, List, Optional, Sequence

from repro import kernel
from repro.costs.vector import CostVector
from repro.core.index import PlanIndex
from repro.obs import trace as obs_trace
from repro.plans.arena import PlanArena
from repro.plans.plan import Plan


class PruneOutcome(enum.Enum):
    """What happened to a plan handed to :func:`prune_all_ids`."""

    #: The plan was inserted into the result plan set.
    INSERTED = "inserted"
    #: An existing result plan approximates it; kept as candidate for ``r + 1``.
    DEFERRED_TO_HIGHER_RESOLUTION = "deferred"
    #: Its cost exceeds the bounds; kept as candidate for the current resolution.
    OUT_OF_BOUNDS = "out_of_bounds"
    #: Approximated at the maximal resolution; the plan is dropped for good.
    DISCARDED = "discarded"

    @property
    def became_result(self) -> bool:
        return self is PruneOutcome.INSERTED

    @property
    def became_candidate(self) -> bool:
        return self in (
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
            PruneOutcome.OUT_OF_BOUNDS,
        )


def order_covers(provider: Plan, consumer: Plan) -> bool:
    """Whether ``provider`` offers at least the ordering guarantee of ``consumer``.

    A plan without an interesting order is covered by any plan; a plan with an
    interesting order is only covered by plans producing the same order.  The
    pruning comparison uses this rule so that plans producing a useful tuple
    order are never pruned by cheaper unordered plans (the multi-objective
    generalization of Selinger's interesting-order rule, Section 4.3).
    """
    if consumer.interesting_order is None:
        return True
    return provider.interesting_order == consumer.interesting_order


def prune_all_ids(
    result_index: PlanIndex,
    candidate_index: PlanIndex,
    bounds: CostVector,
    resolution: int,
    alpha: float,
    max_resolution: int,
    arena: PlanArena,
    plan_ids: Sequence[int],
    respect_orders: bool = True,
    witnesses: Optional[Dict[int, int]] = None,
) -> List[PruneOutcome]:
    """Apply procedure ``Prune`` to a block of arena plan ids of one table set.

    Parameters
    ----------
    result_index, candidate_index:
        The result plan set ``Res^q`` and candidate plan set ``Cand^q`` of the
        plans' table set.
    bounds:
        Current cost bounds ``b``.
    resolution:
        Current resolution level ``r``.
    alpha:
        The precision factor ``alpha_r`` for the current resolution.
    max_resolution:
        ``r_M``; plans approximated at the maximal resolution are discarded.
    arena, plan_ids:
        The block: ids into ``arena``, decided in this order.
    respect_orders:
        When true (default), only result plans with a compatible interesting
        order may approximate a plan.
    witnesses:
        Optional cache mapping a plan id to the id of the result plan that
        approximated it in an earlier pruning (its *witness*).  When a
        deferred candidate is re-pruned at the next resolution level, the
        witness usually still approximates it, so the search is skipped.  The
        cache is purely an optimization: its hits satisfy exactly the
        condition of Algorithm 3 line 7.

    Returns
    -------
    List[PruneOutcome]
        One outcome per plan, identical to pruning the plans one at a time in
        block order (see the module docstring for why).
    """
    if alpha < 1.0:
        raise ValueError("the precision factor alpha_r must be >= 1")
    if not plan_ids:
        return []
    with obs_trace.span(
        "pruning.prune_block", block_size=len(plan_ids), resolution=resolution
    ):
        return _prune_block(
            result_index,
            candidate_index,
            tuple(bounds),
            resolution,
            alpha,
            max_resolution,
            arena,
            plan_ids,
            respect_orders,
            witnesses,
        )


def _prune_block(
    result_index: PlanIndex,
    candidate_index: PlanIndex,
    bounds_row: tuple,
    resolution: int,
    alpha: float,
    max_resolution: int,
    arena: PlanArena,
    plan_ids: Sequence[int],
    respect_orders: bool,
    witnesses: Optional[Dict[int, int]],
) -> List[PruneOutcome]:
    ops = kernel.ops
    count = len(plan_ids)
    with obs_trace.span(
        "kernel.block",
        op="take+scale+minimum",
        backend=kernel.backend_name(),
        block_size=count,
    ):
        columns = ops.take(arena.costs.columns, [plan_id - 1 for plan_id in plan_ids])
        # A result plan approximates row i iff its cost is <= targets[i].
        targets = ops.minimum_columns(ops.scale_columns(columns, alpha), bounds_row)
    # The order a witness must produce: 0 accepts any plan.
    required = arena.order_ids_of(plan_ids) if respect_orders else [0] * count
    found = [0] * count

    # Step 1: re-validate the cached witnesses in one gather-and-compare.
    if witnesses:
        _check_cached_witnesses(
            result_index,
            resolution,
            arena,
            plan_ids,
            targets,
            required,
            witnesses,
            found,
        )

    # Step 2: one block-vs-bucket pass against the pre-block result set.
    open_rows = [row for row in range(count) if not found[row]]
    if open_rows and len(result_index):
        whole = len(open_rows) == count
        hits = result_index.find_dominating_ids(
            targets if whole else ops.take(targets, open_rows),
            bounds_row,
            resolution,
            required if whole else [required[row] for row in open_rows],
        )
        for row, witness in zip(open_rows, hits):
            found[row] = witness

    # Step 3: walk the rest in block order, one step per insertion.
    inserted: List[int] = []
    pending = array("b", [0 if witness else 1 for witness in found])
    if any(pending):
        required_column = array("q", required)
        for row in ops.leq_slots(columns, pending, bounds_row):
            if not pending[row]:
                continue  # claimed by a plan inserted earlier in the block
            pending[row] = 0
            inserted.append(row)
            plan_id = plan_ids[row]
            for claimed in ops.claim_dominated(
                targets,
                pending,
                tuple(col[row] for col in columns),
                row + 1,
                required_column,
                required[row],
            ):
                found[claimed] = plan_id

    # Outcomes and witness cache, in block order.
    inserted_set = set(inserted)
    if resolution < max_resolution:
        approximated = PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
        candidate_rows = [row for row in range(count) if row not in inserted_set]
        candidate_levels = [
            resolution + 1 if found[row] else resolution for row in candidate_rows
        ]
    else:
        approximated = PruneOutcome.DISCARDED
        candidate_rows = [
            row for row in range(count) if not found[row] and row not in inserted_set
        ]
        candidate_levels = [resolution] * len(candidate_rows)
    outcomes = [
        approximated
        if found[row]
        else PruneOutcome.INSERTED
        if row in inserted_set
        else PruneOutcome.OUT_OF_BOUNDS
        for row in range(count)
    ]
    if witnesses is not None:
        for row in inserted:
            witnesses.pop(plan_ids[row], None)
        approximated_rows = [row for row in range(count) if found[row]]
        if approximated is PruneOutcome.DISCARDED:
            for row in approximated_rows:
                witnesses.pop(plan_ids[row], None)
        else:
            witnesses.update(
                zip(
                    map(plan_ids.__getitem__, approximated_rows),
                    map(found.__getitem__, approximated_rows),
                )
            )

    # Step 4: the index writes, per (resolution, bucket) in block order.
    _insert_rows(
        candidate_index, arena, plan_ids, columns, candidate_rows, candidate_levels
    )
    _insert_rows(
        result_index, arena, plan_ids, columns, inserted, [resolution] * len(inserted)
    )
    return outcomes


def _check_cached_witnesses(
    result_index: PlanIndex,
    resolution: int,
    arena: PlanArena,
    plan_ids: Sequence[int],
    targets: Sequence[array],
    required: Sequence[int],
    witnesses: Dict[int, int],
    found: List[int],
) -> None:
    """Fill ``found`` for the rows whose cached witness still qualifies.

    A cached witness qualifies when it is registered in the result index at a
    resolution ``<= r``, produces the required order, and its cost is ``<=``
    the row's target.
    """
    lookup = list(map(witnesses.get, plan_ids))
    rows = [row for row, witness in enumerate(lookup) if witness is not None]
    if not rows:
        return
    cached = [lookup[row] for row in rows]
    levels = result_index.resolutions_of_ids(cached)
    orders = arena.order_ids_of(cached)
    keep = [
        index
        for index, (row, level, order) in enumerate(zip(rows, levels, orders))
        if 0 <= level <= resolution and (not required[row] or order == required[row])
    ]
    if not keep:
        return
    rows = [rows[index] for index in keep]
    cached = [cached[index] for index in keep]
    ops = kernel.ops
    witness_costs = ops.take(arena.costs.columns, [witness - 1 for witness in cached])
    for index in ops.leq_rows(witness_costs, ops.take(targets, rows)):
        found[rows[index]] = cached[index]


def _insert_rows(
    index: PlanIndex,
    arena: PlanArena,
    plan_ids: Sequence[int],
    columns: Sequence[array],
    rows: List[int],
    levels: List[int],
) -> None:
    if not rows:
        return
    if len(rows) == len(plan_ids):
        index.insert_ids(plan_ids, levels, arena, columns)
        return
    index.insert_ids(
        [plan_ids[row] for row in rows], levels, arena, kernel.ops.take(columns, rows)
    )
