"""Plan index supporting (cost, resolution) range queries.

Both the result plan set and the candidate plan set are "indexed by plan cost
and by resolution level.  Using a data structure supporting multi-dimensional
range queries allows to efficiently retrieve plans whose cost is within a
certain range and which are registered for a certain range of resolution
levels" (Section 4).  The paper points to the cell data structure of Bentley &
Friedman and assumes retrieval of ``F`` plans in ``O(F)`` and insertion in
``O(1)`` (Section 5.3), noting that logarithmic partitioning of the cost space
is a natural fit because approximate dominance regions are defined by constant
factors.

:class:`PlanIndex` implements exactly that: plans are grouped per resolution
level, and within a level they are bucketed by the logarithm of their first
cost component (a one-dimensional cell partition -- sufficient because the
range queries issued by the optimizer are always of the form "cost dominated by
``b``, resolution at most ``r``", i.e. a lower-left box, so pruning whole
buckets by their first-dimension lower bound is safe and effective).  Plans
with an infinite first cost component live in a dedicated sentinel bucket that
compares *above* every finite bucket, so the bucket-skipping comparisons treat
them as maximally expensive (they can never satisfy finite bounds) instead of
accidentally ranking them below the cheapest plans.

The index stores *arena plan ids*, not plan objects: each bucket is a
:class:`~repro.costs.matrix.CostBlock` whose payloads are plain integers, and
the arena reference (captured from the first inserted plan) turns ids back
into canonical handles only at the object-API boundary (:meth:`retrieve`,
:meth:`find_dominating`).  Each bucket keeps its plans' cost rows in a
:class:`~repro.costs.matrix.CostMatrix`, so a bucket is filtered with one
kernel call (:mod:`repro.kernel`) instead of a per-plan ``dominates()`` loop.

The optimizer's hot path works a block of plans at a time:

* :meth:`insert_ids` registers a block with one column-wise append per
  (resolution, bucket) group.  Groups are visited in order of first
  appearance and keep block order inside, so buckets are created, and slots
  filled, exactly as one :meth:`insert_id` per plan would;
* :meth:`take_ids` removes and returns what :meth:`retrieve_ids` would
  return, emptying or tombstoning each bucket in one pass instead of one
  :meth:`remove_id` per plan;
* :meth:`find_dominating_ids` runs the witness search of a whole block:
  buckets in ascending first-metric order, each compared against every row
  still without a witness in one block-vs-bucket kernel call.  It is the
  only witness search; :meth:`find_dominating_id` is its one-row form.

Removal tombstones the bucket slot and compacts lazily, preserving insertion
order -- retrieval therefore returns plans in exactly the order the scalar
implementation did, which keeps frontiers byte-identical.  Retrieval order
(levels ascending, buckets in creation order, slots in insertion order)
feeds later pruning, which is why the bulk operations preserve it.

The index never stores duplicate plan ids and supports removal, which the
candidate set needs (every retrieved candidate is deleted and re-pruned,
Algorithm 2 lines 8-11).
"""

from __future__ import annotations

import math
from array import array
from bisect import insort
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import flags, kernel
from repro.costs.matrix import CostBlock
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena
from repro.plans.plan import Plan

#: Bucket id of plans whose first cost component is ``+inf``.  ``math.inf``
#: compares above every finite bucket id, so the "skip buckets above the
#: bound's bucket" logic handles unbounded costs without a special case.
INFINITE_BUCKET = math.inf

_BucketId = Union[int, float]


@dataclass(frozen=True)
class IndexedPlan:
    """A plan together with the resolution level it is registered for."""

    plan: Plan
    resolution: int


class _Bucket(CostBlock[int]):
    """One (resolution, cell) pair: the plan ids plus their cost matrix.

    Under the ``incremental_pareto`` flag each bucket additionally maintains
    its Pareto front -- the non-dominated cost rows with their plan ids --
    across invocations.  The front is built lazily on the first witness
    search that touches the bucket and then updated in place on insertion
    (Section 5.3 assumes O(1) amortized index maintenance, which a full
    re-sweep per query would break).  A witness exists on the front if and
    only if one exists in the full bucket: every non-front row is dominated
    by (or equal to) some front row, and dominance is transitive.  The
    *identity* of the witness may differ from the full-bucket scan, which is
    fine -- :meth:`PlanIndex.find_dominating_ids` only promises *some*
    dominating plan, and the pruning layer re-validates cached witnesses
    before use.

    Removing a front member invalidates the front (rebuilt lazily on the
    next search); removing a dominated row leaves it untouched.  Result
    indexes -- the only ones the optimizer issues witness searches against --
    rarely remove plans at all (dominated result plans are kept as potential
    sub-plans, Section 4.2), so invalidation is the cold path.
    """

    __slots__ = ("front", "front_ids")

    def __init__(self, dimensions: int):
        super().__init__(dimensions)
        #: Pareto front of the bucket (``None`` = not built / invalidated).
        self.front: Optional[CostBlock[int]] = None
        #: Plan ids currently on the front (parallel to ``front``).
        self.front_ids: Optional[set] = None

    def pareto_front(self) -> CostBlock[int]:
        """The bucket's Pareto front, building it on first use."""
        front = self.front
        if front is None:
            matrix = self.matrix
            front = CostBlock(matrix.dimensions)
            ids = set()
            for slot, keep in zip(matrix.alive_slots(), matrix.pareto_mask()):
                if keep:
                    plan_id = self.items[slot]
                    front.append(matrix.row(slot), plan_id)
                    ids.add(plan_id)
            self.front = front
            self.front_ids = ids
        return front

    def front_note_insert(self, cost_row: Sequence[float], plan_id: int) -> None:
        """Fold a newly appended row into the materialized front, if any."""
        front = self.front
        if front is None:
            return
        row = tuple(cost_row)
        if front.matrix.any_dominating(row):
            # Dominated by (or equal to) an incumbent: not on the front.
            return
        # Evict incumbents the new row strictly dominates.  (Equal rows
        # cannot appear here -- equality would have tripped the dominance
        # check above.)
        for slot in front.matrix.dominated_by_slots(row):
            self.front_ids.discard(front.items[slot])
            front.kill(slot)
        front.compact_if_needed()
        front.append(row, plan_id)
        self.front_ids.add(plan_id)

    def front_note_remove(self, plan_id: int) -> None:
        """Invalidate the front when one of its members is removed."""
        if self.front_ids is not None and plan_id in self.front_ids:
            self.front = None
            self.front_ids = None

    def order_mask(self, arena: PlanArena, order_id: int) -> array:
        """Liveness bitmap restricted to rows whose plan has ``order_id``."""
        order_of = arena.order_id_of
        return array(
            "b",
            [
                1 if plan_id is not None and order_of(plan_id) == order_id else 0
                for plan_id in self.items
            ],
        )


class PlanIndex:
    """Plans indexed by cost vector and resolution level.

    Parameters
    ----------
    cell_base:
        Base of the logarithmic partitioning of the first cost dimension.
        Cost values ``c`` land in bucket ``floor(log_base(c + 1))``.  A larger
        base means fewer, coarser buckets.
    """

    def __init__(self, cell_base: float = 2.0):
        if cell_base <= 1.0:
            raise ValueError("cell_base must be greater than 1")
        self._cell_base = cell_base
        self._log_base = math.log(cell_base)
        #: Arena that resolves the stored ids; captured on first insertion.
        self._arena: Optional[PlanArena] = None
        # resolution level -> bucket id -> bucket (insertion-ordered dicts)
        self._levels: Dict[int, Dict[_BucketId, _Bucket]] = {}
        # resolution level -> bucket ids in ascending order (the witness
        # search scans buckets cheap-to-expensive; kept sorted incrementally
        # so no per-query sort is needed)
        self._sorted_ids: Dict[int, List[_BucketId]] = {}
        # plan id -> (resolution, bucket, slot) for O(1) removal bookkeeping
        self._locations: Dict[int, Tuple[int, _BucketId, int]] = {}

    # ------------------------------------------------------------------
    # Bucketing
    # ------------------------------------------------------------------
    def _bucket_of_first(self, first: float) -> _BucketId:
        if math.isinf(first):
            return INFINITE_BUCKET
        return int(math.log(first + 1.0) / self._log_base)

    def _bucket_of(self, cost: Sequence[float]) -> _BucketId:
        return self._bucket_of_first(cost[0])

    def _require_arena(self) -> PlanArena:
        if self._arena is None:
            raise ValueError("the index is empty; no arena captured yet")
        return self._arena

    def _adopt_arena(self, arena: PlanArena) -> None:
        if self._arena is None:
            self._arena = arena
        elif self._arena is not arena:
            raise ValueError(
                "cannot mix plans from different arenas in one plan index"
            )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, plan: Plan, resolution: int) -> None:
        """Register ``plan`` for the given resolution level."""
        self.insert_id(plan.plan_id, resolution, plan.arena)

    def insert_id(
        self,
        plan_id: int,
        resolution: int,
        arena: Optional[PlanArena] = None,
    ) -> None:
        """Register the plan with the given arena id."""
        if resolution < 0:
            raise ValueError("resolution must be non-negative")
        if arena is not None:
            self._adopt_arena(arena)
        owner = self._require_arena()
        if plan_id in self._locations:
            raise ValueError(
                f"plan {plan_id} is already registered in this index"
            )
        cost_row = owner.cost_row(plan_id)
        bucket_id = self._bucket_of(cost_row)
        bucket = self._bucket_for(resolution, bucket_id)
        slot = bucket.append(cost_row, plan_id)
        bucket.front_note_insert(cost_row, plan_id)
        self._locations[plan_id] = (resolution, bucket_id, slot)

    def _bucket_for(self, resolution: int, bucket_id: _BucketId) -> _Bucket:
        level = self._levels.setdefault(resolution, {})
        bucket = level.get(bucket_id)
        if bucket is None:
            bucket = _Bucket(self._require_arena().dimensions)
            level[bucket_id] = bucket
            insort(self._sorted_ids.setdefault(resolution, []), bucket_id)
        return bucket

    def insert_ids(
        self,
        plan_ids: Sequence[int],
        resolutions: Sequence[int],
        arena: PlanArena,
        columns: Sequence[Sequence[float]],
    ) -> None:
        """Register a block of plans; same final state as :meth:`insert_id`
        called once per plan, in block order.

        ``resolutions`` and the cost ``columns`` (one per metric) run
        parallel to ``plan_ids``.  The rows are grouped per (resolution,
        bucket) in order of first appearance, so buckets are created in the
        order the per-plan inserts would create them, and each group is
        appended with one column-wise extend.
        """
        if not plan_ids:
            return
        self._adopt_arena(arena)
        locations = self._locations
        if len(set(plan_ids)) != len(plan_ids) or not locations.keys().isdisjoint(
            plan_ids
        ):
            raise ValueError("a plan of the block is already registered in this index")
        if min(resolutions) < 0:
            raise ValueError("resolution must be non-negative")
        bucket_of = self._bucket_of_first
        keys = [
            (resolution, bucket_of(first))
            for resolution, first in zip(resolutions, columns[0])
        ]
        # Groups in order of first appearance, block order inside each.
        groups: Dict[Tuple[int, _BucketId], List[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(key, []).append(position)
        whole = len(groups) == 1
        for (resolution, bucket_id), positions in groups.items():
            bucket = self._bucket_for(resolution, bucket_id)
            ids = [plan_ids[position] for position in positions]
            rows = columns if whole else kernel.ops.take(columns, positions)
            first_slot = bucket.extend(rows, ids)
            locations.update(
                zip(
                    ids,
                    zip(
                        repeat(resolution),
                        repeat(bucket_id),
                        range(first_slot, first_slot + len(ids)),
                    ),
                )
            )
            if bucket.front is not None:
                for offset, plan_id in enumerate(ids):
                    bucket.front_note_insert(
                        tuple(col[offset] for col in rows), plan_id
                    )

    def remove(self, plan: Plan) -> None:
        """Remove a previously registered plan."""
        if plan.arena is not self._arena:
            raise KeyError(
                f"plan {plan.plan_id} belongs to a different arena than this index"
            )
        self.remove_id(plan.plan_id)

    def remove_id(self, plan_id: int) -> None:
        """Remove the plan with the given arena id."""
        location = self._locations.pop(plan_id, None)
        if location is None:
            raise KeyError(f"plan {plan_id} is not registered in this index")
        resolution, bucket_id, slot = location
        level = self._levels[resolution]
        bucket = level[bucket_id]
        bucket.kill(slot)
        bucket.front_note_remove(plan_id)
        if bucket.matrix.live_count == 0:
            del level[bucket_id]
            self._sorted_ids[resolution].remove(bucket_id)
            if not level:
                del self._levels[resolution]
                del self._sorted_ids[resolution]
        elif bucket.compact_if_needed() is not None:
            for new_slot, survivor in enumerate(bucket.items):
                self._locations[survivor] = (resolution, bucket_id, new_slot)

    def take_ids(
        self,
        bounds: Sequence[float],
        max_resolution: int,
        min_resolution: int = 0,
    ) -> List[int]:
        """Remove and return the plans :meth:`retrieve_ids` would return.

        Same ids in the same order, and the same index contents afterwards,
        as :meth:`retrieve_ids` followed by one :meth:`remove_id` per id --
        but each bucket is filtered with one kernel call and emptied or
        tombstoned in one pass.  (Slot layouts may differ in where
        tombstones sit; live order never does.)
        """
        taken: List[int] = []
        if max_resolution < min_resolution:
            return taken
        bound_bucket = self._bucket_of(bounds)
        locations = self._locations
        for resolution in range(min_resolution, max_resolution + 1):
            buckets = self._levels.get(resolution)
            if not buckets:
                continue
            emptied: List[_BucketId] = []
            for bucket_id, bucket in buckets.items():
                if bucket_id > bound_bucket:
                    continue
                slots = bucket.matrix.dominated_slots(bounds)
                if not slots:
                    continue
                items = bucket.items
                ids = [items[slot] for slot in slots]
                taken.extend(ids)
                for plan_id in ids:
                    del locations[plan_id]
                if len(slots) == bucket.matrix.live_count:
                    emptied.append(bucket_id)
                    continue
                for slot in slots:
                    bucket.kill(slot)
                front_ids = bucket.front_ids
                if front_ids is not None and not front_ids.isdisjoint(ids):
                    bucket.front = None
                    bucket.front_ids = None
                if bucket.compact_if_needed() is not None:
                    for new_slot, survivor in enumerate(bucket.items):
                        locations[survivor] = (resolution, bucket_id, new_slot)
            if emptied:
                sorted_ids = self._sorted_ids[resolution]
                for bucket_id in emptied:
                    del buckets[bucket_id]
                    sorted_ids.remove(bucket_id)
                if not buckets:
                    del self._levels[resolution]
                    del self._sorted_ids[resolution]
        return taken

    def discard(self, plan: Plan) -> bool:
        """Remove the plan if present; return whether it was present."""
        if plan not in self:
            return False
        self.remove_id(plan.plan_id)
        return True

    def clear(self) -> None:
        """Remove all plans."""
        self._levels.clear()
        self._sorted_ids.clear()
        self._locations.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, plan: Plan) -> bool:
        # Plan ids are only unique per arena, so a handle from a foreign
        # arena must never match a registered id by coincidence.
        return plan.arena is self._arena and plan.plan_id in self._locations

    def contains_id(self, plan_id: int) -> bool:
        return plan_id in self._locations

    def resolution_of(self, plan: Plan) -> int:
        """The resolution level the plan is registered for."""
        if plan.arena is not self._arena:
            raise KeyError(
                f"plan {plan.plan_id} belongs to a different arena than this index"
            )
        return self.resolution_of_id(plan.plan_id)

    def resolution_of_id(self, plan_id: int) -> int:
        try:
            return self._locations[plan_id][0]
        except KeyError:
            raise KeyError(
                f"plan {plan_id} is not registered in this index"
            ) from None

    def resolutions_of_ids(self, plan_ids: Sequence[int]) -> List[int]:
        """Registered resolution of each id, or -1 for ids not in the index."""
        get = self._locations.get
        return [
            -1 if location is None else location[0] for location in map(get, plan_ids)
        ]

    def all_ids(self) -> List[int]:
        """Every registered plan id, in no particular order."""
        result: List[int] = []
        for buckets in self._levels.values():
            for bucket in buckets.values():
                result.extend(bucket.live_items())
        return result

    def all_plans(self) -> List[Plan]:
        """Every registered plan, in no particular order."""
        arena = self._arena
        if arena is None:
            return []
        return [arena.plan(plan_id) for plan_id in self.all_ids()]

    def all_entries(self) -> List[IndexedPlan]:
        """Every registered plan with its resolution level."""
        arena = self._arena
        result: List[IndexedPlan] = []
        for resolution, buckets in self._levels.items():
            for bucket in buckets.values():
                result.extend(
                    IndexedPlan(arena.plan(plan_id), resolution)
                    for plan_id in bucket.live_items()
                )
        return result

    def count_at_resolution(self, resolution: int) -> int:
        """Number of plans registered exactly at the given resolution."""
        buckets = self._levels.get(resolution, {})
        return sum(bucket.matrix.live_count for bucket in buckets.values())

    def retrieve_ids(
        self,
        bounds: Sequence[float],
        max_resolution: int,
        min_resolution: int = 0,
    ) -> List[int]:
        """Ids of plans with cost dominated by ``bounds``, resolution in range.

        This is the range query written ``S^q[0..b, 0..r]`` in the paper
        (optionally with a non-zero lower resolution limit, which the
        re-indexing of candidate plans uses).  Each surviving bucket is
        filtered with one batched kernel call.
        """
        if max_resolution < min_resolution:
            return []
        bound_bucket = self._bucket_of(bounds)
        result: List[int] = []
        for resolution in range(min_resolution, max_resolution + 1):
            buckets = self._levels.get(resolution)
            if not buckets:
                continue
            for bucket_id, bucket in buckets.items():
                if bucket_id > bound_bucket:
                    continue
                plan_ids = bucket.items
                result.extend(
                    plan_ids[slot] for slot in bucket.matrix.dominated_slots(bounds)
                )
        return result

    def retrieve(
        self,
        bounds: CostVector,
        max_resolution: int,
        min_resolution: int = 0,
    ) -> List[Plan]:
        """Like :meth:`retrieve_ids` but returns canonical plan handles."""
        ids = self.retrieve_ids(bounds, max_resolution, min_resolution)
        if not ids:
            return []
        arena = self._require_arena()
        return [arena.plan(plan_id) for plan_id in ids]

    def retrieve_entries(
        self,
        bounds: CostVector,
        max_resolution: int,
        min_resolution: int = 0,
    ) -> List[IndexedPlan]:
        """Like :meth:`retrieve` but also returns each plan's resolution."""
        if max_resolution < min_resolution:
            return []
        arena = self._arena
        bound_bucket = self._bucket_of(bounds)
        result: List[IndexedPlan] = []
        for resolution in range(min_resolution, max_resolution + 1):
            buckets = self._levels.get(resolution)
            if not buckets:
                continue
            for bucket_id, bucket in buckets.items():
                if bucket_id > bound_bucket:
                    continue
                plan_ids = bucket.items
                result.extend(
                    IndexedPlan(arena.plan(plan_ids[slot]), resolution)
                    for slot in bucket.matrix.dominated_slots(bounds)
                )
        return result

    def find_dominating_id(
        self,
        target: Sequence[float],
        bounds: Sequence[float],
        max_resolution: int,
        order_id: Optional[int] = None,
    ) -> int:
        """Id of some in-range plan whose cost dominates ``target``, or 0.

        The id-level witness search of Algorithm 3 line 7
        (``∃ p_A ∈ Res^q[0..b, 0..r] : c(p_A) ⪯ alpha_r · c(p)``) for one
        row; the caller passes the already-scaled ``target`` row.
        ``order_id`` restricts the comparison to plans with exactly that
        interned interesting order (Section 4.3); ``None`` or 0 accepts any
        plan.  A plan dominates both ``bounds`` and ``target`` exactly when
        it dominates their component-wise minimum, which is the query handed
        to :meth:`find_dominating_ids`.
        """
        if len(target) != len(bounds):
            raise ValueError(
                "cannot compare cost vectors of different dimensionality"
            )
        query = [[min(b, t)] for b, t in zip(bounds, target)]
        return self.find_dominating_ids(
            query, bounds, max_resolution, [order_id or 0]
        )[0]

    def find_dominating_ids(
        self,
        targets: Sequence[Sequence[float]],
        bounds: Sequence[float],
        max_resolution: int,
        order_ids: Sequence[int],
    ) -> List[int]:
        """Witness search of a block: one witness id (or 0) per target row.

        ``targets`` holds the query rows column-wise, already capped at the
        bounds (row ``i`` is ``min(bounds, alpha_r * c(p_i))``), so a plan
        qualifies for row ``i`` exactly when its cost is ``<=`` that row;
        ``bounds`` only sets the bucket cutoff.  ``order_ids[i]`` is the
        interned order row ``i`` requires (0 accepts any plan).

        Buckets are scanned in ascending first-metric order because
        dominating plans are cheap plans, and every bucket is compared
        against all rows still without a witness in one kernel call per
        distinct order requirement.  Under the ``incremental_pareto`` flag,
        unfiltered rows are compared against each bucket's maintained Pareto
        front instead of the full bucket: a dominating row exists in the
        bucket iff one exists on its front, and the expensive case -- a
        miss, which scans every in-range bucket -- shrinks from O(bucket) to
        O(front).  Order-filtered rows keep scanning full buckets, because
        the only plan with the requested order may be off the front.
        """
        count = len(order_ids)
        found = [0] * count
        if count == 0 or not self._locations:
            return found
        ops = kernel.ops
        bound_bucket = self._bucket_of(bounds)
        arena = self._arena
        use_fronts = flags.enabled("incremental_pareto")
        pending: Dict[int, List[int]] = {}
        for row, order_id in enumerate(order_ids):
            pending.setdefault(order_id, []).append(row)
        for resolution in range(0, max_resolution + 1):
            buckets = self._levels.get(resolution)
            if not buckets:
                continue
            for bucket_id in self._sorted_ids[resolution]:
                if bucket_id > bound_bucket or not pending:
                    break
                bucket = buckets[bucket_id]
                for order_id, rows in list(pending.items()):
                    if order_id:
                        block = bucket
                        alive = bucket.order_mask(arena, order_id)
                    else:
                        block = bucket.pareto_front() if use_fronts else bucket
                        alive = block.matrix.alive
                    queries = (
                        targets if len(rows) == count else ops.take(targets, rows)
                    )
                    slots = ops.first_leq_rows(block.matrix.columns, alive, queries)
                    items = block.items
                    left: List[int] = []
                    for row, slot in zip(rows, slots):
                        if slot < 0:
                            left.append(row)
                        else:
                            found[row] = items[slot]
                    if left:
                        pending[order_id] = left
                    else:
                        del pending[order_id]
        return found

    def find_dominating(
        self,
        target: CostVector,
        bounds: CostVector,
        max_resolution: int,
        order_filter: Optional[Callable[[Plan], bool]] = None,
    ) -> Optional[Plan]:
        """Return some in-range plan whose cost dominates ``target``, if any.

        Object-level wrapper over :meth:`find_dominating_id` for callers that
        filter with a plan predicate.  The returned plan is a *witness* of
        the approximation; the pruning layer caches it so that re-checking a
        deferred candidate at the next resolution level is usually a single
        dominance test.
        """
        if len(target) != len(bounds):
            raise ValueError(
                "cannot compare cost vectors of different dimensionality"
            )
        arena = self._arena
        if arena is None:
            return None
        if order_filter is None:
            plan_id = self.find_dominating_id(target, bounds, max_resolution)
            return arena.plan(plan_id) if plan_id else None
        bucket_limit = min(self._bucket_of(bounds), self._bucket_of(target))
        combined = tuple(min(b, t) for b, t in zip(bounds, target))
        for resolution in range(0, max_resolution + 1):
            buckets = self._levels.get(resolution)
            if not buckets:
                continue
            for bucket_id in self._sorted_ids[resolution]:
                if bucket_id > bucket_limit:
                    break
                bucket = buckets[bucket_id]
                for slot in bucket.matrix.dominated_slots(combined):
                    plan = arena.plan(bucket.items[slot])
                    if order_filter(plan):
                        return plan
        return None

    def any_dominating(
        self,
        target: CostVector,
        bounds: CostVector,
        max_resolution: int,
        order_filter: Optional[Callable[[Plan], bool]] = None,
    ) -> bool:
        """Whether some in-range plan's cost dominates ``target``."""
        return (
            self.find_dominating(target, bounds, max_resolution, order_filter)
            is not None
        )
