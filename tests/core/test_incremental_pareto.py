"""Incremental per-bucket Pareto fronts of :class:`PlanIndex`.

The ``incremental_pareto`` flag routes unfiltered witness searches
(:meth:`PlanIndex.find_dominating_ids` rows with order 0, reached here
through its one-row form :meth:`PlanIndex.find_dominating_id`) through a
per-bucket Pareto front that is built lazily and maintained across
invocations instead of re-scanning (or re-sweeping) the full bucket.  The
contract: the *existence* answer is identical to the full-bucket scan, every
returned witness genuinely dominates the combined bound, and turning the
flag off mid-flight falls back to the full scan without any rebuild cost.

The end-to-end guarantee -- a full optimizer sweep produces bit-identical
frontiers with the flag on and off -- is asserted here too, mirroring the
kernel-backend equivalence suite.
"""

import random

from repro import flags
from repro.core.index import PlanIndex
from repro.core.optimizer import IncrementalOptimizer
from repro.core.resolution import ResolutionSchedule
from repro.costs.dominance import dominates
from repro.costs.vector import CostVector
from repro.plans.operators import ScanOperator
from repro.plans.plan import ScanPlan
from tests.conftest import build_chain_query, build_factory

DIMS = 3


def make_plan(cost, order=None):
    return ScanPlan(
        "t", ScanOperator("seq_scan"), CostVector(cost), interesting_order=order
    )


def make_cost(rng, lo=8.0, hi=14.0):
    # First components inside [8, 14] share log2 bucket 3, so these rows
    # exercise front maintenance within a single bucket.
    return [rng.uniform(lo, hi) for _ in range(DIMS)]


def only_bucket(index):
    (level,) = index._levels.values()
    (bucket,) = level.values()
    return bucket


def force_front(index, resolution=0):
    """Issue one missing witness query so the lazy fronts materialize."""
    # First component stays high so the bucket-limit pruning does not skip
    # the bucket; the remaining components make the search an overall miss.
    miss = (100.0,) + (0.5,) * (DIMS - 1)
    assert index.find_dominating_id(miss, (100.0,) * DIMS, resolution) == 0


def front_snapshot(bucket):
    """(cost tuple, plan id) pairs currently on the materialized front."""
    front = bucket.front
    return sorted(
        (tuple(front.matrix.row(slot)), front.items[slot])
        for slot in front.matrix.alive_slots()
    )


def pareto_reference(bucket):
    """The front recomputed from scratch via the kernel Pareto sweep."""
    matrix = bucket.matrix
    return sorted(
        (tuple(matrix.row(slot)), bucket.items[slot])
        for slot, keep in zip(matrix.alive_slots(), matrix.pareto_mask())
        if keep
    )


class TestFrontMaintenance:
    def test_front_is_lazy(self):
        index = PlanIndex()
        for _ in range(4):
            index.insert(make_plan(make_cost(random.Random(3))), 0)
        assert only_bucket(index).front is None
        force_front(index)
        assert only_bucket(index).front is not None

    def test_flag_off_never_builds_fronts(self):
        index = PlanIndex()
        index.insert(make_plan([9.0, 9.0, 9.0]), 0)
        with flags.overrides(incremental_pareto=False):
            force_front(index)
        assert only_bucket(index).front is None

    def test_built_front_matches_pareto_sweep(self):
        rng = random.Random(17)
        index = PlanIndex()
        for _ in range(64):
            index.insert(make_plan(make_cost(rng)), 0)
        force_front(index)
        bucket = only_bucket(index)
        assert front_snapshot(bucket) == pareto_reference(bucket)

    def test_insert_folds_into_existing_front(self):
        rng = random.Random(23)
        index = PlanIndex()
        for _ in range(16):
            index.insert(make_plan(make_cost(rng)), 0)
        force_front(index)
        # A dominated insertion must leave the front untouched; a dominating
        # one must evict its victims; both must keep the front equal to a
        # from-scratch sweep.
        index.insert(make_plan([13.9, 13.9, 13.9]), 0)  # dominated by most
        bucket = only_bucket(index)
        assert front_snapshot(bucket) == pareto_reference(bucket)
        index.insert(make_plan([8.01, 8.01, 8.01]), 0)  # dominates most
        assert front_snapshot(bucket) == pareto_reference(bucket)
        # Incremental maintenance, not a rebuild: the front object survived.
        assert bucket.front is not None

    def test_remove_front_member_invalidates(self):
        index = PlanIndex()
        champion = make_plan([8.5, 8.5, 8.5])
        index.insert(champion, 0)
        index.insert(make_plan([12.0, 12.0, 12.0]), 0)
        force_front(index)
        bucket = only_bucket(index)
        assert bucket.front_ids == {champion.plan_id}
        index.remove(champion)
        assert bucket.front is None
        # The next search rebuilds: the previously shadowed plan surfaces.
        assert index.find_dominating_id((13.0,) * DIMS, (100.0,) * DIMS, 0) != 0
        assert front_snapshot(bucket) == pareto_reference(bucket)

    def test_remove_dominated_member_keeps_front(self):
        index = PlanIndex()
        index.insert(make_plan([8.5, 8.5, 8.5]), 0)
        shadowed = make_plan([12.0, 12.0, 12.0])
        index.insert(shadowed, 0)
        force_front(index)
        bucket = only_bucket(index)
        index.remove(shadowed)
        assert bucket.front is not None
        assert front_snapshot(bucket) == pareto_reference(bucket)

    def test_equal_rows_keep_one_representative(self):
        index = PlanIndex()
        first = make_plan([9.0, 9.0, 9.0])
        index.insert(first, 0)
        force_front(index)
        index.insert(make_plan([9.0, 9.0, 9.0]), 0)
        bucket = only_bucket(index)
        assert bucket.front_ids == {first.plan_id}
        assert front_snapshot(bucket) == pareto_reference(bucket)


class TestWitnessEquivalence:
    """Flag on and off must agree on witness *existence* for any workload,
    and every returned witness must genuinely dominate the combined bound."""

    def run_workload(self, seed):
        rng = random.Random(seed)
        index = PlanIndex()
        plans = []
        for step in range(300):
            action = rng.random()
            if action < 0.55 or not plans:
                plan = make_plan(
                    [rng.uniform(1.0, 60.0) for _ in range(DIMS)],
                    order=rng.choice((None, "a", "b")),
                )
                index.insert(plan, rng.randrange(3))
                plans.append(plan)
            elif action < 0.70:
                victim = plans.pop(rng.randrange(len(plans)))
                index.remove(victim)
            else:
                target = tuple(rng.uniform(1.0, 60.0) for _ in range(DIMS))
                bounds = tuple(rng.uniform(20.0, 80.0) for _ in range(DIMS))
                resolution = rng.randrange(3)
                with flags.overrides(incremental_pareto=True):
                    fast = index.find_dominating_id(target, bounds, resolution)
                with flags.overrides(incremental_pareto=False):
                    slow = index.find_dominating_id(target, bounds, resolution)
                assert bool(fast) == bool(slow), (seed, step)
                if fast:
                    combined = tuple(map(min, bounds, target))
                    for witness in (fast, slow):
                        cost = index._arena.cost_row(witness)
                        assert dominates(cost, combined), (seed, step)
                        assert index.resolution_of_id(witness) <= resolution

    def test_randomized_workloads(self):
        for seed in range(8):
            self.run_workload(seed)

    def test_order_filtered_search_ignores_fronts(self):
        # The order_id path must keep scanning full buckets: the only plan
        # with the requested order may be dominated off the front.
        index = PlanIndex()
        index.insert(make_plan([8.5, 8.5, 8.5], order=None), 0)
        ordered = make_plan([12.0, 12.0, 12.0], order="a")
        index.insert(ordered, 0)
        force_front(index)
        order_id = index._arena.order_id_of(ordered.plan_id)
        found = index.find_dominating_id(
            (13.0,) * DIMS, (100.0,) * DIMS, 0, order_id=order_id
        )
        assert found == ordered.plan_id


class TestOptimizerEquivalence:
    def frontier_trace(self, incremental):
        with flags.overrides(incremental_pareto=incremental):
            query = build_chain_query()
            factory = build_factory(query)
            schedule = ResolutionSchedule(
                levels=3, target_precision=1.05, precision_step=0.3
            )
            optimizer = IncrementalOptimizer(query, factory, schedule)
            unbounded = factory.metric_set.unbounded_vector()
            trace = []
            for resolution in schedule.resolutions():
                report = optimizer.optimize(unbounded, resolution)
                frontier = optimizer.frontier(unbounded, resolution)
                trace.append(
                    (
                        report.plans_inserted,
                        report.plans_deferred,
                        report.plans_out_of_bounds,
                        tuple(tuple(plan.cost) for plan in frontier),
                    )
                )
            return trace

    def test_full_sweep_is_bit_identical_with_flag_off(self):
        assert self.frontier_trace(True) == self.frontier_trace(False)
