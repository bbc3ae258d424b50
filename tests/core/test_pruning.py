"""Unit tests for :mod:`repro.core.pruning` (procedure Prune, Algorithm 3).

Every scenario runs twice through :func:`prune_all_ids`: once with each plan
pruned as its own single-row block, and once with consecutive plans that
share the pruning parameters handed over as one multi-row block.  The
outcomes and index contents must be the same either way.
"""

import pytest

from repro.core.index import PlanIndex
from repro.core.pruning import PruneOutcome, order_covers, prune_all_ids
from repro.costs.vector import CostVector
from repro.plans.operators import ScanOperator
from repro.plans.plan import ScanPlan


def make_plan(cost, order=None):
    return ScanPlan("t", ScanOperator("seq_scan"), CostVector(cost), interesting_order=order)


@pytest.fixture
def indexes():
    return PlanIndex(), PlanIndex()


@pytest.fixture(params=["single", "block"])
def mode(request):
    return request.param


UNBOUNDED = CostVector.infinite(2)


def prune_block(indexes, plans, bounds=UNBOUNDED, resolution=0, alpha=1.1, max_resolution=2, **kwargs):
    result_index, candidate_index = indexes
    return prune_all_ids(
        result_index=result_index,
        candidate_index=candidate_index,
        bounds=bounds,
        resolution=resolution,
        alpha=alpha,
        max_resolution=max_resolution,
        arena=plans[0].arena,
        plan_ids=[plan.plan_id for plan in plans],
        **kwargs,
    )


def run_prune(indexes, plan, **kwargs):
    (outcome,) = prune_block(indexes, [plan], **kwargs)
    return outcome


def run_sequence(indexes, mode, plans, **kwargs):
    """Prune ``plans`` under one parameter set, per plan or as one block."""
    if mode == "single":
        return [run_prune(indexes, plan, **kwargs) for plan in plans]
    return prune_block(indexes, plans, **kwargs)


class TestInsertion:
    def test_first_plan_is_inserted(self, indexes):
        outcome = run_prune(indexes, make_plan([1, 1]))
        assert outcome is PruneOutcome.INSERTED
        assert outcome.became_result
        assert len(indexes[0]) == 1

    def test_incomparable_plan_is_inserted(self, indexes, mode):
        outcomes = run_sequence(indexes, mode, [make_plan([1, 5]), make_plan([5, 1])])
        assert outcomes[1] is PruneOutcome.INSERTED
        assert len(indexes[0]) == 2

    def test_plan_registered_at_current_resolution(self, indexes):
        plan = make_plan([1, 1])
        run_prune(indexes, plan, resolution=1)
        assert indexes[0].resolution_of(plan) == 1

    def test_dominated_result_plans_are_not_discarded(self, indexes, mode):
        worse = make_plan([5, 5])
        better = make_plan([1, 1])
        run_sequence(indexes, mode, [worse, better])
        # Section 4.2: result plans are never removed, even when dominated.
        assert worse in indexes[0]
        assert better in indexes[0]

    def test_empty_block_returns_no_outcomes(self, indexes):
        result_index, candidate_index = indexes
        assert prune_all_ids(
            result_index, candidate_index, UNBOUNDED, 0, 1.1, 2, None, []
        ) == []


class TestApproximationDeferral:
    def test_approximated_plan_becomes_candidate_for_next_resolution(self, indexes, mode):
        similar = make_plan([1.1, 1.1])
        outcomes = run_sequence(indexes, mode, [make_plan([1, 1]), similar], alpha=1.2)
        assert outcomes[1] is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
        assert outcomes[1].became_candidate
        assert indexes[1].resolution_of(similar) == 1

    def test_approximated_at_max_resolution_is_discarded(self, indexes, mode):
        outcomes = run_sequence(
            indexes,
            mode,
            [make_plan([1, 1]), make_plan([1.1, 1.1])],
            resolution=2,
            alpha=1.2,
            max_resolution=2,
        )
        assert outcomes[1] is PruneOutcome.DISCARDED
        assert len(indexes[1]) == 0

    def test_clearly_better_plan_is_not_deferred(self, indexes, mode):
        outcomes = run_sequence(
            indexes, mode, [make_plan([10, 10]), make_plan([1, 1])], alpha=1.2
        )
        assert outcomes[1] is PruneOutcome.INSERTED

    def test_chain_within_one_block(self, indexes, mode):
        # The first plan approximates the second, which therefore never enters
        # the result set and cannot approximate the third; the third is still
        # approximated by the first.
        plans = [make_plan([1, 1]), make_plan([1.1, 1.1]), make_plan([1.15, 1.15])]
        outcomes = run_sequence(indexes, mode, plans, alpha=1.2)
        assert outcomes == [
            PruneOutcome.INSERTED,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
        ]
        assert [plan in indexes[0] for plan in plans] == [True, False, False]

    def test_comparison_only_against_lower_or_equal_resolution(self, indexes):
        # A plan registered at a higher resolution must not prune new plans
        # (first design decision of Section 4.2).
        fine_plan = make_plan([1, 1])
        run_prune(indexes, fine_plan, resolution=2, alpha=1.01)
        outcome = run_prune(indexes, make_plan([1.001, 1.001]), resolution=0, alpha=1.5)
        assert outcome is PruneOutcome.INSERTED

    def test_alpha_below_one_rejected(self, indexes, mode):
        with pytest.raises(ValueError):
            run_sequence(indexes, mode, [make_plan([1, 1]), make_plan([2, 2])], alpha=0.9)


class TestBounds:
    def test_out_of_bounds_plan_becomes_candidate_at_current_resolution(self, indexes):
        plan = make_plan([10, 10])
        outcome = run_prune(indexes, plan, bounds=CostVector([5, 5]), resolution=1)
        assert outcome is PruneOutcome.OUT_OF_BOUNDS
        assert indexes[1].resolution_of(plan) == 1

    def test_out_of_bounds_checked_after_approximation(self, indexes, mode):
        # A plan that is both approximated and out of bounds is deferred to the
        # next resolution (the approximation branch is tested first in
        # Algorithm 3), not parked for the current one.
        outcomes = run_sequence(
            indexes,
            mode,
            [make_plan([1, 1]), make_plan([1.1, 1.1])],
            bounds=CostVector([5, 5]),
            alpha=1.3,
        )
        assert outcomes[1] is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION

    def test_result_plans_outside_bounds_cannot_approximate(self, indexes):
        # Only result plans within the bounds participate in the comparison.
        run_prune(indexes, make_plan([10, 10]))  # inserted under unbounded b
        tight_bounds = CostVector([5, 5])
        outcome = run_prune(indexes, make_plan([11, 11]), bounds=tight_bounds, alpha=2.0)
        assert outcome is PruneOutcome.OUT_OF_BOUNDS

    def test_out_of_bounds_plans_in_one_block_stay_candidates(self, indexes, mode):
        # An out-of-bounds plan never enters the result set, so it cannot
        # approximate a later in-bounds plan of the same block.
        plans = [make_plan([10, 1]), make_plan([4, 1.2]), make_plan([11, 1])]
        outcomes = run_sequence(
            indexes, mode, plans, bounds=CostVector([5, 5]), alpha=2.0
        )
        assert outcomes == [
            PruneOutcome.OUT_OF_BOUNDS,
            PruneOutcome.INSERTED,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
        ]
        assert indexes[1].resolution_of(plans[0]) == 0
        assert indexes[1].resolution_of(plans[2]) == 1


class TestInterestingOrders:
    def test_order_covers_semantics(self):
        unordered = make_plan([1, 1])
        ordered = make_plan([1, 1], order="sorted:a")
        other_order = make_plan([1, 1], order="sorted:b")
        assert order_covers(ordered, unordered)
        assert order_covers(unordered, unordered)
        assert order_covers(ordered, ordered)
        assert not order_covers(unordered, ordered)
        assert not order_covers(other_order, ordered)

    def test_ordered_plan_not_pruned_by_unordered_plan(self, indexes, mode):
        outcomes = run_sequence(
            indexes,
            mode,
            [make_plan([1, 1]), make_plan([1.5, 1.5], order="sorted:a")],
            alpha=2.0,
        )
        assert outcomes[1] is PruneOutcome.INSERTED

    def test_unordered_plan_can_be_pruned_by_ordered_plan(self, indexes, mode):
        outcomes = run_sequence(
            indexes,
            mode,
            [make_plan([1, 1], order="sorted:a"), make_plan([1.5, 1.5])],
            alpha=2.0,
        )
        assert outcomes[1] is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION

    def test_orders_ignored_when_disabled(self, indexes, mode):
        outcomes = run_sequence(
            indexes,
            mode,
            [make_plan([1, 1]), make_plan([1.5, 1.5], order="sorted:a")],
            alpha=2.0,
            respect_orders=False,
        )
        assert outcomes[1] is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION


class TestWitnessCache:
    def test_witness_recorded_on_deferral(self, indexes, mode):
        witnesses = {}
        anchor = make_plan([1, 1])
        deferred = make_plan([1.2, 1.2])
        run_sequence(indexes, mode, [anchor, deferred], alpha=1.5, witnesses=witnesses)
        assert witnesses[deferred.plan_id] == anchor.plan_id

    def test_witness_cleared_on_insertion(self, indexes, mode):
        witnesses = {}
        # The anchor trades off against the deferred plan (it does not dominate
        # it outright), so only the coarse precision factor lets it approximate.
        anchor = make_plan([1, 1.3])
        deferred = make_plan([1.2, 1.2])
        run_sequence(indexes, mode, [anchor, deferred], alpha=1.5, witnesses=witnesses)
        assert witnesses[deferred.plan_id] == anchor.plan_id
        indexes[1].remove(deferred)
        # At a finer precision the witness no longer approximates the plan, so
        # it gets inserted and its witness entry removed.
        outcome = run_prune(indexes, deferred, resolution=1, alpha=1.01, witnesses=witnesses)
        assert outcome is PruneOutcome.INSERTED
        assert deferred.plan_id not in witnesses

    def test_witness_dropped_on_discard(self, indexes, mode):
        witnesses = {}
        anchor = make_plan([1, 1])
        deferred = make_plan([1.2, 1.2])
        run_sequence(indexes, mode, [anchor, deferred], alpha=1.5, witnesses=witnesses)
        indexes[1].remove(deferred)
        outcome = run_prune(
            indexes, deferred, resolution=2, alpha=1.5, max_resolution=2, witnesses=witnesses
        )
        assert outcome is PruneOutcome.DISCARDED
        assert deferred.plan_id not in witnesses

    def test_witness_cache_gives_same_outcome(self, indexes, mode):
        anchor = make_plan([1, 1])
        deferred = make_plan([1.2, 1.2])
        witnesses = {}
        run_sequence(indexes, mode, [anchor, deferred], alpha=1.5, witnesses=witnesses)
        indexes[1].remove(deferred)
        with_cache = run_prune(
            indexes, deferred, resolution=1, alpha=1.5, witnesses=witnesses
        )
        # Without the cache (fresh indexes, no witnesses) the outcome must be
        # identical.
        other_result, other_cand = PlanIndex(), PlanIndex()
        other_result.insert(anchor, 0)
        no_cache = run_prune((other_result, other_cand), deferred, resolution=1, alpha=1.5)
        assert with_cache is no_cache
