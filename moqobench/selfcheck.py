"""Unit checks of the benchmark's own statistics and input generation.

    python3 moqobench/run.py --selfcheck
"""

from __future__ import annotations

import random
import sys
import unittest
from collections import Counter

import pools
from stats import MIN_BEYOND, percentile, seeded_pass, summarize, tail_rung


class TailRule(unittest.TestCase):
    def test_rung_keeps_ten_samples_beyond(self):
        for count in range(2 * MIN_BEYOND, 3000):
            pct = tail_rung(count)
            beyond = count * (100.0 - pct) / 100.0
            self.assertGreaterEqual(beyond + 1e-9, MIN_BEYOND, count)

    def test_rung_is_the_highest_that_qualifies(self):
        self.assertEqual(tail_rung(20), 50.0)
        self.assertEqual(tail_rung(39), 50.0)
        self.assertEqual(tail_rung(40), 75.0)
        self.assertEqual(tail_rung(99), 75.0)
        self.assertEqual(tail_rung(100), 90.0)
        self.assertEqual(tail_rung(200), 95.0)
        self.assertEqual(tail_rung(999), 95.0)
        self.assertEqual(tail_rung(1000), 99.0)

    def test_too_few_samples_have_no_tail(self):
        with self.assertRaises(ValueError):
            tail_rung(2 * MIN_BEYOND - 1)

    def test_summary_reports_count_and_percentile(self):
        values = list(range(1, 101))
        summary = summarize(values)
        self.assertEqual(summary["count"], 100)
        self.assertEqual(summary["tail_pct"], 90.0)
        self.assertAlmostEqual(summary["tail"], percentile(values, 90.0))
        self.assertAlmostEqual(summary["p50"], 50.5)


class SessionMix(unittest.TestCase):
    def test_every_pass_runs_each_member_once(self):
        rng = random.Random("refine_cold:7")
        for _ in range(5):
            one_pass = seeded_pass(pools.REFINE_POOL, rng)
            self.assertEqual(Counter(one_pass), Counter(pools.REFINE_POOL))

    def test_order_depends_on_seed_only(self):
        first = [seeded_pass(pools.REFINE_POOL, random.Random("s:1")) for _ in range(2)]
        again = [seeded_pass(pools.REFINE_POOL, random.Random("s:1")) for _ in range(2)]
        self.assertEqual(first, again)

    def test_median_of_whole_passes_falls_inside_one_member(self):
        # Odd pool: the median rank of k whole passes sits mid-block.
        size = len(pools.REFINE_POOL)
        self.assertEqual(size % 2, 1)
        for passes in range(1, 10):
            rank = (size * passes - 1) / 2.0
            self.assertEqual(int(rank // passes), size // 2)


class ServeMix(unittest.TestCase):
    def test_classes_follow_the_probe_first_rule(self):
        import serve

        seen = Counter()
        for planned in serve.build_schedule(seed=3, count=400):
            want = ("probe", "warm")[seen[planned.key]] if seen[planned.key] < 2 else "hit"
            self.assertEqual(planned.kind, want)
            self.assertEqual(planned.invocations == pools.LEVELS, planned.kind != "probe")
            seen[planned.key] += 1

    def test_requests_for_one_key_are_key_gap_apart(self):
        import serve

        last = {}
        for slot, planned in enumerate(serve.build_schedule(seed=5, count=400)):
            if planned.key in last:
                self.assertGreaterEqual(slot - last[planned.key], serve.KEY_GAP)
            last[planned.key] = slot

    def test_members_share_warm_starts_and_probes_in_whole_passes(self):
        import serve

        passes, rng, first = {}, random.Random("t"), 1
        repeating, once = [], []
        for trace_seed in range(40):
            trace = serve.trace_keys(trace_seed, passes, rng, first)
            first = max(p.key for p in trace) + 1
            members = {p.key: p.member for p in trace}
            arrivals = Counter(p.key for p in trace)
            for key in sorted(members):
                (repeating if arrivals[key] > 1 else once).append(members[key])
        size = len(pools.SERVE_POOL)
        for order in (repeating, once):
            for start in range(0, len(order) - size + 1, size):
                self.assertEqual(Counter(order[start:start + size]), Counter(pools.SERVE_POOL))

    def test_schedule_is_a_function_of_the_seed(self):
        import serve

        self.assertEqual(serve.build_schedule(9, 100), serve.build_schedule(9, 100))
        self.assertNotEqual(serve.build_schedule(9, 100), serve.build_schedule(10, 100))


class SpeedScale(unittest.TestCase):
    def log(self, samples):
        from speed import SpeedLog

        speed = SpeedLog()
        speed.samples = list(samples)
        return speed

    def test_scale_uses_the_nearest_samples(self):
        from speed import NEAREST, REFERENCE_S

        # A fast phase (reference 8 ms) until t=10, a slow one (16 ms) after.
        speed = self.log([(t, 0.008 if t < 10 else 0.016) for t in range(20)])
        self.assertEqual(NEAREST, 4)
        self.assertAlmostEqual(speed.scale(2.0, 3.0), REFERENCE_S / 0.008)
        self.assertAlmostEqual(speed.scale(15.0, 16.0), REFERENCE_S / 0.016)

    def test_one_outlier_does_not_move_the_scale(self):
        from speed import REFERENCE_S

        speed = self.log([(0, 0.01), (1, 0.01), (2, 0.05), (3, 0.01), (4, 0.01)])
        self.assertAlmostEqual(speed.scale(1.5, 2.5), REFERENCE_S / 0.01)

    def test_reference_routine_is_fixed(self):
        from speed import reference_routine

        self.assertEqual(reference_routine(), reference_routine())


def main() -> int:
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
