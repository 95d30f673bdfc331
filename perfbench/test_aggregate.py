"""Tests for the benchmark's aggregation rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import aggregate


def episode(**kw):
    e = {"traced": False, "setup_s": 1.0, "ref_s": 1.0, "wall_s": 2.0,
         "requests": 10, "failed": 0, "tokens": 50, "ttft_ms": [],
         "itl_ms": [], "latency_ms": [], "fingerprint": {"steps": 3},
         "layer_samples": {}, "layer_values": {}}
    e.update(kw)
    return e


def report(episodes, checks=0, check_failures=0):
    return {"episodes": episodes, "setup_s": [e["setup_s"] for e in episodes],
            "checks": checks,
            "check_failures": check_failures,
            "layer_values": {}, "errors": []}


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(aggregate.percentile(list(range(99)), 0.9))
        self.assertIsNotNone(aggregate.percentile(list(range(100)), 0.9))
        self.assertIsNone(aggregate.percentile(list(range(999)), 0.99))
        self.assertIsNotNone(aggregate.percentile(list(range(1000)), 0.99))
        self.assertIsNone(aggregate.percentile(list(range(19)), 0.5))
        self.assertIsNone(aggregate.percentile([], 0.5))

    def test_interpolates_between_ranks(self):
        values = list(range(1, 21))  # input order must not matter
        self.assertAlmostEqual(aggregate.percentile(values[::-1], 0.5), 10.5)
        self.assertAlmostEqual(aggregate.percentile(list(range(101)), 0.9),
                               90.0)

    def test_missing_percentile_is_left_out(self):
        eps = [episode(ttft_ms=[1.0] * 50, itl_ms=[2.0] * 50,
                       latency_ms=[3.0] * 50)]
        m = aggregate.end_to_end(report(eps), 12.5)
        self.assertIn("ttft_p50_ms", m)
        self.assertNotIn("ttft_p90_ms", m)
        self.assertNotIn("itl_p99_ms", m)


class MedianAndQuartiles(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, q2, q3 = aggregate.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, aggregate.median(values))
        self.assertAlmostEqual(aggregate.spread(values), (q3 - q1) / q2)

    def test_rates_are_medians_over_episodes(self):
        eps = [episode(ref_s=w, tokens=100, setup_s=w)
               for w in (1.0, 2.0, 4.0)]
        r = report(eps)
        r["setup_s"] += [8.0, 9.0]
        m = aggregate.end_to_end(r, 12.5)
        self.assertAlmostEqual(m["tok_s"], 50.0)
        self.assertAlmostEqual(m["setup_s"], 4.0)

    def test_percentiles_are_medians_over_episodes(self):
        eps = [episode(latency_ms=[float(i)] * 100) for i in (1, 2, 9)]
        m = aggregate.end_to_end(report(eps), 12.5)
        self.assertAlmostEqual(m["latency_p50_ms"], 2.0)
        self.assertAlmostEqual(m["latency_p90_ms"], 2.0)

    def test_one_slow_episode_does_not_move_a_tail(self):
        eps = [episode(itl_ms=[10.0] * 990 + [20.0] * 10),
               episode(itl_ms=[10.0] * 990 + [20.0] * 10),
               episode(itl_ms=[10.0] * 990 + [900.0] * 10)]
        m = aggregate.end_to_end(report(eps), 12.5)
        # p99 of each: 10 + 0.01 * (last - 10); the slow episode is outvoted.
        self.assertAlmostEqual(m["itl_p99_ms"], 10.1)

    def test_every_episode_needs_the_samples(self):
        # Three episodes of 60 samples hold 18 beyond a p90 together, but
        # each has 6: the p90 is missing, not pooled.
        eps = [episode(latency_ms=[float(i)] * 60) for i in (1, 2, 9)]
        m = aggregate.end_to_end(report(eps), 12.5)
        self.assertAlmostEqual(m["latency_p50_ms"], 2.0)
        self.assertNotIn("latency_p90_ms", m)
        eps = [episode(ttft_ms=[1.0] * 100), episode(ttft_ms=[1.0] * 99)]
        m = aggregate.end_to_end(report(eps), 12.5)
        self.assertIn("ttft_p50_ms", m)
        self.assertNotIn("ttft_p90_ms", m)

    def test_traced_episodes_stay_out_of_end_to_end(self):
        eps = [episode(ref_s=1.0), episode(traced=True, ref_s=100.0)]
        m = aggregate.end_to_end(report(eps), 12.5)
        self.assertAlmostEqual(m["tok_s"], 50.0)

    def test_rates_use_reference_time(self):
        eps = [episode(ref_s=1.0, wall_s=4.0)]
        r = report(eps)
        self.assertAlmostEqual(aggregate.end_to_end(r, 12.5)["tok_s"], 50.0)
        self.assertAlmostEqual(aggregate.wall_tok_s(r), 12.5)


class FailureCounting(unittest.TestCase):
    def test_counts_requests_and_checks(self):
        eps = [episode(requests=10, failed=1), episode(requests=10)]
        self.assertEqual(aggregate.counts(report(eps, 4, 2)), (24, 3))

    def test_failed_requests_do_not_count_as_responses(self):
        eps = [episode(requests=10, failed=4, ref_s=2.0)]
        self.assertAlmostEqual(aggregate.end_to_end(report(eps), 12.5)["resp_s"],
                               3.0)

    def test_fingerprint_must_agree(self):
        same = [episode(), episode()]
        self.assertEqual(aggregate.fingerprint(report(same)), {"steps": 3})
        differ = [episode(), episode(fingerprint={"steps": 4})]
        self.assertIsNone(aggregate.fingerprint(report(differ)))


class PerLayer(unittest.TestCase):
    def test_idle_layers_report_zero(self):
        eps = [episode(), episode(traced=True,
                                  layer_values={"kv.preemptions": 3.0})]
        m = aggregate.per_layer(report(eps))
        self.assertEqual(set(m), {n for n, _, _ in aggregate.PER_LAYER})
        self.assertEqual(m["kv.preemptions"], 3.0)
        self.assertEqual(m["genserve.step_ms_p50"], 0.0)

    def test_trace_overhead_compares_throughput(self):
        eps = [episode(ref_s=1.0), episode(traced=True, ref_s=1.25)]
        m = aggregate.per_layer(report(eps))
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.2)

    def test_machine_speed_is_reference_over_wall(self):
        eps = [episode(ref_s=1.0, wall_s=2.0), episode(ref_s=3.0, wall_s=4.0),
               episode(traced=True, ref_s=1.0, wall_s=4.0)]
        m = aggregate.per_layer(report(eps))
        self.assertAlmostEqual(m["clock.ref_per_wall"], 0.5)


if __name__ == "__main__":
    unittest.main()
