"""Tests of the benchmark's own aggregation.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import aggregate  # noqa: E402


def bucket_index(value):
    """telemetry::Histogram::bucket_index."""
    if value < aggregate.SUB_BUCKETS:
        return value
    exponent = value.bit_length() - 1
    shift = exponent - aggregate.SUB_BUCKET_BITS
    return (shift + 1) * aggregate.SUB_BUCKETS + ((value >> shift) - aggregate.SUB_BUCKETS)


def histogram(values):
    """What Histogram::to_json exports after recording `values`."""
    buckets = {}
    for v in values:
        buckets[bucket_index(v)] = buckets.get(bucket_index(v), 0) + 1
    return {"buckets": sorted([i, n] for i, n in buckets.items()), "count": len(values),
            "sum": sum(values), "min": min(values), "max": max(values)}


def span(name, span_id, parent, ts, dur, tid=0):
    return {"name": name, "ts": ts, "dur": dur, "tid": tid,
            "args": {"span": str(span_id), "parent": str(parent)}}


class HistogramTest(unittest.TestCase):
    def test_bucket_bounds_invert_bucket_index(self):
        for v in (0, 5, 15, 16, 17, 31, 32, 100, 1000, 123456):
            i = bucket_index(v)
            self.assertLessEqual(aggregate.bucket_lower(i), v)
            self.assertGreaterEqual(aggregate.bucket_upper(i), v)
        self.assertEqual((aggregate.bucket_lower(111), aggregate.bucket_upper(111)), (992, 1023))

    def test_integer_microseconds_stand_for_their_whole_microsecond(self):
        doc = histogram(list(range(10)))
        self.assertAlmostEqual(aggregate.quantile(doc, 0.5), 4.5)
        self.assertAlmostEqual(aggregate.quantile(doc, 0.0), 0.0)
        self.assertAlmostEqual(aggregate.quantile(doc, 1.0), 9.0)
        # Quantiles never leave [min, max + 1), the span the samples cover.
        self.assertLessEqual(aggregate.quantile(histogram([1000] * 4), 0.5), 1001.0)

    def test_quantile_interpolates_inside_a_wide_bucket(self):
        doc = histogram([1000] * 4)  # bucket [992, 1023], clamped to [1000, 1001]
        self.assertGreaterEqual(aggregate.quantile(doc, 0.5), 1000.0)
        self.assertLessEqual(aggregate.quantile(doc, 0.5), 1001.0)
        doc = histogram([992, 1023])  # rank 0.5 of 2 samples in a 32-wide bucket
        self.assertAlmostEqual(aggregate.quantile(doc, 0.5), 992 + 0.25 * 32)

    def test_merge_equals_recording_everything_in_one(self):
        a, b = [3, 40, 700, 700], [1, 5000, 41]
        merged = aggregate.merge_histograms([histogram(a), histogram(b), {"count": 0}])
        self.assertEqual(merged, histogram(a + b))
        for q in (0.5, 0.9, 0.99):
            self.assertEqual(aggregate.quantile(merged, q),
                             aggregate.quantile(histogram(a + b), q))

    def test_empty_histogram_reads_zero(self):
        self.assertEqual(aggregate.quantile(aggregate.merge_histograms([]), 0.99), 0.0)


class LedgerTest(unittest.TestCase):
    def test_self_time_subtracts_nested_children(self):
        events = [
            span("bench.run", 1, 0, 0, 100),
            span("orch.serve_epoch", 2, 1, 10, 30),
            span("orch.epoch.overbooking", 3, 2, 20, 10),
            span("bus.call", 4, 1, 50, 10),
        ]
        own = {e["name"]: t for e, t in aggregate.self_times(events)}
        self.assertEqual(own, {"bench.run": 60, "orch.serve_epoch": 20,
                               "orch.epoch.overbooking": 10, "bus.call": 10})

    def test_overlapping_children_are_counted_once(self):
        events = [span("bench.run", 1, 0, 0, 100), span("bus.call", 2, 1, 10, 40),
                  span("bus.call", 3, 1, 30, 30, tid=1)]
        own = dict((e["args"]["span"], t) for e, t in aggregate.self_times(events))
        self.assertEqual(own["1"], 50)

    def test_cross_lane_child_adopted_over_a_socket(self):
        # The edge's epoch runs on an HTTP server thread (tid 1) under the
        # context the broker's bus.call carried; the call only waits for it.
        events = [
            span("bench.run", 1, 0, 0, 1000),
            span("bus.call", 2, 1, 100, 800),
            span("orch.serve_epoch", (5 << 40) | 1, 2, 200, 500, tid=1),
            span("ran.serve_epoch", (5 << 40) | 2, (5 << 40) | 1, 300, 100, tid=1),
        ]
        book = aggregate.ledger(events)
        rows = book["rows"]
        self.assertAlmostEqual(rows["net.bus"]["ms"], 0.3)
        self.assertAlmostEqual(rows["core.epoch"]["ms"], 0.4)
        self.assertAlmostEqual(rows["ran.serve"]["ms"], 0.1)
        self.assertAlmostEqual(rows["unattributed"]["ms"], 0.2)
        self.assertAlmostEqual(book["wall_ms"], 1.0)
        self.assertAlmostEqual(book["gap_ms"], 0.0)
        self.assertEqual(rows["net.bus"]["calls"], 1)

    def test_every_layer_is_a_row_and_unknown_names_land_in_other(self):
        events = [span("bench.run", 1, 0, 0, 10), span("broker.place", 2, 1, 0, 4)]
        book = aggregate.ledger(events)
        self.assertEqual(book["rows"]["ran.wander"], {"ms": 0.0, "calls": 0})
        self.assertEqual(book["rows"]["store"], {"ms": 0.0, "calls": 0})
        self.assertAlmostEqual(book["rows"]["other"]["ms"], 0.004)
        self.assertEqual(book["rows"]["other"]["calls"], 1)

    def test_spans_outside_the_run_are_orphans(self):
        events = [span("bench.run", 1, 0, 0, 10), span("bus.call", 2, 0, 20, 5)]
        self.assertEqual(aggregate.ledger(events)["orphans"], 1)
        with self.assertRaises(ValueError):
            aggregate.ledger([span("bus.call", 2, 0, 20, 5)])

    def test_mean_ledger_keeps_the_sum(self):
        a = aggregate.ledger([span("bench.run", 1, 0, 0, 10), span("bus.call", 2, 1, 0, 4)])
        b = aggregate.ledger([span("bench.run", 1, 0, 0, 30), span("bus.call", 2, 1, 0, 6)])
        book = aggregate.mean_ledger([a, b])
        total = sum(r["ms"] for r in book["rows"].values())
        self.assertAlmostEqual(total, book["wall_ms"])
        self.assertAlmostEqual(book["rows"]["net.bus"]["ms"], 0.005)


class DigestTest(unittest.TestCase):
    def check(self, observed, recorded):
        first = {}
        return [aggregate.digest_failure(seed, d, recorded, first) for seed, d in observed]

    def test_repetitions_must_agree(self):
        a, b = "a" * 64, "b" * 64
        self.assertEqual(self.check([(7, a), (7, a), (8, b)], {}), [None, None, None])
        failures = self.check([(7, a), (7, b), (7, a)], {})
        self.assertIsNone(failures[0])
        self.assertIn("first repetition", failures[1])
        self.assertIsNone(failures[2])

    def test_recorded_digest_wins_over_agreement(self):
        a, c = "a" * 64, "c" * 64
        recorded = {"7": c}
        self.assertEqual(self.check([(7, c)], recorded), [None])
        failures = self.check([(7, a), (7, a)], recorded)
        self.assertTrue(all("recorded" in f for f in failures))
        self.assertEqual(self.check([(8, a)], recorded), [None])

    def test_digest_is_sha256_of_the_scorecard_text(self):
        self.assertEqual(aggregate.digest(""),
                         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


if __name__ == "__main__":
    unittest.main()
