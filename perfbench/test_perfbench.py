#!/usr/bin/env python3
"""Tests of the benchmark's own code: statistics, span self times, and
the metric names run.py prints against BENCHMARK.json.

    python3 perfbench/test_perfbench.py
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(list(stats.quartiles(values)),
                         statistics.quantiles(values, n=4))

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([3.5]), (3.5, 3.5, 3.5))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.quartiles([])


class Tail(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(stats.tail(list(range(10))))

    def test_high_tail_leaves_ten_samples_beyond(self):
        values = list(range(20, 0, -1))
        pct, value = stats.tail(values, "high")
        self.assertEqual(pct, 50.0)
        self.assertEqual(value, 10)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_low_tail_for_rates(self):
        values = list(range(1, 41))
        pct, value = stats.tail(values, "low")
        self.assertEqual(pct, 25.0)
        self.assertEqual(value, 11)
        self.assertEqual(sum(v < value for v in values), 10)


class Summarize(unittest.TestCase):
    def test_fields(self):
        s = stats.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(s["n"], 5)
        self.assertEqual(s["median"], 3.0)
        self.assertAlmostEqual(s["spread"], (s["q3"] - s["q1"]) / 3.0)
        self.assertIsNone(s["tail"])
        self.assertIn("n=5", stats.describe(s))


def event(name, ident, parent, ts, dur):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1,
            "tid": 1, "args": {"id": ident, "parent": parent, "callId": 1}}


class SelfTimes(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent(self):
        events = [event("rep", 1, 0, 0, 100),
                  event("run.submit", 2, 1, 10, 20),
                  event("run.wait", 3, 1, 40, 50),
                  event("calibrate", 4, 3, 50, 5)]
        totals, counts = spans.self_times(events)
        self.assertEqual(counts["rep"], 1)
        self.assertEqual(totals["rep"], 30)
        self.assertEqual(totals["run.submit"], 20)
        self.assertEqual(totals["run.wait"], 45)
        self.assertEqual(totals["calibrate"], 5)

    def test_child_outside_its_parent_is_clipped(self):
        events = [event("rep", 1, 0, 0, 10), event("run.wait", 2, 1, 5, 20)]
        totals, _ = spans.self_times(events)
        self.assertEqual(totals["rep"], 5)
        self.assertEqual(totals["run.wait"], 20)

    def test_reads_the_chrome_trace_format(self):
        doc = {"displayTimeUnit": "ns", "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "perfbench"}},
            event("rep", 1, 0, 0, 10)]}
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump(doc, f)
            f.flush()
            self.assertEqual(len(spans.load(f.name)), 1)


def fake_raw(traced):
    """A driver output with every counter and microbenchmark present."""
    counts = {c: 3 for _, c, _, _ in run.COUNTS}
    for isa in ("host", "nxp"):
        for k in ("hits", "fills", "fallbacks"):
            counts["isa.%s.decode_%s" % (isa, k)] = 2
        counts["vm.%s_tlb_hits" % isa] = 9
        counts["vm.%s_tlb_misses" % isa] = 1
    for _, _, counter, _, _ in run.LAYERS:
        counts.setdefault(counter, 5)
    counts.update({"isa.host.instructions": 10, "isa.nxp.instructions": 20,
                   "sim.ticks": 10 ** 12, "flick.doorbells": 4,
                   "flick.batch_coalesced": 4, "flick.qos.submitted": 10,
                   "flick.qos.shed": 4})
    reps = [{"setup_s": 0.1, "run_s": 1.0 + i / 10, "ref_s": 0.002,
             "traced": traced and i % 2 == 1, "paper_err_pct": []}
            for i in range(6)]
    return {"workload": "storm", "counts": counts, "reps": reps,
            "reference_nominal_s": 0.001, "ticks_per_second": 10 ** 12,
            "peak_rss_mb": 12.5,
            "layers": {name: [1.0, 2.0, 3.0] for name, *_ in run.LAYERS}}


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(HERE.parent / "BENCHMARK.json") as f:
            cls.bench = json.load(f)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def test_end_to_end_metrics_match_benchmark_json(self):
        metrics, _ = run.end_to_end(fake_raw(False))
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         self.declared("end_to_end"))
        # Scaled time: 1.0 s at 0.002 s kernel time is 0.5 s nominal.
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.05)

    def test_per_layer_metrics_match_benchmark_json(self):
        doc = {"traceEvents": [event("rep", 1, 0, 0, 100),
                               event("run.wait", 2, 1, 0, 60)]}
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump(doc, f)
            f.flush()
            metrics, lines = run.per_layer(fake_raw(True), f.name)
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         self.declared("per_layer"))
        self.assertAlmostEqual(metrics["span.run.wait"]["value"], 0.06)
        self.assertAlmostEqual(metrics["flick.qos.admit_ratio"]["value"],
                               0.6)
        self.assertAlmostEqual(
            metrics["flick.batch.descriptors_per_doorbell"]["value"], 2.0)
        self.assertTrue(any("est_share" in line for line in lines))
        self.assertEqual(set(metrics), set(run.MOVES))


if __name__ == "__main__":
    unittest.main()
