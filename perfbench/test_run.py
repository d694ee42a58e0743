#!/usr/bin/env python3
"""Tests of run.py's trace-file checks and metric selection.

Run: python3 perfbench/test_run.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def span(sid, parent, name, layer, ts, dur, tid=0):
    return {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
            "ts": ts, "dur": dur, "args": {"id": sid, "parent": parent, "req": -1}}


def good_events():
    # root 0..100 us; a: 10..60 (self 30); b inside a: 20..40; c: 70..90
    return [span(1, 0, "bench.root", "bench", 0.0, 100.0),
            span(2, 1, "a", "service", 10.0, 50.0),
            span(3, 2, "b", "sim", 20.0, 20.0),
            span(4, 1, "c", "sim", 70.0, 20.0)]


class TraceChecks(unittest.TestCase):
    def write(self, events):
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as f:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
        self.addCleanup(os.remove, path)
        return path

    def test_self_times(self):
        layers, wall, remainder, worst = run.self_times(good_events())
        self.assertAlmostEqual(layers["service"], 30.0)
        self.assertAlmostEqual(layers["sim"], 40.0)
        self.assertAlmostEqual(remainder, 30.0)
        self.assertAlmostEqual(wall, 100.0)
        self.assertAlmostEqual(sum(layers.values()), wall)
        self.assertGreaterEqual(worst, 0.0)

    def test_sound_trace_passes(self):
        path = self.write(good_events())
        reported = {"self_ms.sim": 0.040, "self_ms.service": 0.030,
                    "self_ms.jit": 0.0, "trace.remainder_ms": 0.030,
                    "trace.wall_ms": 0.100, "engine.jit.cycle_us": 3.0}
        self.assertEqual(run.check_trace(path, reported), [])

    def test_child_longer_than_parent_is_negative_self_time(self):
        events = good_events()
        events[2]["dur"] = 80.0  # b outlasts a
        problems = run.check_trace(self.write(events), {"trace.wall_ms": 0.100})
        self.assertTrue(any("negative" in p for p in problems), problems)

    def test_missing_parent_is_refused(self):
        events = good_events()[1:]
        problems = run.check_trace(self.write(events), {})
        self.assertTrue(problems and "unusable" in problems[0], problems)

    def test_roots_must_cover_the_measured_wall(self):
        # The spans are sound among themselves, but the thread root covers
        # only 100 us of a traced interval the driver measured at 5 ms.
        path = self.write(good_events())
        problems = run.check_trace(path, {"trace.wall_ms": 5.0})
        self.assertTrue(any("measured traced wall" in p for p in problems), problems)

    def test_a_second_root_inflates_the_sum(self):
        # A span that lost its parent link counts as a root, so the roots
        # cover more than the measured wall.
        events = good_events()
        for e in events:  # in ms rather than us, beyond the fixed slack
            e["ts"] *= 1000.0
            e["dur"] *= 1000.0
        events[3]["args"]["parent"] = 0
        problems = run.check_trace(self.write(events), {"trace.wall_ms": 100.0})
        self.assertTrue(any("measured traced wall" in p for p in problems), problems)

    def test_unparsable_file_is_refused(self):
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as f:
            f.write('{"traceEvents": [')
        self.addCleanup(os.remove, path)
        self.assertTrue(run.check_trace(path, {}))

    def test_disagreeing_driver_figures_are_reported(self):
        path = self.write(good_events())
        problems = run.check_trace(path, {"self_ms.sim": 0.5, "trace.wall_ms": 0.100})
        self.assertTrue(any("self_ms.sim" in p for p in problems), problems)


class MetricSelection(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "setup_s", "unit": "s"}],
            "per_layer": [{"name": "batch.cycle_us", "unit": "us"},
                          {"name": "service.run.p50_ms", "unit": "ms"}]}

    def test_per_layer_not_exercised_reads_zero(self):
        result = {"metrics": {"batch.cycle_us": {"value": 2.5, "unit": "us"}}}
        out = run.select_metrics(result, self.SPEC, trace=True)
        self.assertEqual(out["batch.cycle_us"]["value"], 2.5)
        self.assertEqual(out["service.run.p50_ms"], {"value": 0.0, "unit": "ms"})

    def test_end_to_end_must_be_reported(self):
        with self.assertRaises(ValueError):
            run.select_metrics({"metrics": {}}, self.SPEC, trace=False)

    def test_units_must_agree(self):
        result = {"metrics": {"setup_s": {"value": 1.0, "unit": "ms"}}}
        with self.assertRaises(ValueError):
            run.select_metrics(result, self.SPEC, trace=False)

    def test_final_line_is_parsed(self):
        obj, lines = run.parse_output('metric a 1 s\n{"correct": true}\n\n')
        self.assertEqual(obj, {"correct": True})
        self.assertEqual(lines, ["metric a 1 s"])


if __name__ == "__main__":
    unittest.main()
