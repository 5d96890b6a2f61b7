#!/usr/bin/env python3
"""Unit tests for tools/trace_summarize.py, run from CTest as
`trace_summarize_unit`.  Stdlib only."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trace_summarize  # noqa: E402


def event(name, cat, ts, dur, tid=1, modeled=None, **extra_args):
    args = {"limbs": 2, "measured_ms": dur / 1e3, "bytes": 0, "depth": 0}
    if modeled is not None:
        args["modeled_ms"] = modeled
    args.update(extra_args)
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "pid": 1, "tid": tid, "args": args}


def doc(events, dropped=0):
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": dropped}}


class ValidateTest(unittest.TestCase):
    def test_accepts_exporter_shape(self):
        events = trace_summarize.validate(doc([event("k", "kernel", 0, 10)]))
        self.assertEqual(len(events), 1)

    def test_rejects_missing_trace_events(self):
        with self.assertRaises(ValueError):
            trace_summarize.validate({"foo": []})

    def test_rejects_non_complete_phase(self):
        bad = event("k", "kernel", 0, 10)
        bad["ph"] = "B"
        with self.assertRaises(ValueError):
            trace_summarize.validate(doc([bad]))

    def test_rejects_missing_keys_and_args(self):
        bad = event("k", "kernel", 0, 10)
        del bad["dur"]
        with self.assertRaises(ValueError):
            trace_summarize.validate(doc([bad]))
        bad = event("k", "kernel", 0, 10)
        del bad["args"]
        with self.assertRaises(ValueError):
            trace_summarize.validate(doc([bad]))

    def test_rejects_negative_duration(self):
        with self.assertRaises(ValueError):
            trace_summarize.validate(doc([event("k", "kernel", 0, -1)]))


class SelfTimeTest(unittest.TestCase):
    def test_parent_self_excludes_direct_children(self):
        # parent [0, 100] with children [10, 30] and [40, 80]: self = 40.
        events = [event("parent", "ladder", 0, 100),
                  event("child", "kernel", 10, 20),
                  event("child", "kernel", 40, 40)]
        summary = trace_summarize.summarize(doc(events))
        by_name = {s["name"]: s for s in summary["top_self"]}
        self.assertAlmostEqual(by_name["parent"]["self_ms"], 0.040)
        self.assertAlmostEqual(by_name["child"]["self_ms"], 0.060)

    def test_grandchildren_subtract_from_their_parent_only(self):
        # a [0,100] > b [10,90] > c [20,40]: a.self = 20, b.self = 60.
        events = [event("a", "ladder", 0, 100),
                  event("b", "panel", 10, 80),
                  event("c", "kernel", 20, 20)]
        summary = trace_summarize.summarize(doc(events))
        by_name = {s["name"]: s for s in summary["top_self"]}
        self.assertAlmostEqual(by_name["a"]["self_ms"], 0.020)
        self.assertAlmostEqual(by_name["b"]["self_ms"], 0.060)
        self.assertAlmostEqual(by_name["c"]["self_ms"], 0.020)

    def test_threads_nest_independently(self):
        # Identical timestamps on two tids must not nest across threads.
        events = [event("a", "kernel", 0, 100, tid=1),
                  event("b", "kernel", 0, 100, tid=2)]
        summary = trace_summarize.summarize(doc(events))
        by_name = {s["name"]: s for s in summary["top_self"]}
        self.assertAlmostEqual(by_name["a"]["self_ms"], 0.100)
        self.assertAlmostEqual(by_name["b"]["self_ms"], 0.100)


class SummaryTest(unittest.TestCase):
    def test_category_totals_and_ratio(self):
        events = [event("k", "kernel", 0, 2000, modeled=1.0),
                  event("k", "kernel", 3000, 2000, modeled=1.0)]
        summary = trace_summarize.summarize(doc(events))
        cat = summary["categories"]["kernel"]
        self.assertEqual(cat["count"], 2)
        self.assertAlmostEqual(cat["measured_ms"], 4.0)
        self.assertAlmostEqual(cat["modeled_ms"], 2.0)
        self.assertAlmostEqual(cat["ratio"], 2.0)

    def test_unmodeled_category_has_no_ratio(self):
        summary = trace_summarize.summarize(doc([event("s", "step", 0, 10)]))
        self.assertIsNone(summary["categories"]["step"]["ratio"])

    def test_dropped_counter_is_surfaced(self):
        summary = trace_summarize.summarize(
            doc([event("k", "kernel", 0, 10)], dropped=7))
        self.assertEqual(summary["dropped"], 7)

    def test_top_is_bounded_and_sorted(self):
        events = [event("s%d" % i, "kernel", i * 100, 10 + i)
                  for i in range(20)]
        summary = trace_summarize.summarize(doc(events), top=5)
        self.assertEqual(len(summary["top_self"]), 5)
        selfs = [s["self_ms"] for s in summary["top_self"]]
        self.assertEqual(selfs, sorted(selfs, reverse=True))


class MainTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, payload, raw=None):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if raw is not None:
                f.write(raw)
            else:
                json.dump(payload, f)
        return path

    def run_main(self, *argv):
        old = sys.argv
        sys.argv = ["trace_summarize.py", *argv]
        try:
            return trace_summarize.main()
        finally:
            sys.argv = old

    def test_valid_trace_passes(self):
        path = self.write("t.json", doc([event("k", "kernel", 0, 10)]))
        self.assertEqual(self.run_main(path), 0)

    def test_required_categories_gate(self):
        path = self.write("t.json", doc([
            event("k", "kernel", 0, 10),
            event("s", "transfer", 20, 10)]))
        self.assertEqual(
            self.run_main(path, "--require-categories", "kernel,transfer"),
            0)
        self.assertEqual(
            self.run_main(path, "--require-categories", "kernel,queue"), 1)

    def test_unreadable_json_exits_2(self):
        path = self.write("broken.json", None, raw="{not json")
        with self.assertRaises(SystemExit) as ctx:
            self.run_main(path)
        self.assertEqual(ctx.exception.code, 2)

    def test_malformed_trace_exits_2(self):
        path = self.write("bad.json", {"traceEvents": [{"name": "x"}]})
        with self.assertRaises(SystemExit) as ctx:
            self.run_main(path)
        self.assertEqual(ctx.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
