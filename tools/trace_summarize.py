#!/usr/bin/env python3
"""Summarize a Chrome trace_event JSON produced by obs::write_chrome_trace
(DESIGN.md section 12).

Reads the trace, validates its shape (complete "X" events with ts/dur and
the args the exporter attaches), and prints:
  * per-category totals: span count, measured wall ms, modeled ms, and the
    measured/modeled ratio (how far host execution sits from the device
    cost model, per category);
  * the top spans by SELF time (own duration minus direct children),
    aggregated by (name, category).

Used three ways: as the human profiling entry point (README "profiling a
run"), as the CI validity check on the bench_suite --trace artifact
(--require-categories), and from tools/test_trace_summarize.py via CTest.
Stdlib only, like check_bench.py.
"""

import argparse
import json
import sys
from collections import defaultdict

REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")


def validate(doc):
    """Checks the Chrome-trace shape; returns the event list.

    Raises ValueError on anything write_chrome_trace would never emit.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                   list):
        raise ValueError("not a Chrome trace: missing 'traceEvents' list")
    events = []
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            raise ValueError("event %d is not an object" % i)
        for key in REQUIRED_EVENT_KEYS:
            if key not in ev:
                raise ValueError("event %d missing %r" % (i, key))
        if ev["ph"] != "X":
            raise ValueError("event %d has phase %r, expected complete 'X'"
                             % (i, ev["ph"]))
        if not isinstance(ev["ts"], (int, float)) or \
           not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0:
            raise ValueError("event %d has malformed ts/dur" % i)
        if not isinstance(ev.get("args"), dict):
            raise ValueError("event %d missing args object" % i)
        events.append(ev)
    return events


def self_times_us(events):
    """Self time (dur minus direct children) per event, keyed by id(event).

    Events nest by containment within one (pid, tid) lane — the exporter
    guarantees a parent starts no later and ends no earlier than its
    children, so a sort by (ts, -end) makes a simple stack walk exact.
    """
    lanes = defaultdict(list)
    for ev in events:
        lanes[(ev["pid"], ev["tid"])].append(ev)
    self_us = {}
    for lane in lanes.values():
        lane.sort(key=lambda e: (e["ts"], -(e["ts"] + e["dur"])))
        stack = []  # (event id, end ts) of currently open ancestors
        for ev in lane:
            end = ev["ts"] + ev["dur"]
            while stack and ev["ts"] >= stack[-1][1] - 1e-9:
                stack.pop()
            self_us[id(ev)] = ev["dur"]
            if stack:
                self_us[stack[-1][0]] -= ev["dur"]
            stack.append((id(ev), end))
    return self_us


def summarize(doc, top=12):
    """Aggregates a validated trace document into a plain dict."""
    events = validate(doc)
    self_us = self_times_us(events)

    cats = {}
    spans = {}
    for ev in events:
        args = ev["args"]
        cat = cats.setdefault(ev["cat"], {
            "count": 0, "measured_ms": 0.0, "modeled_ms": 0.0,
            "modeled_spans": 0,
        })
        cat["count"] += 1
        cat["measured_ms"] += ev["dur"] / 1e3
        if "modeled_ms" in args:
            cat["modeled_ms"] += args["modeled_ms"]
            cat["modeled_spans"] += 1

        span = spans.setdefault((ev["name"], ev["cat"]), {
            "name": ev["name"], "cat": ev["cat"], "count": 0,
            "self_ms": 0.0, "measured_ms": 0.0, "modeled_ms": 0.0,
        })
        span["count"] += 1
        span["self_ms"] += self_us[id(ev)] / 1e3
        span["measured_ms"] += ev["dur"] / 1e3
        if "modeled_ms" in args:
            span["modeled_ms"] += args["modeled_ms"]

    for cat in cats.values():
        cat["ratio"] = (cat["measured_ms"] / cat["modeled_ms"]
                        if cat["modeled_ms"] > 0 else None)

    top_self = sorted(spans.values(), key=lambda s: -s["self_ms"])[:top]
    dropped = 0
    other = doc.get("otherData")
    if isinstance(other, dict):
        dropped = other.get("dropped_spans", 0)
    return {"categories": cats, "top_self": top_self, "dropped": dropped,
            "events": len(events)}


def print_summary(summary, out=sys.stdout):
    print("%d spans, %d dropped" % (summary["events"], summary["dropped"]),
          file=out)
    print("\nper category (modeled ms from the device cost model):",
          file=out)
    print("  %-10s %8s %14s %14s %10s" %
          ("category", "spans", "measured ms", "modeled ms", "ratio"),
          file=out)
    for name in sorted(summary["categories"]):
        cat = summary["categories"][name]
        ratio = "%.2fx" % cat["ratio"] if cat["ratio"] is not None else "-"
        modeled = ("%.3f" % cat["modeled_ms"]
                   if cat["modeled_spans"] else "-")
        print("  %-10s %8d %14.3f %14s %10s" %
              (name, cat["count"], cat["measured_ms"], modeled, ratio),
              file=out)
    print("\ntop spans by self time:", file=out)
    print("  %-24s %-10s %8s %12s %12s" %
          ("span", "category", "count", "self ms", "modeled ms"), file=out)
    for span in summary["top_self"]:
        print("  %-24s %-10s %8d %12.3f %12.3f" %
              (span["name"][:24], span["cat"], span["count"],
               span["self_ms"], span["modeled_ms"]), file=out)


def main():
    parser = argparse.ArgumentParser(
        description="Summarize an mdlsq Chrome trace (obs/export.hpp).")
    parser.add_argument("trace", help="trace JSON path")
    parser.add_argument("--top", type=int, default=12,
                        help="spans to list by self time")
    parser.add_argument("--require-categories", default="",
                        metavar="A,B,...",
                        help="fail unless every named category appears "
                             "(the CI artifact validity check)")
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print("trace_summarize: cannot read %s: %s" % (args.trace, err),
              file=sys.stderr)
        sys.exit(2)

    try:
        summary = summarize(doc, top=args.top)
    except ValueError as err:
        print("trace_summarize: malformed trace: %s" % err, file=sys.stderr)
        sys.exit(2)

    print_summary(summary)

    required = [c for c in args.require_categories.split(",") if c]
    missing = [c for c in required if c not in summary["categories"]]
    if missing:
        print("\ntrace_summarize: FAIL: missing required categories: %s"
              % ", ".join(missing), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
