#!/usr/bin/env python3
"""CI perf-trajectory gate: compare a fresh BENCH_suite.json against the
committed bench/baseline.json and fail on regression.

Usage:
    tools/check_bench.py NEW_JSON BASELINE_JSON [--tolerance 0.25]
                         [--min-wall-ms 100] [--extra MORE_JSON ...]
                         [--min-staged-speedup 1.0] [--min-simd-speedup 0]

What is gated, and why (DESIGN.md §6):

* modeled_kernel_ms — the device model's price of the launch schedule.
  Deterministic and machine-independent, so any increase beyond the
  tolerance against the baseline is a real schedule/cost regression and
  fails the job.
* speedup (seq wall / threaded wall) — host wall-clock enters the gate
  only through this machine-relative ratio, which survives the move
  between the baseline host and CI runners.  A drop beyond the tolerance
  fails the job, but only for cases whose sequential wall time clears
  --min-wall-ms on BOTH sides; faster cases are timing noise.
* --min-speedup N (off by default) — an ABSOLUTE floor on the threading
  speedup of cases whose new sequential wall clears --min-wall-ms and
  that match --min-speedup-kinds (entries are "kind" or
  "kind/precision", default "qr/8d": the compute-dominated acceptance
  case with the most per-task work; back substitution spends a large
  fraction of its wall in sequential staging, so a flat floor there
  would be noise-gated).  The floor is skipped entirely when the new
  run's hardware_concurrency is below 2 — a single-core host cannot pay
  for threading, and failing it there would gate physics, not code.
  This floor is the guard the relative check cannot provide when the
  committed baseline was recorded on a host with fewer cores than CI
  (its ratios are ~1.0 there): a change that silently disables the
  threaded path keeps the ratio at 1.0 and passes the relative gate,
  but not the floor.
* staged_speedup (interleaved wall / staged-resident wall, the layout
  cases of bench_suite) — gated like the threading speedup: a relative
  drop beyond the tolerance against the baseline fails (when the
  interleaved wall clears --min-wall-ms on both sides), and
  --min-staged-speedup (default 1.0) is an ABSOLUTE floor: staged
  residency must never be slower than per-launch interleaved
  round-tripping.  Unlike the threading floor it applies on any host —
  residency saves work even on one core — so it is not
  hardware_concurrency-gated.
* simd_speedup (forced-scalar wall / forced-ISA wall, the simd cases of
  bench_suite; the "isa" field joins the case key) — gated relatively
  against the baseline like the other wall ratios, and
  --min-simd-speedup (off by default) is an ABSOLUTE floor over every
  new case carrying the field whose sequential (forced-scalar) wall
  clears --min-wall-ms.  Per-ISA cases only exist on hosts that can run
  the ISA, so coverage of, say, an avx512 case is only enforced once it
  is committed to the baseline — keep the baseline to cases the CI
  runner fleet supports.
* cache_hit_speedup (cold-pipeline wall / warm-cache wall, the servehit
  cases of bench_serve) — gated relatively against the baseline like the
  other wall ratios (the field doubles as the case's "speedup"), and
  --min-cache-hit-speedup (off by default) is an ABSOLUTE floor over
  every new case carrying the field whose cold wall clears --min-wall-ms:
  a factor-cache hit replays strictly fewer launches than the cold
  pipeline, so serving warm must beat cold outright on any host —
  a cache that stops paying for itself is a regression even where the
  baseline ratios do not apply.
* bit_identical / tally_conserved — must be true in the new run
  (the bench binary also enforces this; the gate double-checks the
  artifact CI archives).
* coverage — every baseline case must still exist in the new run, so a
  regression can't hide by deleting its case.  New cases are reported
  and pass; commit a refreshed baseline to start gating them.
* host probe — bench_suite records the host's effective parallelism
  (summed thread CPU time over wall time while hardware_concurrency
  threads spin for about 200 ms) before its first case and after its
  last, as "probe_before" and "probe_after".  Every failing wall ratio is
  printed next to both readings, so a ratio that failed on a contended
  host can be told from a regression.  Artifacts without the fields
  still parse; their failures print without it.
* --extra PATH (repeatable) — merge the cases of further bench
  artifacts (e.g. BENCH_path.json from bench_path_tracking) into the
  new run before gating, so one baseline file covers every suite.
  Duplicate case keys across artifacts are an error: a case silently
  shadowing another would soften the gate.  hardware_concurrency is
  taken from the primary NEW_JSON (the absolute speedup floor applies
  to its cases).

Stdlib only; exit code 0 = pass, 1 = regression, 2 = usage/parse error.
"""

import argparse
import json
import sys


def case_key(case):
    # "isa" distinguishes the per-ISA simd ablation cases; absent (and
    # empty) everywhere else, so pre-simd baselines keep their keys.
    return (case["kind"], case["precision"], case["rows"], case["cols"],
            case["tile"], case.get("isa", ""))


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not doc.get("cases"):
        print(f"check_bench: {path} has no cases", file=sys.stderr)
        sys.exit(2)
    return doc


def load_cases(path):
    return {case_key(c): c for c in load_doc(path)["cases"]}


def probe_note(doc):
    """The host probe readings of a bench artifact, for a failing wall
    ratio's message; empty when the artifact does not carry them."""
    before, after = doc.get("probe_before"), doc.get("probe_after")
    if before is None and after is None:
        return ""
    fmt = lambda v: "n/a" if v is None else f"{v:.2f}"
    return (f" [host effective parallelism {fmt(before)} before, "
            f"{fmt(after)} after]")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("new_json")
    ap.add_argument("baseline_json")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative regression (default 0.25)")
    ap.add_argument("--min-wall-ms", type=float, default=100.0,
                    help="gate the speedup ratio only when the sequential "
                         "wall time clears this floor on both sides")
    ap.add_argument("--min-speedup", type=float, default=0.0,
                    help="absolute threading-speedup floor for cases whose "
                         "new sequential wall clears --min-wall-ms "
                         "(0 = disabled)")
    ap.add_argument("--min-speedup-kinds", default="qr/8d",
                    help="comma-separated 'kind' or 'kind/precision' "
                         "entries the absolute floor applies to "
                         "(default: qr/8d)")
    ap.add_argument("--min-simd-speedup", type=float, default=0.0,
                    help="absolute floor on the forced-ISA vs forced-scalar "
                         "ratio of simd cases whose scalar wall clears "
                         "--min-wall-ms (0 = disabled)")
    ap.add_argument("--min-cache-hit-speedup", type=float, default=0.0,
                    help="absolute floor on the cold vs warm-cache ratio of "
                         "servehit cases whose cold wall clears "
                         "--min-wall-ms (0 = disabled)")
    ap.add_argument("--min-staged-speedup", type=float, default=1.0,
                    help="absolute floor on the staged-resident vs "
                         "interleaved ratio of layout cases whose "
                         "interleaved wall clears --min-wall-ms "
                         "(0 = disabled)")
    ap.add_argument("--extra", action="append", default=[],
                    help="additional bench JSON whose cases join the new "
                         "run before gating (repeatable)")
    args = ap.parse_args()

    new_doc = load_doc(args.new_json)
    new = {case_key(c): c for c in new_doc["cases"]}
    for path in args.extra:
        for case in load_doc(path)["cases"]:
            key = case_key(case)
            if key in new:
                print(f"check_bench: duplicate case "
                      f"{'/'.join(str(k) for k in key)} in {path}",
                      file=sys.stderr)
                sys.exit(2)
            new[key] = case
    base = load_cases(args.baseline_json)
    tol = args.tolerance
    floor_kinds = args.min_speedup_kinds.split(",")
    # A host that has no second core cannot pay for threading; apply the
    # absolute floor only where the hardware could.
    floor_active = (args.min_speedup > 0.0
                    and new_doc.get("hardware_concurrency", 0) >= 2)
    if args.min_speedup > 0.0 and not floor_active:
        print("note: absolute speedup floor skipped "
              f"(hardware_concurrency "
              f"{new_doc.get('hardware_concurrency', 0)} < 2)")
    failures, notes = [], []
    probe = probe_note(new_doc)

    for key in sorted(base):
        name = "/".join(str(k) for k in key)
        if key not in new:
            failures.append(f"{name}: case missing from the new run")
            continue
        b, n = base[key], new[key]

        if not n.get("bit_identical", False):
            failures.append(f"{name}: threaded run not bit-identical")
        if not n.get("tally_conserved", False):
            failures.append(f"{name}: tally not conserved")

        bm, nm = b["modeled_kernel_ms"], n["modeled_kernel_ms"]
        if bm <= 0.0:
            # A zero/negative baseline admits no relative comparison (and
            # nm/bm below would divide by zero); surface it rather than
            # silently passing or crashing the gate.
            notes.append(
                f"{name}: baseline modeled kernel is {bm:.3f} ms — relative "
                f"gate skipped; re-record the baseline")
        elif nm > bm * (1.0 + tol):
            failures.append(
                f"{name}: modeled kernel {nm:.3f} ms vs baseline {bm:.3f} ms "
                f"(+{100.0 * (nm / bm - 1.0):.1f}% > {100.0 * tol:.0f}%)")
        elif nm < bm * (1.0 - tol):
            notes.append(
                f"{name}: modeled kernel improved to {nm:.3f} ms "
                f"({100.0 * (1.0 - nm / bm):.1f}% faster) — consider "
                f"refreshing the baseline")

        walls_clear = (b.get("seq_wall_ms", 0.0) >= args.min_wall_ms
                       and n.get("seq_wall_ms", 0.0) >= args.min_wall_ms)
        if walls_clear:
            # One relative wall-ratio gate per case: staged_speedup
            # (interleaved/staged, the layout cases) where present,
            # otherwise the threading speedup.  Layout cases carry the
            # same value in both fields today, so gating one of them
            # keeps the signal without a duplicate check.
            ratio_key, label = (("staged_speedup", "staged")
                                if "staged_speedup" in b
                                else ("speedup", "threading"))
            bs, ns = b.get(ratio_key, 0.0), n.get(ratio_key, 0.0)
            if bs > 0 and ns < bs * (1.0 - tol):
                failures.append(
                    f"{name}: {label} speedup {ns:.2f}x vs baseline "
                    f"{bs:.2f}x (-{100.0 * (1.0 - ns / bs):.1f}% > "
                    f"{100.0 * tol:.0f}%){probe}")
        if (floor_active
                and (key[0] in floor_kinds
                     or f"{key[0]}/{key[1]}" in floor_kinds)
                and n.get("seq_wall_ms", 0.0) >= args.min_wall_ms
                and n.get("speedup", 0.0) < args.min_speedup):
            failures.append(
                f"{name}: threading speedup {n.get('speedup', 0.0):.2f}x "
                f"below the absolute floor {args.min_speedup:.2f}x{probe}")

    # The absolute staged floor covers EVERY new layout case, baselined
    # or not — a fresh layout case must not ship slower than interleaved.
    if args.min_staged_speedup > 0.0:
        for key in sorted(new):
            n = new[key]
            if ("staged_speedup" in n
                    and n.get("seq_wall_ms", 0.0) >= args.min_wall_ms
                    and n["staged_speedup"] < args.min_staged_speedup):
                failures.append(
                    "/".join(str(k) for k in key) +
                    f": staged speedup {n['staged_speedup']:.2f}x below "
                    f"the absolute floor {args.min_staged_speedup:.2f}x"
                    f"{probe}")

    # Likewise the absolute simd floor: every new case carrying a
    # simd_speedup (the forced-scalar vs forced-ISA ablations) must clear
    # it, baselined or not — explicit vectorization that stops paying for
    # itself is a regression even on a runner the baseline never saw.
    if args.min_simd_speedup > 0.0:
        for key in sorted(new):
            n = new[key]
            if ("simd_speedup" in n
                    and n.get("seq_wall_ms", 0.0) >= args.min_wall_ms
                    and n["simd_speedup"] < args.min_simd_speedup):
                failures.append(
                    "/".join(str(k) for k in key) +
                    f": simd speedup {n['simd_speedup']:.2f}x below "
                    f"the absolute floor {args.min_simd_speedup:.2f}x"
                    f"{probe}")

    # And the absolute cache floor: every new case carrying a
    # cache_hit_speedup (the warm-vs-cold factor-cache replays of
    # bench_serve) must clear it, baselined or not — a warm solve replays
    # a strict subset of the cold launches, so losing to cold is a
    # regression on any host.
    if args.min_cache_hit_speedup > 0.0:
        for key in sorted(new):
            n = new[key]
            if ("cache_hit_speedup" in n
                    and n.get("seq_wall_ms", 0.0) >= args.min_wall_ms
                    and n["cache_hit_speedup"] < args.min_cache_hit_speedup):
                failures.append(
                    "/".join(str(k) for k in key) +
                    f": cache-hit speedup {n['cache_hit_speedup']:.2f}x "
                    f"below the absolute floor "
                    f"{args.min_cache_hit_speedup:.2f}x{probe}")

    for key in sorted(set(new) - set(base)):
        notes.append("/".join(str(k) for k in key) +
                     ": new case, not yet in the baseline")

    for msg in notes:
        print(f"note: {msg}")
    if failures:
        print(f"\ncheck_bench: {len(failures)} regression(s) against "
              f"{args.baseline_json}:", file=sys.stderr)
        for msg in failures:
            print(f"  FAIL {msg}", file=sys.stderr)
        return 1
    print(f"check_bench: {len(base)} case(s) within {100.0 * tol:.0f}% of "
          f"{args.baseline_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
