#!/usr/bin/env python3
"""Self-tests of the wall-clock benchmark.

    python3 perfbench/selftest.py

Runs the harness's own C++ checks (`perfbench --selftest`: the p90 sample
rule, open-loop due-time accounting under a stall, seed determinism, an
injected wrong answer counted as failed), then every workload briefly in
both modes through run.py, which fails a run whose printed metric names
differ from BENCHMARK.json, and finally checks that an injected wrong answer
makes the command exit non-zero.  Takes a few minutes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["dense_lsq", "adaptive_batch", "track_batch", "serve_mix"]


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    return proc.returncode, proc.stdout


def main():
    failures = []
    code, out = run(["--selftest"])
    print(out, end="")
    if code != 0:
        failures.append("perfbench --selftest")

    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, _ = run(["--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", trace])
            label = f"{workload} --trace {trace}: metrics as in BENCHMARK.json"
            print(("ok   " if code == 0 else "FAIL ") + label)
            if code != 0:
                failures.append(label)

    code, out = run(["--workload", "dense_lsq", "--seed", "3", "--seconds",
                     "1", "--trace", "0", "--inject-wrong-op", "4"])
    result = json.loads(out.strip().splitlines()[-1])
    ok = code != 0 and result["failed"] == 1 and not result["correct"]
    label = "an injected wrong answer fails the run and counts in ok_frac"
    print(("ok   " if ok else "FAIL ") + label)
    if not ok:
        failures.append(label)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
