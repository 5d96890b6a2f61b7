#!/usr/bin/env python3
"""Build and run the wall-clock benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
`perfbench` binary (Release) under $CARGO_TARGET_DIR, or `.bench_build` when
that is unset; later runs only re-check the build.  The binary's output is
passed through; its last line is the result JSON.  The metric names it
prints are checked against BENCHMARK.json (end_to_end for --trace 0,
per_layer for --trace 1): a missing or unknown name fails the run.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mdlsq.hpp")):
        sys.exit("perfbench: the mdlsq sources (src/) are not here; "
                 "run from the root of a repository checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    try:
        proc = subprocess.run([binary, *argv], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if "--selftest" in argv:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the last output line is not a JSON result",
              file=sys.stderr)
        return proc.returncode or 1
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    printed, expected = set(result["metrics"]), expected_metrics(trace)
    if printed != expected:
        print(f"perfbench: metrics not as in BENCHMARK.json: missing "
              f"{sorted(expected - printed)}, unknown "
              f"{sorted(printed - expected)}", file=sys.stderr)
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
