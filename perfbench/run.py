#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check    # catalogue matches BENCHMARK.json
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only rebuild what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero, printing no result, when the sources are
missing or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("replay_long", "replay_burst", "runtime_submit")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "serving", "system.h")):
        fail("no serving sources under %s/src; run from a full checkout" % root)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--parallel",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def check_catalogue(root, binary):
    """The binary's metric catalogue must match BENCHMARK.json."""
    listed = json.loads(subprocess.run(
        [binary, "--list-metrics"], check=True, capture_output=True,
        text=True).stdout)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[key]]
        have = [(m["name"], m["unit"]) for m in listed[key]]
        if want != have:
            ok = False
            print("%s differs: only in BENCHMARK.json %s, only in binary %s"
                  % (key, sorted(set(want) - set(have)),
                     sorted(set(have) - set(want))), file=sys.stderr)
    names = [w["name"] for w in spec["workloads"]]
    if tuple(names) != WORKLOADS:
        ok = False
        print("workloads differ: %s" % names, file=sys.stderr)
    print("catalogue matches BENCHMARK.json" if ok else "catalogue mismatch")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="compare the metric catalogue to BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true",
                        help="run the probe self-test")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if args.check:
        return check_catalogue(root, binary)
    if args.self_test:
        return subprocess.run([binary + "_selftest"]).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    sys.stdout.flush()
    completed = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)])
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
