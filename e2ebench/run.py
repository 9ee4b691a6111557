#!/usr/bin/env python3
"""Builds the end-to-end service benchmark from source and runs it.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload ingest_hub --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/e2ebench when that variable is set
(relative paths are taken from the checkout root), else to
.bench_build/e2ebench. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", out, "-j", jobs, "--target", target]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def run(command):
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run timed out", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the reference scorer's self-test")
    args = parser.parse_args()

    if args.selftest:
        binary = build("e2e_selftest")
        return 1 if binary is None else run([binary])
    if not args.workload:
        parser.error("--workload is required")
    binary = build("ksir_e2e")
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(os.path.dirname(build_dir()), "e2e_out")
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", out_dir])


if __name__ == "__main__":
    sys.exit(main())
