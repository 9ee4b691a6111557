#!/usr/bin/env python3
"""Steadiness and A/B tool for the end-to-end service benchmark.

Steadiness: run one workload N times (seeds 1..N, or one fixed seed) and
print, per metric, the median, quartiles, min, max and the spread
(Q3 - Q1) / median beside the bound BENCHMARK.json gives it:

    python3 e2ebench/steadiness.py --workload query_mix --runs 10

A/B: alternate two checkouts pair by pair, switching which side runs
first, and print both sides' figures plus how many pairs B won:

    python3 e2ebench/steadiness.py --workload query_mix --runs 10 \\
        --ab /path/to/parent /path/to/change

Each run is `python3 e2ebench/run.py ...` from the checkout's root. The
host steal time each run reports is summed per side; wall-clock figures of
runs with heavy steal are the least trustworthy.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def run_once(root, workload, seed, seconds, trace):
    command = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed in {root} (seed {seed})")
    result = json.loads(lines[-1])
    steal = None
    match = re.search(r"host steal during the run: ([0-9.]+) s", proc.stdout)
    if match:
        steal = float(match.group(1))
    return result, steal


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / median if median else float("inf")}


def print_side(label, runs, steals, metrics, verbose=False):
    if verbose:
        names = list(runs[0]["metrics"])
        print("   run  steal_s " + " ".join(f"{n[:14]:>14}" for n in names))
        for i, (r, steal) in enumerate(zip(runs, steals)):
            values = " ".join(f"{r['metrics'][n]['value']:14.5g}" for n in names)
            print(f"   {i:3d} {steal if steal is not None else float('nan'):8.2f} {values}")
    print(f"== {label}: {len(runs)} runs, host steal "
          f"{sum(s for s in steals if s is not None):.1f} s in total "
          f"(max {max((s for s in steals if s is not None), default=0):.1f} s)")
    failed = {r["failed"] / r["attempted"] for r in runs}
    print(f"   correct: {all(r['correct'] for r in runs)}, "
          f"failed share: {sorted(failed)}")
    print(f"   {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
    summaries = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        s = summarize(values)
        summaries[name] = s
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
            flag = "  > bound/3"
        print(f"   {name:36} {s['median']:12.5g} {s['q1']:12.5g} "
              f"{s['q3']:12.5g} {s['min']:12.5g} {s['max']:12.5g} "
              f"{s['spread']:7.3f} {bound if bound is not None else '':>6}"
              f"{flag}")
    return summaries


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int,
                        help="one fixed seed for every run (default: seeds "
                             "1..N, one per run)")
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's figures")
    parser.add_argument("--ab", nargs=2, metavar=("A_ROOT", "B_ROOT"),
                        help="alternate two checkouts pair by pair")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec, metrics = load_spec(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    seeds = [args.seed or i + 1 for i in range(args.runs)]

    if not args.ab:
        runs, steals = [], []
        for seed in seeds:
            result, steal = run_once(ROOT, args.workload, seed, seconds,
                                     args.trace)
            runs.append(result)
            steals.append(steal)
        print_side(f"{args.workload} (seconds {seconds})", runs, steals,
                   metrics, args.verbose)
        return 0

    roots = [os.path.abspath(r) for r in args.ab]
    sides = {0: ([], []), 1: ([], [])}
    for i, seed in enumerate(seeds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            result, steal = run_once(roots[side], args.workload, seed,
                                     seconds, args.trace)
            sides[side][0].append(result)
            sides[side][1].append(steal)
    a = print_side(f"A {roots[0]}", *sides[0], metrics, args.verbose)
    b = print_side(f"B {roots[1]}", *sides[1], metrics, args.verbose)
    print(f"== B against A, pair by pair (same seed in each pair)")
    for name in a:
        better = metrics.get(name, {}).get("better", "lower")
        wins = 0
        for ra, rb in zip(sides[0][0], sides[1][0]):
            va = ra["metrics"][name]["value"]
            vb = rb["metrics"][name]["value"]
            if (vb < va) if better == "lower" else (vb > va):
                wins += 1
        change = (b[name]["median"] - a[name]["median"]) / a[name]["median"] \
            if a[name]["median"] else float("nan")
        print(f"   {name:36} B wins {wins:2d}/{len(seeds)}  "
              f"median change {100 * change:+7.2f}%  "
              f"(A spread {a[name]['spread']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
