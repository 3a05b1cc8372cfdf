#!/usr/bin/env python3
# Copyright (c) 2026 The tsq Authors.
"""Steadiness check: runs workloads repeatedly and summarizes the spread.

    python3 perfbench/steady.py --workload knn_join [--workload range_large ...]
        [--seeds 1,2,3,4,5,1] [--trace 0|1] [--seconds S]

Every seed in --seeds is run once per workload, in order; with more than
one workload the order alternates from one seed to the next. A seed listed
twice is run twice, and the per-query work counts of its runs must match
exactly. For each metric the median, quartiles and spread (interquartile
range over median, as statistics.quantiles(n=4) gives them) are printed
beside the bound in BENCHMARK.json; a spread above a third of its bound is
flagged. Exits 1 if a run fails, answers wrongly, or repeats a seed with
different work counts or a different failed share.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr[-2000:])
        raise RuntimeError("%s seed %s exited %d" % (workload, seed,
                                                     done.returncode))
    work = json.loads(lines[-2][len("work "):])
    return json.loads(lines[-1]), work, done.stderr, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,1")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]

    ok = True
    values = {w: {} for w in args.workload}
    work_by_seed = {w: {} for w in args.workload}
    shares = {w: set() for w in args.workload}
    for i, seed in enumerate(seeds):
        order = args.workload if i % 2 == 0 else args.workload[::-1]
        for workload in order:
            result, work, stderr, wall = run_once(workload, seed, seconds,
                                                  args.trace)
            print("%-14s seed %-4d wall=%.0fs correct=%s attempted=%d "
                  "failed=%d  %s" %
                  (workload, seed, wall, result["correct"],
                   result["attempted"], result["failed"],
                   " ".join("%s=%.4g" % (k, m["value"])
                            for k, m in result["metrics"].items()
                            if k in bounds)), flush=True)
            if not result["correct"]:
                ok = False
                sys.stderr.write(stderr[-2000:])
            shares[workload].add(result["failed"] / result["attempted"])
            seen = work_by_seed[workload].setdefault(seed, work)
            if seen != work:
                ok = False
                print("  WORK COUNTS DIFFER from the earlier run of seed %d"
                      % seed)
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])

    for workload in args.workload:
        if len(shares[workload]) > 1:
            ok = False
            print("%s: failed share differs between runs: %s" %
                  (workload, sorted(shares[workload])))
        print("\n%s (%d runs)" % (workload, len(seeds)))
        print("  %-36s %12s %12s %12s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, vals in values[workload].items():
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  WIDE"
            print("  %-36s %12.5g %12.5g %12.5g %8.4f %6s%s" %
                  (name, q1, med, q3, spread,
                   "" if bound is None else "%.2f" % bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
