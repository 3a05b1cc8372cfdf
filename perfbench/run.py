#!/usr/bin/env python3
# Copyright (c) 2026 The tsq Authors.
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The tsq library and the benchmark are compiled with CMake into
.bench_build/perfbench at the root of the checkout (configured once, then
rebuilt incrementally). Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Exits non-zero
without a result when the build fails, for example when the library
sources are not beside this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    if argv[:1] == ["--self-test"]:
        program = [os.path.join(BUILD, "perfbench_test")] + argv[1:]
    else:
        program = [os.path.join(BUILD, "perfbench")] + argv
    sys.stdout.flush()
    return subprocess.run(program, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
