#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <tpch-fig6|job-dp|ecad-serve|all> \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (a CMake project that
compiles ../src) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only rebuild what changed. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. The exit code
is the benchmark's: nonzero on a build failure, a wrong result or a leak.
"all" runs every workload, each in its own process (so that peak_rss_mb
is that workload's alone), one after the other.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("tpch-fig6", "job-dp", "ecad-serve")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=False)
        if configure.returncode != 0:
            return False
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
        stdout=sys.stderr, check=False)
    return compiled.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    failed = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        if args.workload == "all":
            print("== %s" % workload, flush=True)
        command = [os.path.join(build_dir, "perfbench"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", args.trace]
        try:
            run = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S,
                                 check=False)
            failed = failed or run.returncode
        except subprocess.TimeoutExpired:
            # subprocess.run has killed and reaped the child.
            print("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S),
                  file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
