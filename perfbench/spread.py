#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each end-to-end metric's
median and spread (interquartile range over median), the figure
BENCHMARK.json's bounds are checked against.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload job-dp --seeds 1-10 [--seconds 10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", default=None, type=int)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed",
                                str(seed), "--seconds", str(seconds),
                                "--trace", args.trace],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, check=False)
        if out.returncode != 0:
            print(out.stderr, end="")
            print("seed %d: exit %d" % (seed, out.returncode))
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append("%s=%.4g" % (name, metric["value"]))
        print("seed %d: %s" % (seed, " ".join(line)), flush=True)

    print("%-28s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [0, 0, 0]
        spread = (q[2] - q[0]) / median if median else float("nan")
        bound = bounds.get(name)
        print("%-28s %12.4f %8.3f %8s" % (name, median, spread,
                                          "-" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
