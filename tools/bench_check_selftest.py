#!/usr/bin/env python3
"""Self-test for the bench_check.py policy and enumerator gates.

Runs bench_check.py against each committed baseline twice over: once with
the baseline as its own candidate (a fresh passing run must exit 0), then
once per doctored candidate simulating a regression each gate exists to
catch (must exit 1). Registered as the bench_check_selftest ctest so a
refactor of the checker that silently stops failing bad input is itself a
test failure.

Usage: bench_check_selftest.py <bench_check.py> <BENCH_policy.json>
                               <BENCH_enum.json>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def run_check(check_py, baseline, candidate_obj):
    """Returns bench_check.py's exit status for the given candidate dict."""
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".json", delete=False
    ) as f:
        json.dump(candidate_obj, f)
        path = f.name
    try:
        proc = subprocess.run(
            [
                sys.executable,
                check_py,
                "--baseline",
                baseline,
                "--candidate",
                path,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        return proc.returncode, proc.stdout
    finally:
        os.unlink(path)


def load(path, bench):
    with open(path) as f:
        fresh = json.load(f)
    if fresh.get("bench") != bench:
        print(f"selftest: {path} is not a {bench} JSON", file=sys.stderr)
        return None
    return fresh


def policy_cases(fresh, expect):
    expect("fresh run passes", fresh, 0)

    # Each doctored candidate flips exactly one contract the gate guards.
    d = copy.deepcopy(fresh)
    d["contract_pass"] = False
    expect("contract_pass=false fails", d, 1)

    d = copy.deepcopy(fresh)
    d["rows"][0]["sizes_only_degraded"] = 1
    expect("degraded sizes-only fails", d, 1)

    d = copy.deepcopy(fresh)
    small = next(r for r in d["rows"] if r["rels"] <= 10)
    small["dp_degraded"] = small["queries"]
    expect("dp tripping at <=10 rels fails", d, 1)

    d = copy.deepcopy(fresh)
    star = next(r for r in d["rows"] if r["topology"] == "star" and r["rels"] >= 12)
    star["dp_degraded"] = 0
    expect("dp completing every 12+-rel star fails", d, 1)

    d = copy.deepcopy(fresh)
    chain = next(r for r in d["rows"] if r["topology"] == "chain")
    chain["semijoin_applied"] = 0
    expect("semijoin skipping an acyclic workload fails", d, 1)

    d = copy.deepcopy(fresh)
    cyc = next(r for r in d["rows"] if r["topology"] == "clique")
    cyc["semijoin_applied"] = cyc["queries"]
    expect("semijoin firing on a cyclic workload fails", d, 1)

    d = copy.deepcopy(fresh)
    for r in d["rows"]:
        # A sizes-only that silently fell through to DP enumeration costs
        # DP time; the within-run ratio gate must catch it.
        r["sizes_only_ms"] = r["dp_ms"]
    expect("sizes-only costing dp time fails", d, 1)

    d = copy.deepcopy(fresh)
    d["rows"] = d["rows"][1:]
    expect("missing baseline row fails", d, 1)


def enum_cases(fresh, expect):
    expect("fresh run passes", fresh, 0)

    d = copy.deepcopy(fresh)
    for r in d["rows"]:
        # An enumerator 30% slower than the in-binary reference at every
        # size: the within-run fast/ref gate must catch it.
        if r.get("ref_ms"):
            r["fast_ms_t1"] = 1.3 * r["ref_ms"]
    expect("fast_ms_t1 = 1.3 x ref_ms fails", d, 1)

    d = copy.deepcopy(fresh)
    d["identity_pass"] = False
    expect("identity_pass=false fails", d, 1)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    check_py, policy_json, enum_json = argv
    suites = [
        (policy_json, "bench_policy", policy_cases),
        (enum_json, "bench_enumerator_perf", enum_cases),
    ]
    failures = 0
    for baseline, bench, cases in suites:
        fresh = load(baseline, bench)
        if fresh is None:
            return 2
        print(f"{bench}:")

        def expect(label, candidate, want_rc, baseline=baseline):
            nonlocal failures
            rc, out = run_check(check_py, baseline, candidate)
            ok = rc == want_rc
            if not ok:
                failures += 1
                print(out)
            print(f"  [{'ok' if ok else 'FAIL'}] {label}: exit {rc} (want {want_rc})")

        cases(fresh, expect)

    print(f"bench_check_selftest: {failures} failure(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
