#!/usr/bin/env python3
"""Compare a fresh bench JSON against its committed baseline.

Used by the CI bench-regression job (docs/observability.md):

    bench_check.py --baseline BENCH_enum.json --candidate build/enum.json

The bench type is autodetected from the "bench" field; the four
recognized producers are bench_enumerator_perf, bench_parallel_exec
("parallel_exec"), bench_spill and bench_policy.

Two classes of checks:

  * identity metrics (identity_pass, per-row "identical", row counts)
    must hold EXACTLY -- a reordered or spilled plan that stops producing
    the direct plan's multiset is a correctness bug, not a regression;
  * bench_enumerator_perf's fast_ms_t1 / ref_ms geomean at 6-8 rels must
    stay <= 0.90: a within-run ratio against the in-binary reference
    enumerator, so it cancels machine speed;
  * work-reduction metrics (bench_enumerator_perf's work_reduction /
    work_reduction_enhanced) and parallel_exec's per-thread-count speedup
    geomean (across workloads) may not drop by more than --max-regress
    (default 0.25) relative to the baseline. Speedups are t(1)/t(N)
    ratios computed within one run, so they cancel machine speed: a
    reintroduced cross-thread barrier fails this gate even on a
    single-core runner. Averaging across workloads keeps the gate stable
    against per-workload scheduling noise on oversubscribed runners.

Raw wall-clock timings are INFORMATIONAL ONLY: CI runners are too noisy
to gate on, so timings are printed side by side but never fail the check.

Exit status: 0 when every gated check passes, 1 otherwise, 2 on usage or
malformed input.
"""

import argparse
import json
import sys

PASS = "ok"
FAIL = "FAIL"

# bench_enumerator_perf wall-clock gate: geometric mean of
# fast_ms_t1 / ref_ms over the candidate's rows with ENUM_RATIO_MIN_RELS
# <= rels <= ENUM_RATIO_MAX_RELS must stay at or below this. Both timings
# come from the same run on the same queries, so the ratio cancels machine
# speed: the production enumerator must beat the sequential reference it
# replaced (bench/enum_reference.cc) by at least 10%. Below 6 relations a
# query takes about a millisecond and the ratio is timer noise; above 8
# the reference does not run.
ENUM_FAST_REF_LIMIT = 0.90
ENUM_RATIO_MIN_RELS = 6
ENUM_RATIO_MAX_RELS = 8

# bench_policy planning-time gates: the cheap policies must stay under a
# fixed fraction of DP's planning time, summed over the rows where both
# sides do real work. Ratios are within-run (policy ms / dp ms on the same
# machine, same workloads), so machine speed cancels. The fraction is
# deliberately loose -- measured values sit near 0.001; a policy that
# silently falls through to DP enumeration lands near 1.0, which is what
# the gate exists to catch.
POLICY_RATIO_LIMIT = 0.2
# sizes-only plans every size; the gate starts where DP time is
# non-trivial. greedy defers to DP at <= max_join_size (10) relations by
# design, so its ratio is only meaningful from 12 relations up.
POLICY_SIZES_MIN_RELS = 10
POLICY_GREEDY_MIN_RELS = 12


class Checker:
    """Accumulates per-check results and renders a report."""

    def __init__(self):
        self.failures = 0
        self.lines = []

    def gate(self, label, ok, detail=""):
        status = PASS if ok else FAIL
        if not ok:
            self.failures += 1
        self.lines.append(f"  [{status}] {label}" + (f"  {detail}" if detail else ""))

    def info(self, label):
        self.lines.append(f"  [info] {label}")

    def report(self, title):
        print(title)
        for line in self.lines:
            print(line)
        print(f"  {self.failures} gated failure(s)")
        return self.failures == 0


def rel_drop(baseline, candidate):
    """Relative drop of candidate below baseline; <= 0 means no regression."""
    if baseline <= 0:
        return 0.0
    return (baseline - candidate) / baseline


def check_work_metric(c, label, base_val, cand_val, max_regress):
    drop = rel_drop(base_val, cand_val)
    ok = drop <= max_regress
    c.gate(
        f"{label}: {base_val:.2f} -> {cand_val:.2f}",
        ok,
        f"(drop {drop * 100:.1f}%, limit {max_regress * 100:.0f}%)",
    )


def check_enum(c, base, cand, max_regress):
    c.gate(
        f"identity_pass: {base['identity_pass']} -> {cand['identity_pass']}",
        cand["identity_pass"] is True,
    )
    base_rows = {r["rels"]: r for r in base["rows"]}
    for row in cand["rows"]:
        rels = row["rels"]
        b = base_rows.get(rels)
        if b is None:
            c.info(f"rels={rels}: no baseline row, skipping")
            continue
        for key in ("work_reduction", "work_reduction_enhanced"):
            # A row whose reference did not run carries null (or, in old
            # baselines, a fabricated 0.00) — not a measurement; skip it.
            if b.get(key) and row.get(key):
                check_work_metric(c, f"rels={rels} {key}", b[key], row[key], max_regress)
        if b.get("fast_ms_t1") and row.get("fast_ms_t1"):
            c.info(
                f"rels={rels} fast_ms_t1 {b['fast_ms_t1']:.2f} -> {row['fast_ms_t1']:.2f} ms"
            )
    missing = set(base_rows) - {r["rels"] for r in cand["rows"]}
    c.gate(f"all baseline rel counts present (missing: {sorted(missing)})", not missing)

    # Fast-vs-reference gate (candidate-only; see ENUM_FAST_REF_LIMIT above).
    span = f"{ENUM_RATIO_MIN_RELS}<=rels<={ENUM_RATIO_MAX_RELS}"
    ratios = [
        row["fast_ms_t1"] / row["ref_ms"]
        for row in cand["rows"]
        if ENUM_RATIO_MIN_RELS <= row["rels"] <= ENUM_RATIO_MAX_RELS
        and row.get("fast_ms_t1")
        and row.get("ref_ms")
    ]
    if ratios:
        g = geomean(ratios)
        c.gate(
            f"fast_ms_t1/ref_ms geomean over {len(ratios)} row(s) with "
            f"{span}: {g:.3f}",
            g <= ENUM_FAST_REF_LIMIT,
            f"(limit {ENUM_FAST_REF_LIMIT})",
        )
    else:
        c.info(f"no reference rows with {span}; fast/ref gate skipped")


def geomean(values):
    product = 1.0
    for v in values:
        product *= max(v, 1e-9)
    return product ** (1.0 / len(values)) if values else 0.0


def check_exec(c, base, cand, max_regress):
    # Scaling gate on speedup RATIOS, not raw wall clocks: speedup is
    # t(1 thread) / t(N threads) measured within one run, so it cancels
    # machine speed and stays comparable across runners. Per-workload
    # speedups on an oversubscribed single-core runner are too noisy to
    # gate individually (+-0.2 run to run), so the gate compares the
    # GEOMETRIC MEAN across workloads per thread count, which is stable;
    # per-workload ratios stay informational. A change that reintroduces
    # per-operator barriers drags every workload's multi-thread speedup
    # down together, which is exactly what the mean detects.
    speedups = {}  # threads -> (base list, cand list), common workloads only
    base_wl = {(w["query"], w["plan"]): w for w in base["workloads"]}
    for w in cand["workloads"]:
        key = (w["query"], w["plan"])
        b = base_wl.get(key)
        if b is None:
            c.info(f"{key}: no baseline workload, skipping")
            continue
        c.gate(f"{key} identical across thread counts", w["identical"] is True)
        c.gate(
            f"{key} rows_out: {b['rows_out']} -> {w['rows_out']}",
            w["rows_out"] == b["rows_out"],
        )
        base_runs = {r["threads"]: r for r in b.get("runs", [])}
        for run in w.get("runs", []):
            threads = run["threads"]
            br = base_runs.get(threads)
            if br is None:
                c.info(f"{key} threads={threads}: no baseline run, skipping")
                continue
            c.info(
                f"{key} threads={threads}: {run['ms']:.1f} ms, "
                f"speedup {run.get('speedup', 0.0):.2f}x "
                f"(baseline {br['ms']:.1f} ms, {br.get('speedup', 0.0):.2f}x)"
            )
            if threads == 1:
                continue
            bs, cs = speedups.setdefault(threads, ([], []))
            bs.append(br.get("speedup", 0.0))
            cs.append(run.get("speedup", 0.0))
    for threads in sorted(speedups):
        bs, cs = speedups[threads]
        check_work_metric(
            c,
            f"threads={threads} speedup geomean over {len(cs)} workload(s)",
            geomean(bs),
            geomean(cs),
            max_regress,
        )
    missing = set(base_wl) - {(w["query"], w["plan"]) for w in cand["workloads"]}
    c.gate(f"all baseline workloads present (missing: {sorted(missing)})", not missing)


def check_spill(c, base, cand, max_regress):
    del max_regress  # bench_spill has identity gates only
    c.gate(
        f"identity_pass: {base['identity_pass']} -> {cand['identity_pass']}",
        cand["identity_pass"] is True,
    )
    base_rows = {(r["plan"], r["mode"]): r for r in base["rows"]}
    for row in cand["rows"]:
        key = (row["plan"], row["mode"])
        b = base_rows.get(key)
        if b is None:
            c.info(f"{key}: no baseline row, skipping")
            continue
        c.gate(f"{key} identical", row["identical"] is True)
        c.gate(f"{key} rows: {b['rows']} -> {row['rows']}", row["rows"] == b["rows"])
        # Spill must still engage where the baseline spilled: a run that
        # stops spilling under the same soft limit silently stopped
        # honoring the governor.
        if b["spilled_partitions"] > 0:
            c.gate(
                f"{key} still spills ({row['spilled_partitions']} partitions)",
                row["spilled_partitions"] > 0,
            )
        if b["spilled_sort_runs"] > 0:
            c.gate(
                f"{key} still sorts externally ({row['spilled_sort_runs']} runs)",
                row["spilled_sort_runs"] > 0,
            )
        c.info(f"{key}: {row['wall_ms']:.1f} ms (baseline {b['wall_ms']:.1f} ms)")
    missing = set(base_rows) - {(r["plan"], r["mode"]) for r in cand["rows"]}
    c.gate(f"all baseline rows present (missing: {sorted(missing)})", not missing)


def check_policy(c, base, cand, max_regress):
    del max_regress  # gates are absolute contracts and fixed ratios
    c.gate(
        f"contract_pass: {base['contract_pass']} -> {cand['contract_pass']}",
        cand["contract_pass"] is True,
    )
    base_rows = {(r["topology"], r["rels"]): r for r in base["rows"]}
    dp_ms_sizes, sizes_ms = 0.0, 0.0
    dp_ms_greedy, greedy_ms = 0.0, 0.0
    for row in cand["rows"]:
        key = (row["topology"], row["rels"])
        b = base_rows.get(key)
        if b is None:
            c.info(f"{key}: no baseline row, skipping")
            continue
        topo, rels = key
        # Policy contract: deliberate policies never degrade; the Yannakakis
        # pass fires on every acyclic workload and never on a cyclic one;
        # the default DP budget completes small queries and trips on the
        # star workloads the cheap policies exist for.
        c.gate(
            f"{key} sizes-only/greedy undegraded",
            row["sizes_only_degraded"] == 0 and row["greedy_degraded"] == 0,
        )
        if topo == "clique":
            c.gate(f"{key} semijoin defers on cyclic", row["semijoin_applied"] == 0)
        else:
            c.gate(
                f"{key} semijoin applied {row['semijoin_applied']}/{row['queries']}",
                row["semijoin_applied"] == row["queries"],
            )
        if rels <= 10:
            c.gate(f"{key} dp completes inside budget", row["dp_degraded"] == 0)
        if topo == "star" and rels >= 12:
            c.gate(
                f"{key} dp trips budget ({row['dp_degraded']}/{row['queries']})",
                row["dp_degraded"] > 0,
            )
        if rels >= POLICY_SIZES_MIN_RELS:
            dp_ms_sizes += row["dp_ms"]
            sizes_ms += row["sizes_only_ms"]
        if rels >= POLICY_GREEDY_MIN_RELS:
            dp_ms_greedy += row["dp_ms"]
            greedy_ms += row["greedy_ms"]
        c.info(
            f"{key}: dp {row['dp_ms']:.1f} ms / {row['dp_subplan_calls']} calls, "
            f"sizes {row['sizes_only_ms']:.2f} ms, greedy {row['greedy_ms']:.2f} ms, "
            f"semijoin {row['semijoin_ms']:.2f} ms "
            f"(baseline dp {b['dp_ms']:.1f} ms)"
        )
    if dp_ms_sizes > 0:
        ratio = sizes_ms / dp_ms_sizes
        c.gate(
            f"sizes-only/dp planning-time ratio at rels>="
            f"{POLICY_SIZES_MIN_RELS}: {ratio:.4f}",
            ratio <= POLICY_RATIO_LIMIT,
            f"(limit {POLICY_RATIO_LIMIT})",
        )
    if dp_ms_greedy > 0:
        ratio = greedy_ms / dp_ms_greedy
        c.gate(
            f"greedy/dp planning-time ratio at rels>="
            f"{POLICY_GREEDY_MIN_RELS}: {ratio:.4f}",
            ratio <= POLICY_RATIO_LIMIT,
            f"(limit {POLICY_RATIO_LIMIT})",
        )
    missing = set(base_rows) - {(r["topology"], r["rels"]) for r in cand["rows"]}
    c.gate(f"all baseline rows present (missing: {sorted(missing)})", not missing)


CHECKERS = {
    "bench_enumerator_perf": check_enum,
    "parallel_exec": check_exec,
    "bench_spill": check_spill,
    "bench_policy": check_policy,
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    parser.add_argument("--candidate", required=True, help="freshly produced JSON")
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.25,
        help="max relative drop of work-reduction metrics (default 0.25)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.baseline) as f:
            base = json.load(f)
        with open(args.candidate) as f:
            cand = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_check: cannot load input: {e}", file=sys.stderr)
        return 2

    bench = base.get("bench")
    if bench != cand.get("bench"):
        print(
            f"bench_check: bench mismatch: baseline={bench!r} "
            f"candidate={cand.get('bench')!r}",
            file=sys.stderr,
        )
        return 2
    checker_fn = CHECKERS.get(bench)
    if checker_fn is None:
        print(
            f"bench_check: unknown bench {bench!r} "
            f"(known: {sorted(CHECKERS)})",
            file=sys.stderr,
        )
        return 2

    c = Checker()
    checker_fn(c, base, cand, args.max_regress)
    ok = c.report(f"bench_check [{bench}]: {args.candidate} vs {args.baseline}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
