// Planner-policy benchmark and behavior gate (docs/planner-policies.md).
//
// Runs seeded JOB-style workloads (sqlgen/workload.h: chain / star / clique
// join graphs at increasing relation counts) through every plan policy —
// the DP enumerator under a fixed deterministic node budget, the
// Simpli-Squared sizes-only order, the cardinality-based greedy order and
// the Yannakakis semijoin pass — and
//
//   1. asserts EXECUTION IDENTITY: every policy's plan must produce the
//      unoptimized query's result multiset, bit for bit after column
//      canonicalization;
//   2. asserts the POLICY CONTRACT: sizes-only and greedy never degrade,
//      semijoin applies its Yannakakis pass on every acyclic topology
//      (chain, star) and defers to DP on every cyclic one (clique), and
//      the DP node budget never trips at or below 10 relations while
//      tripping on star workloads at 12+ — the demonstration that
//      queries DP gives up on still complete under the cheap policies;
//   3. measures PLANNING TIME and the estimated cost of the chosen plans,
//      written to BENCH_policy.json for tools/bench_check.py. The time
//      gates there are within-run ratios (policy ms / dp ms), so machine
//      speed cancels; absolute numbers are reported, never gated.
//
// The process exit code reflects the identity and contract checks ONLY.
//
// Usage: bench_policy [queries_per_config] [max_rels] [json_path]
//                     [dp_node_budget]
//
// Relation counts run 8, 10, 12, ... up to max_rels. The default DP node
// budget is calibrated so the star workloads exhaust it at 12 relations
// while every 10-relation workload finishes inside it; see
// kDefaultDpNodeBudget for why star, not clique, is the hard topology.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "eca/optimizer.h"
#include "exec/executor.h"
#include "sqlgen/workload.h"
#include "storage/relation.h"

namespace eca {
namespace {

// The "default budget" the acceptance claim is phrased against: a cap on
// GenerateSubplan invocations per query, the same 10000 calls
// bench_enumerator_perf applies. Counter-intuitively, STAR is the
// topology that blows up: its spokes attach to the hub through
// independent binary predicates, so nearly every spoke permutation is a
// legal reordering and the search space explodes. Per benched query the
// DP search needs 897 calls at star-8, 4609 at star-10, 22529 at star-12
// and 106497 at star-14. Clique workloads look denser but their join
// predicates AND together conjuncts over all earlier relations, which
// pins the legal decompositions to a handful (15-27 calls); chains stay
// polynomial (169 calls at 8 relations, 911 at 14). The cap sits near the
// geometric middle of the window between the 10- and 12-relation star
// costs, so DP completes every benched workload at <= 10 relations
// undegraded and trips on 12+-relation stars — which the sizes-only and
// greedy policies then plan in well under a millisecond.
constexpr int64_t kDefaultDpNodeBudget = 10000;

constexpr PlanPolicy kPolicies[] = {PlanPolicy::kDp, PlanPolicy::kSizesOnly,
                                    PlanPolicy::kGreedy,
                                    PlanPolicy::kSemijoin};
constexpr int kNumPolicies = 4;

struct PolicyCell {
  double ms = 0;
  double cost_sum = 0;
  int degraded = 0;
  int applied = 0;   // semijoin: Yannakakis pass ran; greedy: gate fired
  int deferred = 0;  // policy deferred to dp (note says so)
};

struct ConfigRow {
  Topology topology = Topology::kChain;
  int rels = 0;
  int queries = 0;
  int64_t dp_subplan_calls = 0;
  PolicyCell cells[kNumPolicies];
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int Run(int queries, int max_rels, const std::string& json_path,
        int64_t dp_budget) {
  std::printf("==== Planner policies on JOB-style workloads (identity + "
              "contract) ====\n");
  std::printf("dp node budget: %lld\n\n",
              static_cast<long long>(dp_budget));
  std::printf("%7s %5s | %10s %10s | %10s %10s %10s | %s\n", "topo", "rels",
              "dp ms", "dp calls", "sizes ms", "greedy ms", "semi ms",
              "notes");

  int failures = 0;
  std::vector<ConfigRow> rows;
  const Topology topologies[] = {Topology::kChain, Topology::kStar,
                                 Topology::kClique};
  for (Topology topo : topologies) {
    for (int n = 8; n <= max_rels; n += 2) {
      ConfigRow row;
      row.topology = topo;
      row.rels = n;
      row.queries = queries;
      for (int qi = 0; qi < queries; ++qi) {
        WorkloadOptions wopts;
        wopts.topology = topo;
        wopts.num_rels = n;
        wopts.seed = static_cast<uint64_t>(n) * 7919 +
                     static_cast<uint64_t>(topo) * 131 +
                     static_cast<uint64_t>(qi);
        // Small rows and a tight value domain keep the per-join growth
        // factor near 1, so the execution-identity oracle stays cheap even
        // on 14-relation chains (same calibration as ecafuzz --policy).
        wopts.data.min_rows = 2;
        wopts.data.max_rows = 6;
        wopts.data.domain = 3;
        Workload w = GenerateWorkload(wopts);

        Optimizer plain;  // evaluates the query as written
        Relation oracle =
            CanonicalizeColumnOrder(plain.Execute(*w.query, w.db));

        for (int pi = 0; pi < kNumPolicies; ++pi) {
          PlanPolicy policy = kPolicies[pi];
          Optimizer::Options opts;
          opts.plan_policy = policy;
          if (policy == PlanPolicy::kDp) {
            opts.budget.max_enumerated_nodes = dp_budget;
          }
          Optimizer opt{opts};
          auto t0 = std::chrono::steady_clock::now();
          Optimizer::Optimized best = opt.Optimize(*w.query, w.db);
          PolicyCell& cell = row.cells[pi];
          cell.ms += MsSince(t0);
          cell.cost_sum += best.estimated_cost;
          if (best.stats.degraded) ++cell.degraded;
          const std::string& note = best.provenance.policy_note;
          if (policy == PlanPolicy::kSemijoin) {
            if (note.rfind("yannakakis", 0) == 0) ++cell.applied;
            if (note.rfind("ineligible", 0) == 0) ++cell.deferred;
          } else if (policy == PlanPolicy::kGreedy) {
            if (note.empty()) ++cell.applied;
            else ++cell.deferred;
          }
          if (policy == PlanPolicy::kDp) {
            row.dp_subplan_calls += best.stats.subplan_calls;
          }

          Relation got =
              CanonicalizeColumnOrder(opt.Execute(*best.plan, w.db));
          if (!SameMultiset(oracle, got)) {
            std::printf("IDENTITY FAIL: topo=%s rels=%d query=%d policy=%s "
                        "result multiset differs from the unoptimized "
                        "query\n",
                        TopologyName(topo), n, qi, PlanPolicyName(policy));
            ++failures;
          }
        }
      }

      // -- Policy contract checks on the aggregated config.
      const PolicyCell& dp = row.cells[0];
      const PolicyCell& sizes = row.cells[1];
      const PolicyCell& greedy = row.cells[2];
      const PolicyCell& semi = row.cells[3];
      std::string notes;
      if (sizes.degraded > 0 || greedy.degraded > 0) {
        std::printf("CONTRACT FAIL: topo=%s rels=%d sizes-only/greedy "
                    "flagged degraded (%d/%d) — deliberate policies must "
                    "not be\n",
                    TopologyName(topo), n, sizes.degraded, greedy.degraded);
        ++failures;
      }
      if (topo == Topology::kClique) {
        if (semi.applied > 0) {
          std::printf("CONTRACT FAIL: topo=clique rels=%d semijoin applied "
                      "its Yannakakis pass on a cyclic query\n", n);
          ++failures;
        }
        notes += "semi defers (cyclic); ";
      } else if (semi.applied != queries) {
        std::printf("CONTRACT FAIL: topo=%s rels=%d semijoin applied on "
                    "%d/%d acyclic queries (want all)\n",
                    TopologyName(topo), n, semi.applied, queries);
        ++failures;
      }
      if (n <= 10 && dp.degraded > 0) {
        std::printf("CONTRACT FAIL: topo=%s rels=%d dp tripped the default "
                    "budget on %d/%d queries at <= 10 relations\n",
                    TopologyName(topo), n, dp.degraded, queries);
        ++failures;
      }
      if (topo == Topology::kStar && n >= 12 && dp.degraded == 0) {
        std::printf("CONTRACT FAIL: topo=star rels=%d dp completed all "
                    "%d queries inside the budget (want the budget to trip "
                    "on 12+-relation stars)\n",
                    n, queries);
        ++failures;
      }
      if (dp.degraded > 0) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "dp tripped %d/%d", dp.degraded,
                      queries);
        notes += buf;
      }

      std::printf("%7s %5d | %10.1f %10lld | %10.2f %10.2f %10.2f | %s\n",
                  TopologyName(topo), n, dp.ms,
                  static_cast<long long>(row.dp_subplan_calls), sizes.ms,
                  greedy.ms, semi.ms, notes.c_str());
      rows.push_back(row);
    }
  }
  std::printf("\nidentity + contract checks: %s\n",
              failures == 0 ? "PASS" : "FAIL");

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"bench_policy\",\n");
    std::fprintf(out, "  \"dp_node_budget\": %lld,\n",
                 static_cast<long long>(dp_budget));
    std::fprintf(out, "  \"contract_pass\": %s,\n",
                 failures == 0 ? "true" : "false");
    std::fprintf(out, "  \"rows\": [\n");
    const char* policy_keys[] = {"dp", "sizes_only", "greedy", "semijoin"};
    for (size_t i = 0; i < rows.size(); ++i) {
      const ConfigRow& r = rows[i];
      std::fprintf(out,
                   "    {\"topology\": \"%s\", \"rels\": %d, \"queries\": "
                   "%d, \"dp_subplan_calls\": %lld",
                   TopologyName(r.topology), r.rels, r.queries,
                   static_cast<long long>(r.dp_subplan_calls));
      for (int pi = 0; pi < kNumPolicies; ++pi) {
        const PolicyCell& c = r.cells[pi];
        std::fprintf(out,
                     ", \"%s_ms\": %.3f, \"%s_cost\": %.1f, "
                     "\"%s_degraded\": %d, \"%s_applied\": %d, "
                     "\"%s_deferred\": %d",
                     policy_keys[pi], c.ms, policy_keys[pi], c.cost_sum,
                     policy_keys[pi], c.degraded, policy_keys[pi], c.applied,
                     policy_keys[pi], c.deferred);
      }
      std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::printf("warning: could not write %s\n", json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace eca

int main(int argc, char** argv) {
  int queries = argc > 1 ? std::atoi(argv[1]) : 3;
  int max_rels = argc > 2 ? std::atoi(argv[2]) : 14;
  std::string json_path = argc > 3 ? argv[3] : "BENCH_policy.json";
  int64_t dp_budget = argc > 4 ? std::atoll(argv[4])
                               : eca::kDefaultDpNodeBudget;
  return eca::Run(queries, max_rels, json_path, dp_budget);
}
