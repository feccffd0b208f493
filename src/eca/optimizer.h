#ifndef ECA_ECA_OPTIMIZER_H_
#define ECA_ECA_OPTIMIZER_H_

#include <string>

#include "common/status.h"
#include "cost/cost_model.h"
#include "eca/policy.h"
#include "eca/provenance.h"
#include "enumerate/enumerator.h"
#include "enumerate/realize.h"
#include "exec/executor.h"
#include "exec/query_context.h"
#include "sqlgen/sqlgen.h"

namespace eca {

// The library's one-stop facade: build a logical plan (algebra/plan.h),
// hand it to Optimize() together with the data, execute or render the
// result.
//
//   Database db = ...;
//   PlanPtr query = Plan::Join(JoinOp::kLeftAnti, pred, ..., ...);
//   Optimizer opt;                       // ECA by default
//   auto best = opt.Optimize(*query, db);
//   Relation result = opt.Execute(*best.plan, db);
//
// The Approach selects the reordering arsenal: the paper's ECA, or the TBA
// / CBA baselines it is evaluated against (Sections 2 and 3).
class Optimizer {
 public:
  enum class Approach { kECA, kTBA, kCBA };

  struct Options {
    Approach approach = Approach::kECA;
    // Enhanced enumeration (Algorithms 4-6): reuse optimal subplans across
    // contexts when their external dependency edges match.
    bool reuse_subplans = true;
    Executor::JoinPreference join_preference =
        Executor::JoinPreference::kHash;
    // Threads for Execute()'s partitioned join/compensation evaluation;
    // results are byte-identical for every value (docs/performance.md).
    // Optimize() is sequential.
    int num_threads = 1;
    // Executor morsel/chunk granularity; results are byte-identical for
    // every legal value (fuzzed via ecafuzz --morsel-rows/--chunk-rows).
    ExecTuning exec_tuning;
    // Run the compensation cleanup pass on the chosen plan (removes
    // identity projections, redundant best-matches, ...).
    bool cleanup_compensations = true;
    // Resource budget for the enumeration (default unlimited). On
    // exhaustion Optimize degrades gracefully: it returns the best
    // complete plan found so far, or the query as written, and reports
    // stats.degraded plus the trigger. See docs/robustness.md.
    EnumeratorBudget budget{};
    // Degraded planning mode for deadline-squeezed governed queries
    // (docs/robustness.md, "Service hardening"): when OptimizeGoverned
    // finds less than this many milliseconds of deadline remaining, it
    // skips DP enumeration entirely and greedily orders joins from base
    // table sizes alone (the Simpli-Squared policy, arXiv:2111.00163 —
    // near-zero planning cost, no cardinality estimates). The result is
    // flagged stats.degraded with BudgetTrigger::kSizesOnlyFallback.
    // <= 0 disables the fallback (the enumerator's own wall-clock budget
    // still applies).
    int64_t sizes_only_fallback_ms = 0;
    // Cross-query plan cache (enumerate/shared_memo.h), shared across
    // Optimize() calls and owned by the caller (the service wires its
    // per-process cache here). Null = a private per-query memo; behavior
    // is unchanged, only cross-query reuse is lost. The caller must keep
    // the cache alive for the lifetime of this Optimizer and advance its
    // stats epoch whenever base-relation statistics change.
    SharedMemo* plan_cache = nullptr;
    // Which planner produces the plan (docs/planner-policies.md): the
    // paper's DP enumerator (default), the Simpli-Squared sizes-only
    // order, the cardinality-based greedy order, or the Yannakakis
    // semijoin pass for acyclic queries. Policies other than dp defer to
    // dp when they do not apply (greedy below max_join_size, semijoin on
    // cyclic/ineligible queries); the provenance's policy_note records
    // the deferral. Deliberate policy choices are NOT flagged degraded —
    // stats.degraded stays reserved for budget/deadline fallbacks.
    PlanPolicy plan_policy = PlanPolicy::kDp;
    // Greedy-policy threshold (after ByConity's max_join_size): queries
    // with at most this many relations still run DP enumeration; only
    // larger join graphs use the O(n^2) greedy order.
    int max_join_size = 10;
  };

  Optimizer() : Optimizer(Options()) {}
  explicit Optimizer(Options options) : options_(options) {}

  struct Optimized {
    PlanPtr plan;
    double estimated_cost = 0;
    EnumeratorStats stats;
    // How the plan came to be: rewrite rules fired during the search,
    // compensation operators carried by the winner, degradation state.
    // Render with provenance.ToString() or via Explain().
    PlanProvenance provenance;
  };

  // Cost-based join reordering of `query` over `db`'s statistics.
  // `query` must be well formed (CHECK-fails otherwise); for plans built
  // from user input, use OptimizeChecked.
  Optimized Optimize(const Plan& query, const Database& db) const;

  // Validating front door for externally-supplied plans: rejects plans
  // that reference missing relations/columns or violate the structural
  // invariants of ValidatePlan with INVALID_ARGUMENT instead of aborting.
  // On success, behaves exactly like Optimize (including budget-degraded
  // results — a degraded plan is a valid plan, not an error).
  StatusOr<Optimized> OptimizeChecked(const Plan& query,
                                      const Database& db) const;

  // Validating counterpart of Execute for externally-supplied plans.
  StatusOr<Relation> ExecuteChecked(const Plan& plan,
                                    const Database& db) const;

  // Governed optimization: like Optimize, but the enumeration budget's
  // wall clock is clamped to `ctx`'s remaining deadline, so one
  // --timeout-ms covers enumeration and execution as a single contract.
  // An already-expired context degrades immediately (best-so-far plan,
  // stats.degraded set) rather than erroring — callers decide whether a
  // degraded plan is still worth executing with the time they have left.
  // When Options::sizes_only_fallback_ms is set and the remaining
  // deadline is below it, DP enumeration is skipped in favor of
  // OptimizeSizesOnly.
  Optimized OptimizeGoverned(const Plan& query, const Database& db,
                             QueryContext* ctx) const;

  // The sizes-only degraded planner: greedily orders joins from base
  // table row counts alone (smallest tables first, connected relations
  // preferred) and realizes that ordering with the approach's
  // compensation arsenal; when the greedy ordering is not realizable the
  // query is returned as written. Always flags the result degraded with
  // BudgetTrigger::kSizesOnlyFallback. Exposed for tests and for callers
  // that want the fallback unconditionally.
  Optimized OptimizeSizesOnly(const Plan& query, const Database& db) const;

  // Governed execution: evaluates `plan` under `ctx`'s memory, deadline
  // and cancellation limits (Executor::ExecuteWithContext). On both
  // success and failure `stats`, when given, receives the executor's
  // counters (peak_bytes, spilled_partitions, ...) and per-node profile.
  StatusOr<Relation> ExecuteGoverned(const Plan& plan, const Database& db,
                                     QueryContext* ctx,
                                     ExecStats* stats = nullptr) const;

  // "eca" / "tba" / "cba" (case-insensitive) -> Approach; the error lists
  // the valid names.
  static StatusOr<Approach> ParseApproach(const std::string& name);
  static const char* ApproachName(Approach approach);

  // Rewrites `query` to follow the join ordering `theta` (Section 3's
  // theta-reorderability); nullptr if unreachable under the approach.
  PlanPtr Reorder(const Plan& query, const OrderingNode& theta) const;

  // Evaluates a plan (compensation operators included). `stats`, when
  // given, receives the executor's counters and per-node profile
  // (ExplainAnalyze renders it).
  Relation Execute(const Plan& plan, const Database& db,
                   ExecStats* stats = nullptr) const;

  // Multi-line report: the plan tree, its cost estimate, optionally the
  // provenance block of the Optimized that produced it, and (when table
  // names are provided) the enforcing SQL of Section 6.1.
  std::string Explain(const Plan& plan, const Database& db,
                      const SqlOptions* sql = nullptr,
                      const PlanProvenance* provenance = nullptr) const;

 private:
  // Cleanup + costing + provenance shared by every policy's exit path.
  Optimized Finish(PlanPtr plan, const CostModel& cost,
                   const MetricsSnapshot& before, const EnumeratorStats& stats,
                   const char* policy_name,
                   const std::string& policy_note) const;

  SwapPolicy policy() const {
    switch (options_.approach) {
      case Approach::kTBA:
        return SwapPolicy::kTBA;
      case Approach::kCBA:
        return SwapPolicy::kCBA;
      case Approach::kECA:
        break;
    }
    return SwapPolicy::kECA;
  }

  Options options_;
};

}  // namespace eca

#endif  // ECA_ECA_OPTIMIZER_H_
