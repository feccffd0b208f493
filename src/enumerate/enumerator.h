#ifndef ECA_ENUMERATE_ENUMERATOR_H_
#define ECA_ENUMERATE_ENUMERATOR_H_

#include <cstdint>
#include <memory>

#include "algebra/plan.h"
#include "cost/cost_model.h"
#include "rewrite/rules.h"

namespace eca {

class SharedMemo;

// Hard resource limits for one Optimize() call. Enumeration cost grows
// explosively with query size, so a production deployment caps the search
// and accepts the best plan found so far (or, when nothing complete was
// found, the query as written). A field <= 0 means unlimited.
struct EnumeratorBudget {
  // Cap on GenerateSubplan invocations (the enumerated search-tree nodes).
  int64_t max_enumerated_nodes = 0;
  // Cap on memo entries; when reached, the search continues but stops
  // caching new subplans (bounds memory, costs reuse opportunities).
  int64_t max_memo_entries = 0;
  // Wall-clock deadline for the whole enumeration.
  int64_t wall_clock_ms = 0;

  bool Unlimited() const {
    return max_enumerated_nodes <= 0 && max_memo_entries <= 0 &&
           wall_clock_ms <= 0;
  }
};

// What cut the search short (EnumeratorStats::trigger).
enum class BudgetTrigger {
  kNone = 0,
  kEnumeratedNodes,  // EnumeratorBudget::max_enumerated_nodes reached
  kMemoEntries,      // memo capped: search completed without full reuse
  kWallClock,        // deadline passed
  kInjectedFault,    // FaultPoint::kEnumeratorBudget fired
  kAllocationFault,  // FaultPoint::kAllocation fired (clone denied)
  kRewriteFault,     // FaultPoint::kRewriteRule fired (swap denied)
  kSizesOnlyFallback,  // DP enumeration skipped entirely: the admission
                       // deadline left less than the configured planning
                       // budget, so the plan is a table-sizes-only greedy
                       // order (Optimizer::Options::sizes_only_fallback_ms)
};

const char* BudgetTriggerName(BudgetTrigger trigger);

// Configuration for the top-down plan enumerator (Section 5).
struct EnumeratorOptions {
  // Which rewrite arsenal Swap may use — the paper's ECA, or the TBA / CBA
  // baselines it compares against.
  SwapPolicy policy = SwapPolicy::kECA;
  // Enhanced mode (Algorithms 4-6, Appendix C): cache and reuse optimal
  // subplans keyed by relation set + external d-edge signature. When false,
  // runs the basic mode of Algorithms 1-3.
  bool reuse_subplans = true;
  // ABLATION ONLY (Example 5.1): reuse cached subplans on the relation set
  // alone, ignoring the external d-edge signature — the unsound shortcut
  // the paper's dependency tracking exists to prevent. Used by
  // bench_ablation_dedges and the corresponding test to demonstrate that
  // naive reuse produces plans that are NOT equivalent to the query.
  bool unsafe_ignore_dedges = false;
  // Ignored: the search is sequential and nothing reads this field. It
  // stays declared only so that callers which still assign it compile.
  int num_threads = 1;
  // Cycle guard: maximum SwapUp chain length while positioning one join.
  // Exceeding it abandons the decomposition and increments
  // EnumeratorStats::swap_chain_guard_trips.
  int max_swap_chain = 128;
  // TESTING ONLY: degrade every memo signature to a single value so that
  // distinct ext-d-edge key vectors collide in one bucket — exercises the
  // stored-full-key verification that keeps 64-bit collisions sound.
  bool collide_signatures = false;
  // Cross-query plan cache (enumerate/shared_memo.h). When set, proven
  // subplans are published into / probed from this table, so a repeated
  // structurally-identical query under the same stats epoch reuses them
  // instead of re-enumerating. When null, the search's own local memo is
  // the only one. The caller owns the cache and must keep it alive across
  // the call; Optimize pins it for the duration of the enumeration.
  // Ignored under unsafe_ignore_dedges.
  SharedMemo* shared_memo = nullptr;
  // Resource limits; default unlimited (exhaustive enumeration).
  EnumeratorBudget budget;
};

struct EnumeratorStats {
  int64_t subplan_calls = 0;
  int64_t pairs_considered = 0;
  int64_t swaps_attempted = 0;
  int64_t swaps_failed = 0;
  int64_t plans_completed = 0;  // complete plans costed at the top level
  int64_t reuses = 0;
  int64_t cache_entries = 0;
  // Always 0: the search has no cost bound, so nothing is ever pruned.
  // Kept declared only because perfbench/harness.cc still reads it.
  int64_t prunes = 0;
  // Full cost-model evaluations (one per completed candidate).
  int64_t cost_evals = 0;
  // Plan nodes deep-copied by the search (snapshot/restore/graft clones).
  // Together with cost_evals this is the "work" measure the perf bench
  // tracks (BENCH_enum.json).
  int64_t cloned_nodes = 0;
  // SwapUp chains abandoned by the cycle guard (options.max_swap_chain).
  int64_t swap_chain_guard_trips = 0;
  // Memo probes whose 64-bit signature matched but whose stored full key
  // did not — rejected grafts that a signature-only memo would have
  // performed unsoundly.
  int64_t sig_collisions = 0;
  // True when the search was cut short (budget or injected fault): the
  // returned plan is correct but possibly not the enumeration optimum.
  bool degraded = false;
  // True when the cut-short search never completed a single plan and fell
  // back to the query as written. The Optimizer reroutes this case through
  // the sizes-only ordering (kSizesOnlyFallback) rather than executing the
  // unoptimized query.
  bool no_complete_plan = false;
  BudgetTrigger trigger = BudgetTrigger::kNone;
};

// Top-down plan enumeration with compensation operators (Algorithms 1-6).
//
// Starting from the initial plan P_init (the query as written), every
// feasible decomposition of the relation set is explored; joins are
// repositioned with SwapUp, which generates compensation operators for
// invalid transformations. The optimal subplan for each relation set is
// selected by estimated cost; in enhanced mode optimal subplans are reused
// across contexts when their external dependency edges match (Theorem 5.4).
//
// The search is clone-light (per-decomposition state is snapshot/restored
// in place of whole-plan deep copies) and memoized ((relation set, 64-bit
// ext-d-edge signature) -> optimal subtree, with the full key stored for
// collision verification) — while selecting the same plan the basic
// Algorithms 1-3 loop selects (docs/performance.md, bench_enumerator_perf).
class TopDownEnumerator {
 public:
  TopDownEnumerator(const CostModel* cost_model, EnumeratorOptions options)
      : cost_(cost_model), options_(options) {}

  struct Result {
    // Never null: on budget exhaustion with no complete plan, falls back
    // to the query as written (stats.degraded tells the two apart).
    PlanPtr plan;
    double cost = 0;
    EnumeratorStats stats;
  };

  // Wraps the search in an "enumerate" trace span and publishes the run's
  // EnumeratorStats as enum.* counter deltas in MetricsRegistry::Global()
  // (docs/observability.md), so a registry diff around one call matches
  // Result::stats exactly.
  Result Optimize(const Plan& query);

 private:
  Result OptimizeImpl(const Plan& query);

  const CostModel* cost_;
  EnumeratorOptions options_;
};

}  // namespace eca

#endif  // ECA_ENUMERATE_ENUMERATOR_H_
