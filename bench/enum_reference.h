#ifndef ECA_BENCH_ENUM_REFERENCE_H_
#define ECA_BENCH_ENUM_REFERENCE_H_

#include <cstdint>

#include "algebra/plan.h"
#include "cost/cost_model.h"
#include "rewrite/rules.h"

namespace eca {

// Work counters for the reference enumerator. cloned_nodes + cost_evals is
// the "work" measure bench_enumerator_perf compares against the fast
// enumerator (BENCH_enum.json).
struct ReferenceStats {
  int64_t subplan_calls = 0;
  int64_t pairs_considered = 0;
  int64_t swaps_attempted = 0;
  int64_t reuses = 0;
  int64_t cloned_nodes = 0;
  int64_t cost_evals = 0;
  // True when the search hit max_calls and gave up — the "query exceeds
  // the enumeration budget" outcome of the pre-fast-path enumerator.
  bool call_capped = false;
};

// The pre-fast-path top-down enumerator, kept verbatim as the benchmark
// baseline and identity oracle: whole-plan deep copy per decomposition,
// join relocation by re-scanning the clone's joinable pairs, a full-key
// (relation set + external-d-edge vector) memo, sequential.
// bench_enumerator_perf asserts the fast enumerator
// picks a plan with exactly this enumerator's cost — that is what makes
// its clones/costings reduction a like-for-like measurement rather than a
// quality trade-off. Fault injection is omitted: the bench always runs
// clean. `max_calls` (0 = unlimited) is the one budget knob, a cap on
// GenerateSubplan invocations matching the production enumerator's
// max_enumerated_nodes — it lets the bench show which query sizes the
// pre-fast-path search could not finish within a fixed call budget.
class ReferenceEnumerator {
 public:
  ReferenceEnumerator(const CostModel* cost_model, SwapPolicy policy,
                      bool reuse_subplans = true, int64_t max_calls = 0)
      : cost_(cost_model),
        policy_(policy),
        reuse_(reuse_subplans),
        max_calls_(max_calls) {}

  struct Result {
    PlanPtr plan;
    double cost = 0;
    ReferenceStats stats;
  };

  Result Optimize(const Plan& query);

 private:
  const CostModel* cost_;
  SwapPolicy policy_;
  bool reuse_;
  int64_t max_calls_;
};

}  // namespace eca

#endif  // ECA_BENCH_ENUM_REFERENCE_H_
