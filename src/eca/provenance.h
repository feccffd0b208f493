#ifndef ECA_ECA_PROVENANCE_H_
#define ECA_ECA_PROVENANCE_H_

#include <cstdint>
#include <map>
#include <string>

#include "algebra/plan.h"
#include "common/metrics.h"
#include "enumerate/enumerator.h"

namespace eca {

// How the chosen plan came to be: which rewrite rules fired during the
// search, which compensation operators the winning plan carries, and
// whether the search ran to completion. Attached to Optimizer::Optimized
// and rendered by Optimizer::Explain and `ecatool --explain`.
struct PlanProvenance {
  std::string approach;  // "ECA" / "TBA" / "CBA"

  // Which plan policy the caller requested ("dp" / "sizes-only" / "greedy"
  // / "semijoin", eca/policy.h) and, when the policy deferred to another
  // planner, a one-line note saying why (greedy below its size threshold,
  // semijoin on a cyclic query, budget-tripped dp rerouted through
  // sizes-only, ...). Empty note = the requested policy planned the query.
  std::string policy;
  std::string policy_note;

  // Rewrite-rule applications during this Optimize call (rule name ->
  // count), read from the registry's rewrite.rule.* counters. Rule counts
  // cover the whole search, not just the winning chain — the enumerator
  // explores many orderings and keeps one. Process-global counters mean a
  // concurrent Optimize on another thread would bleed into the diff;
  // per-query provenance assumes the usual one-optimize-at-a-time caller.
  std::map<std::string, int64_t> rule_applications;

  // Compensation operators present in the chosen plan (kind -> count):
  // the paper's lambda / beta / gamma / gamma* plus projections.
  std::map<std::string, int64_t> compensations;

  int64_t join_nodes = 0;
  int64_t leaf_nodes = 0;
  int64_t subplan_calls = 0;
  int64_t memo_hits = 0;
  bool degraded = false;
  std::string degraded_trigger;

  // Multi-line "provenance:" block for plan printouts.
  std::string ToString() const;
};

// Builds provenance for `chosen` from the enumerator's stats and the
// registry snapshots taken around the Optimize call (their diff carries
// the rewrite.rule.* counts).
PlanProvenance BuildPlanProvenance(const Plan& chosen,
                                   const EnumeratorStats& stats,
                                   const MetricsSnapshot& before,
                                   const MetricsSnapshot& after,
                                   const char* approach,
                                   const char* policy = "dp",
                                   const std::string& policy_note = "");

}  // namespace eca

#endif  // ECA_ECA_PROVENANCE_H_
