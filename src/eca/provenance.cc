#include "eca/provenance.h"

#include "common/str_util.h"

namespace eca {

namespace {

const char* CompKindName(CompOp::Kind kind) {
  switch (kind) {
    case CompOp::Kind::kLambda:
      return "lambda";
    case CompOp::Kind::kBeta:
      return "beta";
    case CompOp::Kind::kGamma:
      return "gamma";
    case CompOp::Kind::kGammaStar:
      return "gamma*";
    case CompOp::Kind::kProject:
      return "project";
  }
  return "unknown";
}

void WalkPlan(const Plan& node, PlanProvenance* out) {
  switch (node.kind()) {
    case Plan::Kind::kLeaf:
      ++out->leaf_nodes;
      return;
    case Plan::Kind::kJoin:
      ++out->join_nodes;
      WalkPlan(*node.left(), out);
      WalkPlan(*node.right(), out);
      return;
    case Plan::Kind::kComp:
      ++out->compensations[CompKindName(node.comp().kind)];
      WalkPlan(*node.child(), out);
      return;
  }
}

}  // namespace

PlanProvenance BuildPlanProvenance(const Plan& chosen,
                                   const EnumeratorStats& stats,
                                   const MetricsSnapshot& before,
                                   const MetricsSnapshot& after,
                                   const char* approach, const char* policy,
                                   const std::string& policy_note) {
  PlanProvenance out;
  out.approach = approach;
  out.policy = policy;
  out.policy_note = policy_note;
  const std::string prefix = "rewrite.rule.";
  MetricsSnapshot diff = after.DiffSince(before);
  for (const auto& [name, value] : diff.counters) {
    if (value == 0) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    out.rule_applications[name.substr(prefix.size())] = value;
  }
  WalkPlan(chosen, &out);
  out.subplan_calls = stats.subplan_calls;
  out.memo_hits = stats.reuses;
  out.degraded = stats.degraded;
  if (stats.degraded) {
    out.degraded_trigger = BudgetTriggerName(stats.trigger);
  }
  return out;
}

std::string PlanProvenance::ToString() const {
  std::string out = "provenance:\n";
  out += StrFormat("  approach: %s%s\n", approach.c_str(),
                   degraded ? StrFormat(" (degraded: %s)",
                                        degraded_trigger.c_str())
                                  .c_str()
                            : "");
  if (!policy.empty()) {
    out += StrFormat("  policy: %s%s\n", policy.c_str(),
                     policy_note.empty()
                         ? ""
                         : StrFormat(" (%s)", policy_note.c_str()).c_str());
  }
  out += StrFormat("  shape: %lld joins, %lld leaves\n",
                   static_cast<long long>(join_nodes),
                   static_cast<long long>(leaf_nodes));
  out += "  compensations:";
  if (compensations.empty()) {
    out += " none\n";
  } else {
    for (const auto& [kind, count] : compensations) {
      out += StrFormat(" %s=%lld", kind.c_str(),
                       static_cast<long long>(count));
    }
    out += '\n';
  }
  out += "  rewrites:";
  if (rule_applications.empty()) {
    out += " none\n";
  } else {
    for (const auto& [rule, count] : rule_applications) {
      out += StrFormat(" %s=%lld", rule.c_str(),
                       static_cast<long long>(count));
    }
    out += '\n';
  }
  out += StrFormat("  search: %lld subplan calls, %lld memo hits\n",
                   static_cast<long long>(subplan_calls),
                   static_cast<long long>(memo_hits));
  return out;
}

}  // namespace eca
