#include "eca/optimizer.h"

#include <cctype>
#include <memory>
#include <vector>

#include "algebra/validate.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "enumerate/acyclic.h"
#include "enumerate/greedy.h"
#include "enumerate/join_order.h"
#include "enumerate/semijoin.h"
#include "rewrite/comp_simplify.h"

namespace eca {

namespace {

std::vector<int64_t> BaseTableRows(const Database& db) {
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(db.NumTables()));
  for (int i = 0; i < db.NumTables(); ++i) {
    rows.push_back(db.table(i).NumRows());
  }
  return rows;
}

}  // namespace

Optimizer::Optimized Optimizer::Finish(PlanPtr plan, const CostModel& cost,
                                       const MetricsSnapshot& before,
                                       const EnumeratorStats& stats,
                                       const char* policy_name,
                                       const std::string& policy_note) const {
  Optimized out;
  out.plan = std::move(plan);
  if (options_.cleanup_compensations && out.plan != nullptr) {
    TraceSpan cleanup_span("rewrite-cleanup");
    SimplifyCompensations(&out.plan);
  }
  out.estimated_cost = cost.Cost(*out.plan);
  out.stats = stats;
  out.provenance = BuildPlanProvenance(
      *out.plan, out.stats, before, MetricsRegistry::Global().Snapshot(),
      ApproachName(options_.approach), policy_name, policy_note);
  return out;
}

Optimizer::Optimized Optimizer::Optimize(const Plan& query,
                                         const Database& db) const {
  TraceSpan span("optimize");
  if (span.active()) {
    span.AppendArg("approach", ApproachName(options_.approach));
    span.AppendArg("policy", PlanPolicyName(options_.plan_policy));
  }
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  CostModel cost = [&] {
    TraceSpan model_span("cost-model");
    return CostModel::FromDatabase(db);
  }();
  const char* policy_name = PlanPolicyName(options_.plan_policy);

  // An ordering-producing policy (sizes-only, greedy) realizes its order
  // with the approach's compensation arsenal and skips DP entirely; these
  // are deliberate choices, not degradations, so stats stay clean. A
  // policy that does not apply falls through to DP with a note.
  auto realize = [&](OrderingNodePtr theta) {
    PlanPtr plan =
        theta != nullptr ? RealizeOrdering(query, *theta, policy()) : nullptr;
    if (plan == nullptr) plan = query.Clone();
    return plan;
  };
  std::string note;
  switch (options_.plan_policy) {
    case PlanPolicy::kDp:
      break;
    case PlanPolicy::kSizesOnly:
      return Finish(realize(SizesOnlyOrdering(query, BaseTableRows(db))),
                    cost, before, EnumeratorStats{}, policy_name, "");
    case PlanPolicy::kGreedy: {
      int num_rels = query.leaves().Count();
      if (num_rels > options_.max_join_size) {
        return Finish(realize(GreedyCardinalityOrdering(query, cost)), cost,
                      before, EnumeratorStats{}, policy_name, "");
      }
      note = StrFormat("%d relation(s) within max-join-size %d; dp ran",
                       num_rels, options_.max_join_size);
      break;
    }
    case PlanPolicy::kSemijoin: {
      SemijoinTree tree;
      std::string why;
      if (BuildSemijoinTree(query, BaseTableRows(db), &tree, &why)) {
        return Finish(BuildYannakakisPlan(tree), cost, before,
                      EnumeratorStats{}, policy_name,
                      StrFormat("yannakakis pass, root R%d", tree.root));
      }
      note = "ineligible: " + why + "; dp ran";
      break;
    }
  }

  EnumeratorOptions opts;
  opts.policy = policy();
  opts.reuse_subplans = options_.reuse_subplans;
  opts.budget = options_.budget;
  opts.shared_memo = options_.plan_cache;
  TopDownEnumerator enumerator(&cost, opts);
  auto result = enumerator.Optimize(query);
  if (result.stats.degraded && result.stats.no_complete_plan) {
    // The budget tripped before a single complete plan was costed, so the
    // enumerator fell back to the query as written. Realize the sizes-only
    // order instead — same near-zero planning cost, but the plan at least
    // reflects base-table sizes — and report it through the same trigger
    // as the deadline-squeezed fallback (docs/robustness.md).
    OrderingNodePtr theta = SizesOnlyOrdering(query, BaseTableRows(db));
    PlanPtr fallback =
        theta != nullptr ? RealizeOrdering(query, *theta, policy()) : nullptr;
    if (fallback != nullptr) {
      static Counter* const fallbacks = MetricsRegistry::Global().counter(
          "optimizer.sizes_only_fallback");
      fallbacks->Increment();
      result.plan = std::move(fallback);
      result.stats.trigger = BudgetTrigger::kSizesOnlyFallback;
      if (!note.empty()) note += "; ";
      note += "no complete plan within budget; sizes-only order realized";
    }
  }
  return Finish(std::move(result.plan), cost, before, result.stats,
                policy_name, note);
}

StatusOr<Optimizer::Optimized> Optimizer::OptimizeChecked(
    const Plan& query, const Database& db) const {
  ECA_RETURN_IF_ERROR(
      ValidatePlanStatus(query, db.BaseSchemas()).WithContext("Optimize"));
  return Optimize(query, db);
}

StatusOr<Relation> Optimizer::ExecuteChecked(const Plan& plan,
                                             const Database& db) const {
  // Relaxed duplicate handling: optimizer output may be a Yannakakis plan
  // whose reducers reference relations again inside semijoin pruning sides.
  ValidateOptions vopts;
  vopts.allow_hidden_duplicates = true;
  ECA_RETURN_IF_ERROR(ValidatePlanStatus(plan, db.BaseSchemas(), vopts)
                          .WithContext("Execute"));
  return Execute(plan, db);
}

Optimizer::Optimized Optimizer::OptimizeSizesOnly(const Plan& query,
                                                  const Database& db) const {
  TraceSpan span("optimize-sizes-only");
  if (span.active()) {
    span.AppendArg("approach", ApproachName(options_.approach));
  }
  static Counter* const fallbacks =
      MetricsRegistry::Global().counter("optimizer.sizes_only_fallback");
  fallbacks->Increment();
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  CostModel cost = CostModel::FromDatabase(db);
  OrderingNodePtr theta = SizesOnlyOrdering(query, BaseTableRows(db));
  PlanPtr plan =
      theta != nullptr ? RealizeOrdering(query, *theta, policy()) : nullptr;
  if (plan == nullptr) plan = query.Clone();
  EnumeratorStats stats;
  stats.degraded = true;
  stats.trigger = BudgetTrigger::kSizesOnlyFallback;
  // Unlike a deliberate --policy sizes-only run, this path is always a
  // degradation; note which policy was displaced when it was not
  // sizes-only already.
  std::string note =
      options_.plan_policy == PlanPolicy::kSizesOnly
          ? ""
          : std::string("requested ") + PlanPolicyName(options_.plan_policy) +
                ", degraded to sizes-only";
  return Finish(std::move(plan), cost, before, stats,
                PlanPolicyName(PlanPolicy::kSizesOnly), note);
}

Optimizer::Optimized Optimizer::OptimizeGoverned(const Plan& query,
                                                 const Database& db,
                                                 QueryContext* ctx) const {
  Options opts = options_;
  int64_t remaining = ctx != nullptr ? ctx->RemainingMs() : INT64_MAX;
  if (remaining != INT64_MAX && options_.sizes_only_fallback_ms > 0 &&
      remaining < options_.sizes_only_fallback_ms) {
    // The admission deadline leaves no budget for DP enumeration with
    // compensation operators: degrade to the sizes-only order and save
    // every remaining millisecond for execution.
    return OptimizeSizesOnly(query, db);
  }
  if (remaining != INT64_MAX) {
    // An expired deadline still gets a 1ms budget: the enumerator notices
    // exhaustion at its first between-wave check and returns the query as
    // written, flagged degraded.
    int64_t ms = remaining > 0 ? remaining : 1;
    if (opts.budget.wall_clock_ms <= 0 || opts.budget.wall_clock_ms > ms) {
      opts.budget.wall_clock_ms = ms;
    }
  }
  return Optimizer(opts).Optimize(query, db);
}

StatusOr<Relation> Optimizer::ExecuteGoverned(const Plan& plan,
                                              const Database& db,
                                              QueryContext* ctx,
                                              ExecStats* stats) const {
  Executor ex(
      Executor::Options{options_.join_preference, options_.num_threads,
                        options_.exec_tuning});
  StatusOr<Relation> result = ex.ExecuteWithContext(plan, db, ctx);
  if (stats != nullptr) *stats = ex.stats();
  return result;
}

StatusOr<Optimizer::Approach> Optimizer::ParseApproach(
    const std::string& name) {
  std::string lower;
  for (char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "eca") return Approach::kECA;
  if (lower == "tba") return Approach::kTBA;
  if (lower == "cba") return Approach::kCBA;
  return Status::InvalidArgument("unknown approach '" + name +
                                 "' (expected eca, tba or cba)");
}

const char* Optimizer::ApproachName(Approach approach) {
  switch (approach) {
    case Approach::kECA:
      return "ECA";
    case Approach::kTBA:
      return "TBA";
    case Approach::kCBA:
      return "CBA";
  }
  return "unknown";
}

PlanPtr Optimizer::Reorder(const Plan& query,
                           const OrderingNode& theta) const {
  return RealizeOrdering(query, theta, policy());
}

Relation Optimizer::Execute(const Plan& plan, const Database& db,
                            ExecStats* stats) const {
  Executor ex(
      Executor::Options{options_.join_preference, options_.num_threads,
                        options_.exec_tuning});
  Relation out = ex.Execute(plan, db);
  if (stats != nullptr) *stats = ex.stats();
  return out;
}

std::string Optimizer::Explain(const Plan& plan, const Database& db,
                               const SqlOptions* sql,
                               const PlanProvenance* provenance) const {
  CostModel cost = CostModel::FromDatabase(db);
  std::string out = "plan:\n" + plan.ToString();
  out += StrFormat("estimated cost: %.1f, estimated rows: %.1f\n",
                   cost.Cost(plan), cost.Cardinality(plan));
  if (provenance != nullptr) out += provenance->ToString();
  if (sql != nullptr) {
    out += "SQL:\n" + PlanToSql(plan, db.BaseSchemas(), *sql) + "\n";
  }
  return out;
}

}  // namespace eca
