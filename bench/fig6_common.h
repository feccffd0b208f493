#ifndef ECA_BENCH_FIG6_COMMON_H_
#define ECA_BENCH_FIG6_COMMON_H_

// Shared harness for regenerating Figure 6 (and Appendix F): executes the
// PostgreSQL-style plan (best plan reachable with valid transformations
// only, i.e. the TBA policy) against the ECA plan (the compensated
// reordering that evaluates Supplier x Partsupp first) over the f12
// selectivity sweep, at three database scales standing in for the paper's
// 1 / 10 / 100 GB TPC-H instances.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "enumerate/enumerator.h"
#include "enumerate/realize.h"
#include "enumerate/subtree.h"
#include "exec/executor.h"
#include "tpch/paper_queries.h"

namespace eca {
namespace bench {

inline double TimePlanMs(const Plan& plan, const Database& db,
                         Executor::JoinPreference pref, int iters) {
  double best = 1e300;
  Executor::Options opts;
  opts.join_preference = pref;
  for (int i = 0; i < iters; ++i) {
    Executor ex(opts);
    auto t0 = std::chrono::steady_clock::now();
    Relation out = ex.Execute(plan, db);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
    (void)out;
  }
  return best;
}

// Builds the ordering tree (((R1,R2),R4...),R3) that evaluates the
// supplier-partsupp join first — the plan shape Figure 5 derives for each
// query via Table 3's rules.
inline OrderingNodePtr EcaTargetOrdering(int num_rels) {
  auto leaf = [](int id) {
    auto n = std::make_shared<OrderingNode>();
    n->rels = RelSet::Single(id);
    return OrderingNodePtr(n);
  };
  auto pair = [](OrderingNodePtr l, OrderingNodePtr r) {
    auto n = std::make_shared<OrderingNode>();
    n->rels = l->rels.Union(r->rels);
    if (l->rels.Min() <= r->rels.Min()) {
      n->left = std::move(l);
      n->right = std::move(r);
    } else {
      n->left = std::move(r);
      n->right = std::move(l);
    }
    return OrderingNodePtr(n);
  };
  // (R1,R2) first; then lineitem, then orders; part (the antijoin pruning
  // side) last.
  OrderingNodePtr acc = pair(leaf(kSupplier), leaf(kPartsupp));
  if (num_rels >= 4) acc = pair(acc, leaf(kLineitem));
  if (num_rels >= 5) acc = pair(acc, leaf(kOrders));
  return pair(acc, leaf(kPart));
}

struct SweepConfig {
  const char* figure;           // e.g. "Figure 6(a)-(c)"
  int which_query;              // 1, 2, 3
  Executor::JoinPreference pref = Executor::JoinPreference::kHash;
  int iters = 3;
  std::vector<double> scale_factors = {0.002, 0.006, 0.02};
  std::vector<const char*> scale_labels = {"1GB-analog", "10GB-analog",
                                           "100GB-analog"};
  std::vector<double> nus = {0, 5, 50, 200, 1000, 5000};
};

inline int RunFig6Sweep(const SweepConfig& cfg) {
  std::printf("==== %s: query Q%d, plans P^pg (TBA-valid transforms) vs "
              "P^ECA (compensated reordering) ====\n",
              cfg.figure, cfg.which_query);
  std::printf("(engine: %s joins; best of %d runs)\n\n",
              cfg.pref == Executor::JoinPreference::kHash ? "hash"
                                                          : "sort-merge",
              cfg.iters);
  double overall_max_speedup = 0;
  for (size_t si = 0; si < cfg.scale_factors.size(); ++si) {
    double sf = cfg.scale_factors[si];
    TpchData data = GenerateTpch(TpchScale::OfSF(sf), 42 + si);
    double max_speedup = 0;
    std::printf("-- %s (SF %.3f: %lld supplier, %lld partsupp, %lld "
                "lineitem rows)\n",
                cfg.scale_labels[si], sf,
                static_cast<long long>(data.supplier.NumRows()),
                static_cast<long long>(data.partsupp.NumRows()),
                static_cast<long long>(data.lineitem.NumRows()));
    std::printf("%10s %8s %12s %12s %9s   %s\n", "nu", "f12", "t_PG(ms)",
                "t_ECA(ms)", "speedup", "cost-based choice");
    bool printed_plans = false;
    for (double nu : cfg.nus) {
      PaperQuery q = cfg.which_query == 1   ? BuildQ1(data, nu)
                     : cfg.which_query == 2 ? BuildQ2(data, nu)
                                            : BuildQ3(data, nu);
      double f12 = MeasureF12(q.db, nu);

      // P^pg: best plan using valid transformations only.
      CostModel cost = CostModel::FromDatabase(q.db);
      EnumeratorOptions tba_opts;
      tba_opts.policy = SwapPolicy::kTBA;
      tba_opts.reuse_subplans = true;
      TopDownEnumerator tba(&cost, tba_opts);
      auto pg = tba.Optimize(*q.plan);

      // P^ECA: the compensated reordering from Figure 5.
      OrderingNodePtr theta = EcaTargetOrdering(q.plan->leaves().Count());
      PlanPtr eca = RealizeOrdering(*q.plan, *theta, SwapPolicy::kECA);
      if (eca == nullptr) {
        std::printf("!! ECA reordering unexpectedly infeasible\n");
        return 1;
      }
      if (!printed_plans) {
        std::printf("P^pg plan:\n%sP^ECA plan:\n%s\n",
                    pg.plan->ToInlineString().append("\n").c_str(),
                    eca->ToInlineString().append("\n").c_str());
        printed_plans = true;
      }
      double t_pg = TimePlanMs(*pg.plan, q.db, cfg.pref, cfg.iters);
      double t_eca = TimePlanMs(*eca, q.db, cfg.pref, cfg.iters);
      double speedup = t_eca > 0 ? t_pg / t_eca : 0;
      if (speedup > max_speedup) max_speedup = speedup;
      // What the cost-based ECA optimizer itself would pick at this nu.
      EnumeratorOptions eca_opts;
      TopDownEnumerator eca_enum(&cost, eca_opts);
      auto eca_choice = eca_enum.Optimize(*q.plan);
      const std::string pick = OrderingKey(*eca_choice.plan);
      std::printf("%10.0f %8.3f %12.2f %12.2f %8.2fx   %s\n", nu, f12,
                  t_pg, t_eca, speedup,
                  pick == OrderingKey(*eca)       ? "same as P^ECA"
                  : pick == OrderingKey(*pg.plan) ? "same as P^pg"
                                                  : "other");
    }
    std::printf("max speedup at %s: %.2fx\n\n", cfg.scale_labels[si],
                max_speedup);
    if (max_speedup > overall_max_speedup) overall_max_speedup = max_speedup;
  }
  std::printf("overall max speedup: %.2fx\n", overall_max_speedup);
  return 0;
}

}  // namespace bench
}  // namespace eca

#endif  // ECA_BENCH_FIG6_COMMON_H_
