// Where does a compensated plan spend its time? This example runs
// EXPLAIN ANALYZE on both plans of the paper's Q1 and shows the per-
// operator row counts and timings: the direct plan pays two antijoin
// probes over all of Partsupp, while the ECA plan pays one outerjoin pass
// plus the best-match (gamma*) sort. It ends with the first rows of the
// query's result.
//
// Usage: profile_plans [scale_factor] [nu]

#include <cstdio>
#include <cstdlib>

#include "eca/optimizer.h"
#include "enumerate/join_order.h"
#include "exec/explain.h"
#include "tpch/paper_queries.h"

using namespace eca;

int main(int argc, char** argv) {
  double sf = argc > 1 ? std::atof(argv[1]) : 0.01;
  double nu = argc > 2 ? std::atof(argv[2]) : 1000.0;
  TpchData data = GenerateTpch(TpchScale::OfSF(sf), 11);
  PaperQuery q = BuildQ1(data, nu);
  std::printf("Q1 at SF %.3f, nu=%.0f (f12 = %.3f)\n\n", sf, nu,
              MeasureF12(q.db, nu));

  Optimizer eca;
  ExecStats stats;
  Relation result = eca.Execute(*q.plan, q.db, &stats);
  std::printf("==== EXPLAIN ANALYZE: direct plan ====\n%s\n",
              ExplainAnalyze(*q.plan, stats).c_str());

  PlanPtr reordered;
  for (const OrderingNodePtr& theta : AllJoinOrderingTrees(
           q.plan->leaves(), PredicateRefSets(*q.plan))) {
    if (theta->Key() == "((R0,R1),R2)") reordered = eca.Reorder(*q.plan, *theta);
  }
  if (reordered == nullptr) {
    std::printf("reordering unavailable\n");
    return 1;
  }
  eca.Execute(*reordered, q.db, &stats);
  std::printf("==== EXPLAIN ANALYZE: ECA plan ====\n%s\n",
              ExplainAnalyze(*reordered, stats).c_str());

  std::printf("first 3 of %lld result rows:\n%s",
              static_cast<long long>(result.NumRows()),
              result.ToString(3).c_str());
  return 0;
}
