// Section 5 / Appendix C: top-down plan enumeration with cost-based choice
// and reuse of optimal subplans. Compares the basic enumerator (Algorithms
// 1-3, no reuse) against the enhanced one (Algorithms 4-6, d-edge-guarded
// subplan reuse) on random queries of growing size — the paper's argument
// for the top-down design is precisely that reuse is possible despite
// compensation operators.
//
// Usage: bench_enumeration [queries_per_size] [max_rels]

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "enumerate/enumerator.h"
#include "enumerate/exhaustive.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

namespace eca {
namespace {

void Run(int queries, int max_rels) {
  std::printf("==== Plan enumeration: exhaustive (CBA-style, Section 5.4) "
              "vs top-down basic (Alg 1-3) vs enhanced reuse (Alg 4-6) "
              "====\n");
  std::printf("%5s %8s | %10s | %12s %10s %10s | %12s %10s %10s %8s %8s\n",
              "rels", "queries", "exh ms", "basic calls", "swaps",
              "time(ms)", "enh calls", "swaps", "time(ms)", "reuses",
              "speedup");
  for (int n = 3; n <= max_rels; ++n) {
    EnumeratorStats basic_total, enh_total;
    double basic_ms = 0, enh_ms = 0, exhaustive_ms = 0;
    for (int qi = 0; qi < queries; ++qi) {
      Rng rng(static_cast<uint64_t>(n) * 1009 +
              static_cast<uint64_t>(qi) * 13);
      RandomDataOptions dopts;
      RandomQueryOptions qopts;
      qopts.num_rels = n;
      Database db = RandomDatabase(rng, n, dopts);
      PlanPtr query = RandomQuery(rng, qopts, dopts);
      CostModel cost = CostModel::FromDatabase(db);
      {
        auto t0 = std::chrono::steady_clock::now();
        ExhaustiveResult ex = ExhaustiveEnumerate(*query, cost);
        auto t1 = std::chrono::steady_clock::now();
        exhaustive_ms +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        (void)ex;
      }
      for (int mode = 0; mode < 2; ++mode) {
        EnumeratorOptions opts;
        opts.reuse_subplans = mode == 1;
        TopDownEnumerator e(&cost, opts);
        auto t0 = std::chrono::steady_clock::now();
        auto r = e.Optimize(*query);
        auto t1 = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        EnumeratorStats& acc = mode == 0 ? basic_total : enh_total;
        acc.subplan_calls += r.stats.subplan_calls;
        acc.swaps_attempted += r.stats.swaps_attempted;
        acc.reuses += r.stats.reuses;
        (mode == 0 ? basic_ms : enh_ms) += ms;
      }
    }
    std::printf("%5d %8d | %10.1f | %12lld %10lld %10.1f | %12lld %10lld "
                "%10.1f %8lld %7.2fx\n",
                n, queries, exhaustive_ms,
                static_cast<long long>(basic_total.subplan_calls),
                static_cast<long long>(basic_total.swaps_attempted),
                basic_ms,
                static_cast<long long>(enh_total.subplan_calls),
                static_cast<long long>(enh_total.swaps_attempted), enh_ms,
                static_cast<long long>(enh_total.reuses),
                enh_ms > 0 ? basic_ms / enh_ms : 0.0);
  }
}

}  // namespace
}  // namespace eca

int main(int argc, char** argv) {
  int queries = argc > 1 ? std::atoi(argv[1]) : 10;
  int max_rels = argc > 2 ? std::atoi(argv[2]) : 6;
  eca::Run(queries, max_rels);
  return 0;
}
