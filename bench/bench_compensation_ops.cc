// Section 6.2: measured cost profiles of the four compensation operators.
// lambda and gamma are single scans (linear); beta and gamma* are
// best-match operations (n log n via null-pattern grouping / sorting).
// Every operator runs through the code the executor runs: lambda, gamma
// and gamma*'s modify half as a one-step FusedCompChain, beta as EvalBeta
// (in memory, or its sort-based spill path under a one-byte soft limit).
// Built on google-benchmark.

#include <benchmark/benchmark.h>

#include "exec/executor.h"
#include "exec/fused_comp.h"
#include "exec/query_context.h"
#include "testing/random_data.h"

namespace eca {
namespace {

// An outerjoin-shaped input: R0 loj R1 materialized, so tuples carry the
// relation-block NULL patterns the compensation operators see in practice.
Relation MakeInput(int64_t rows) {
  Rng rng(42);
  RandomDataOptions opts;
  opts.min_rows = static_cast<int>(rows);
  opts.max_rows = static_cast<int>(rows);
  opts.domain = std::max<int64_t>(4, rows / 4);
  opts.empty_prob = 0;
  Relation left = RandomRelation(rng, 0, opts);
  Relation right = RandomRelation(rng, 1, opts);
  return EvalJoin(JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a", "p"), left,
                  right);
}

Relation RunChain(const FusedCompChain& chain, const Relation& in) {
  return ApplyFusedChain(chain, in, /*pool=*/nullptr, /*ctx=*/nullptr,
                         /*tuning=*/nullptr);
}

// The input of the beta benches: nullified copies make best-match
// non-trivial.
Relation MakeBetaInput(int64_t rows) {
  Relation joined = MakeInput(rows);
  FusedCompChain lambda;
  lambda.AddLambda(EquiJoin(0, "b", 1, "b", "q"), RelSet::Single(1),
                   joined.schema());
  return RunChain(lambda, joined);
}

void BM_Lambda(benchmark::State& state) {
  Relation in = MakeInput(state.range(0));
  FusedCompChain chain;
  chain.AddLambda(EquiJoin(0, "b", 1, "b", "q"), RelSet::Single(1),
                  in.schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunChain(chain, in));
  }
  state.SetComplexityN(in.NumRows());
}
BENCHMARK(BM_Lambda)->Range(1 << 8, 1 << 14)->Complexity(benchmark::oN);

void BM_Gamma(benchmark::State& state) {
  Relation in = MakeInput(state.range(0));
  FusedCompChain chain;
  chain.AddGamma(RelSet::Single(1), in.schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunChain(chain, in));
  }
  state.SetComplexityN(in.NumRows());
}
BENCHMARK(BM_Gamma)->Range(1 << 8, 1 << 14)->Complexity(benchmark::oN);

void BM_Beta(benchmark::State& state) {
  Relation in = MakeBetaInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalBeta(in));
  }
  state.SetComplexityN(in.NumRows());
}
BENCHMARK(BM_Beta)->Range(1 << 8, 1 << 14)->Complexity(benchmark::oNLogN);

void BM_GammaStar(benchmark::State& state) {
  Relation in = MakeInput(state.range(0));
  FusedCompChain chain;
  chain.AddGammaStarModify(RelSet::Single(1), RelSet::Single(0), in.schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalBeta(RunChain(chain, in)));
  }
  state.SetComplexityN(in.NumRows());
}
BENCHMARK(BM_GammaStar)->Range(1 << 8, 1 << 14)->Complexity(benchmark::oNLogN);

// The paper's sort-based best-match (Section 6.1): EvalBeta escalated to
// its external-sort path by a one-byte soft threshold.
void BM_BetaSpilled(benchmark::State& state) {
  Relation in = MakeBetaInput(state.range(0));
  QueryContext::Limits limits;
  limits.mem_soft_bytes = 1;
  for (auto _ : state) {
    QueryContext ctx(limits);
    benchmark::DoNotOptimize(EvalBeta(in, &ctx));
  }
  state.SetComplexityN(in.NumRows());
}
BENCHMARK(BM_BetaSpilled)
    ->Range(1 << 8, 1 << 14)
    ->Complexity(benchmark::oNLogN);

void BM_BetaNaiveReference(benchmark::State& state) {
  Relation in = MakeBetaInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalBetaNaive(in));
  }
  state.SetComplexityN(in.NumRows());
}
BENCHMARK(BM_BetaNaiveReference)
    ->Range(1 << 8, 1 << 11)
    ->Complexity(benchmark::oNSquared);

}  // namespace
}  // namespace eca

BENCHMARK_MAIN();
