// Golden parallel-vs-sequential tests: the partitioned executor must return
// BYTE-IDENTICAL results (same rows, same order, same schema) for every
// thread count — not just the same multiset. SameMultiset would hide
// ordering regressions that break downstream golden files and the
// determinism guarantee documented in docs/performance.md.

#include <gtest/gtest.h>

#include <string>

#include "algebra/comp_op.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/query_context.h"
#include "testing/random_data.h"

#include "../test_util.h"

namespace eca {
namespace {

// Exact equality, row order included.
void ExpectIdentical(const Relation& expected, const Relation& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.schema(), actual.schema()) << context;
  ASSERT_EQ(expected.NumRows(), actual.NumRows()) << context;
  for (int64_t r = 0; r < expected.NumRows(); ++r) {
    const Tuple& e = expected.rows()[static_cast<size_t>(r)];
    const Tuple& a = actual.rows()[static_cast<size_t>(r)];
    for (size_t c = 0; c < e.size(); ++c) {
      ASSERT_EQ(e[c].is_null(), a[c].is_null())
          << context << " row " << r << " col " << c;
      ASSERT_EQ(e[c].ToString(), a[c].ToString())
          << context << " row " << r << " col " << c;
    }
  }
}

const JoinOp kAllOps[] = {
    JoinOp::kInner,     JoinOp::kLeftOuter, JoinOp::kRightOuter,
    JoinOp::kFullOuter, JoinOp::kLeftSemi,  JoinOp::kRightSemi,
    JoinOp::kLeftAnti,  JoinOp::kRightAnti,
};

// Every join operator, on inputs with NULL keys and a residual inequality
// conjunct, at several thread counts (covering "more threads than rows"
// and non-power-of-two pools).
class ParallelJoinGolden
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelJoinGolden, ByteIdenticalToSequential) {
  auto [op_index, seed] = GetParam();
  JoinOp op = kAllOps[op_index];
  Rng rng(static_cast<uint64_t>(seed) * 6271 + 5);
  RandomDataOptions opts;
  opts.max_rows = 40;
  opts.null_prob = 0.3;  // plenty of NULL join keys
  Relation left = RandomRelation(rng, 0, opts);
  Relation right = RandomRelation(rng, 1, opts);
  PredRef pred = Predicate::And(
      {Eq(Col(0, "a"), Col(1, "a")),
       Predicate::Compare(Predicate::CmpOp::kLe, Col(0, "b"), Col(1, "b"))});

  Relation sequential = EvalJoin(op, pred, left, right);
  for (int threads : {2, 3, 4}) {
    ThreadPool pool(threads);
    ExecStats stats;
    Relation parallel = EvalJoin(op, pred, left, right,
                                 Executor::JoinPreference::kHash, &stats,
                                 &pool);
    ExpectIdentical(sequential, parallel,
                    std::string(JoinOpName(op)) + " threads=" +
                        std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsManySeeds, ParallelJoinGolden,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Range(0, 8)));

// A full-outer result has the block-NULL structure the compensation
// operators care about: matched rows, left-padded rows, right-padded rows.
Relation CompInput(uint64_t seed) {
  Rng rng(seed * 31 + 7);
  RandomDataOptions opts;
  opts.max_rows = 60;
  opts.null_prob = 0.25;
  Relation left = RandomRelation(rng, 0, opts);
  Relation right = RandomRelation(rng, 1, opts);
  return EvalJoin(JoinOp::kFullOuter, EquiJoin(0, "a", 1, "a", "p01"), left,
                  right);
}

// lambda, gamma and gamma* as the executor runs them (a one-step fused
// chain, plus EvalBeta for gamma*): 4 threads and a governed context must
// reproduce the sequential run byte for byte.
TEST(ParallelCompGolden, LambdaByteIdentical) {
  PredRef pred = Predicate::Compare(Predicate::CmpOp::kLe, Col(0, "b"),
                                    Col(1, "b"));
  ThreadPool pool(4);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Relation in = CompInput(seed);
    Relation sequential = RunLambda(pred, RelSet::Single(1), in);
    ExpectIdentical(sequential, RunLambda(pred, RelSet::Single(1), in, &pool),
                    "lambda seed " + std::to_string(seed));
    QueryContext ctx;
    ExpectIdentical(sequential,
                    RunLambda(pred, RelSet::Single(1), in, &pool, &ctx),
                    "governed lambda seed " + std::to_string(seed));
  }
}

TEST(ParallelCompGolden, GammaByteIdentical) {
  ThreadPool pool(4);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Relation in = CompInput(seed);
    Relation sequential = RunGamma(RelSet::Single(1), in);
    ExpectIdentical(sequential, RunGamma(RelSet::Single(1), in, &pool),
                    "gamma seed " + std::to_string(seed));
    QueryContext ctx;
    ExpectIdentical(sequential, RunGamma(RelSet::Single(1), in, &pool, &ctx),
                    "governed gamma seed " + std::to_string(seed));
  }
}

TEST(ParallelCompGolden, GammaStarByteIdentical) {
  RelSet keep = RelSet::Single(0);
  ThreadPool pool(4);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Relation in = CompInput(seed);
    Relation sequential = RunGammaStar(RelSet::Single(1), keep, in);
    ExpectIdentical(sequential,
                    RunGammaStar(RelSet::Single(1), keep, in, &pool),
                    "gamma* seed " + std::to_string(seed));
    QueryContext ctx;
    ExpectIdentical(sequential,
                    RunGammaStar(RelSet::Single(1), keep, in, &pool, &ctx),
                    "governed gamma* seed " + std::to_string(seed));
  }
}

// Whole plans through the Executor facade: joins plus all four compensation
// operators (beta is sequential by design but must compose byte-identically
// with the parallel stages feeding it).
TEST(ParallelExecutorGolden, CompensatedPlanByteIdentical) {
  Rng rng(2026);
  RandomDataOptions opts;
  opts.max_rows = 50;
  opts.null_prob = 0.25;
  opts.empty_prob = 0;
  Database db = RandomDatabase(rng, 3, opts);
  PlanPtr plan = Plan::Comp(
      CompOp::Beta(),
      Plan::Comp(
          CompOp::Lambda(EquiJoin(0, "a", 1, "a", "p01"), RelSet::Single(1)),
          Plan::Join(
              JoinOp::kFullOuter, EquiJoin(1, "b", 2, "b", "p12"),
              Plan::Join(JoinOp::kFullOuter, EquiJoin(0, "a", 1, "a", "p01"),
                         Plan::Leaf(0), Plan::Leaf(1)),
              Plan::Leaf(2))));
  PlanPtr gstar = Plan::Comp(
      CompOp::GammaStar(RelSet::Single(2), RelSet::FirstN(2)),
      Plan::Comp(CompOp::Gamma(RelSet::Single(2)),
                 Plan::Join(JoinOp::kFullOuter, EquiJoin(1, "b", 2, "b", "p12"),
                            Plan::Join(JoinOp::kLeftOuter,
                                       EquiJoin(0, "a", 1, "a", "p01"),
                                       Plan::Leaf(0), Plan::Leaf(1)),
                            Plan::Leaf(2))));
  for (const PlanPtr* p : {&plan, &gstar}) {
    Executor sequential;
    Relation expect = sequential.Execute(**p, db);
    for (int threads : {2, 4}) {
      Executor::Options eopts;
      eopts.num_threads = threads;
      Executor parallel(eopts);
      Relation got = parallel.Execute(**p, db);
      ExpectIdentical(expect, got,
                      (*p)->ToInlineString() + " threads=" +
                          std::to_string(threads));
    }
  }
}

// The hash join must build its table on the smaller input for inner/semi/
// anti joins (the historical build-on-right choice costs O(|bigger|) memory
// for nothing), while outer variants keep their side.
TEST(ParallelExecutor, BuildsHashTableOnSmallerSide) {
  RandomDataOptions opts;
  opts.null_prob = 0;  // non-NULL keys so build counts are exact
  opts.empty_prob = 0;
  Rng rng(99);
  opts.min_rows = 3;
  opts.max_rows = 3;
  Relation small = RandomRelation(rng, 0, opts);
  opts.min_rows = 80;
  opts.max_rows = 80;
  Relation big = RandomRelation(rng, 1, opts);
  PredRef pred = EquiJoin(0, "k", 1, "k", "p01");

  for (JoinOp op : {JoinOp::kInner, JoinOp::kLeftSemi, JoinOp::kRightSemi,
                    JoinOp::kLeftAnti, JoinOp::kRightAnti}) {
    ExecStats stats;
    EvalJoin(op, pred, small, big, Executor::JoinPreference::kHash, &stats);
    EXPECT_EQ(stats.hash_build_rows, 3) << JoinOpName(op) << " small-left";
    stats.Reset();
    EvalJoin(op, pred, big, small, Executor::JoinPreference::kHash, &stats);
    EXPECT_EQ(stats.hash_build_rows, 3) << JoinOpName(op) << " small-right";
  }
  // Outer joins keep the historical build-on-right regardless of size:
  // their padding logic is side-specific.
  ExecStats stats;
  EvalJoin(JoinOp::kLeftOuter, pred, big, small,
           Executor::JoinPreference::kHash, &stats);
  EXPECT_EQ(stats.hash_build_rows, 3);
  stats.Reset();
  EvalJoin(JoinOp::kLeftOuter, pred, small, big,
           Executor::JoinPreference::kHash, &stats);
  EXPECT_EQ(stats.hash_build_rows, 80);
}

TEST(ParallelExecutor, RecordsHashBuildRows) {
  RandomDataOptions opts;
  opts.min_rows = 200;
  opts.max_rows = 200;
  opts.null_prob = 0;
  opts.empty_prob = 0;
  Rng rng(7);
  Relation left = RandomRelation(rng, 0, opts);
  Relation right = RandomRelation(rng, 1, opts);
  ThreadPool pool(4);
  ExecStats stats;
  EvalJoin(JoinOp::kInner, EquiJoin(0, "a", 1, "a", "p01"), left, right,
           Executor::JoinPreference::kHash, &stats, &pool);
  EXPECT_EQ(stats.hash_build_rows, 200);
}

}  // namespace
}  // namespace eca
