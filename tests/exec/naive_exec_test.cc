// ExecuteNaive, the reference interpreter written from the paper's
// definitions, must agree with the executor on every plan — including
// compensated plans coming out of the rewrite layer — and, being
// independent of the executor, must catch executor bugs that a
// plan-vs-query differential on the executor alone cancels out.

#include <gtest/gtest.h>

#include "eca/optimizer.h"
#include "enumerate/enumerator.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

#include "../test_util.h"

namespace eca {
namespace {

class NaiveOracle : public ::testing::TestWithParam<int> {};

TEST_P(NaiveOracle, MatchesExecutorOnQueries) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 733 + 1);
  RandomDataOptions dopts;
  RandomQueryOptions qopts;
  qopts.num_rels = 3 + seed % 3;
  qopts.allow_full_outer = seed % 4 == 0;
  Database db = RandomDatabase(rng, qopts.num_rels, dopts);
  PlanPtr query = RandomQuery(rng, qopts, dopts);

  Executor ex;
  ExpectSameRelation(ExecuteNaive(*query, db), ex.Execute(*query, db),
                     "executor vs naive");
}

TEST_P(NaiveOracle, MatchesOnCompensatedPlans) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 11 + 3);
  RandomDataOptions dopts;
  RandomQueryOptions qopts;
  qopts.num_rels = 4;
  Database db = RandomDatabase(rng, qopts.num_rels, dopts);
  PlanPtr query = RandomQuery(rng, qopts, dopts);
  CostModel cost = CostModel::FromDatabase(db);
  EnumeratorOptions opts;
  TopDownEnumerator e(&cost, opts);
  auto result = e.Optimize(*query);
  ASSERT_NE(result.plan, nullptr);

  Executor ex;
  Relation expected = ExecuteNaive(*query, db);
  ExpectSameRelation(expected, ex.Execute(*result.plan, db),
                     "executor on a compensated plan:\n" +
                         result.plan->ToString());
  ExpectSameRelation(expected, ExecuteNaive(*result.plan, db),
                     "naive on a compensated plan:\n" +
                         result.plan->ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaiveOracle, ::testing::Range(0, 20));

TEST(NaiveOracleTest, LambdaOverGammaMatchesExecutor) {
  Rng rng(17);
  RandomDataOptions dopts;
  Database db = RandomDatabase(rng, 2, dopts);
  PredRef p = EquiJoin(0, "a", 1, "a", "p01");
  PlanPtr plan = Plan::Comp(
      CompOp::Lambda(p, RelSet::Single(1)),
      Plan::Comp(CompOp::Gamma(RelSet::Single(1)),
                 Plan::Join(JoinOp::kLeftOuter, p, Plan::Leaf(0),
                            Plan::Leaf(1))));
  Executor ex;
  ExpectSameRelation(ExecuteNaive(*plan, db), ex.Execute(*plan, db));
}

TEST(NaiveOracleTest, GammaStarMatchesExecutor) {
  for (uint64_t seed : {29u, 31u, 37u}) {
    Rng rng(seed);
    RandomDataOptions dopts;
    Database db = RandomDatabase(rng, 2, dopts);
    PlanPtr plan = Plan::Comp(
        CompOp::GammaStar(RelSet::Single(1), RelSet::Single(0)),
        Plan::Join(JoinOp::kFullOuter, EquiJoin(0, "a", 1, "a", "p01"),
                   Plan::Leaf(0), Plan::Leaf(1)));
    Executor ex;
    ExpectSameRelation(ExecuteNaive(*plan, db), ex.Execute(*plan, db),
                       "seed " + std::to_string(seed));
  }
}

TEST(NaiveOracleTest, SemiAndAntiMatchExecutor) {
  Rng rng(23);
  RandomDataOptions dopts;
  Database db = RandomDatabase(rng, 2, dopts);
  for (JoinOp op : {JoinOp::kLeftSemi, JoinOp::kLeftAnti}) {
    PlanPtr plan = Plan::Join(op, EquiJoin(0, "a", 1, "a"), Plan::Leaf(0),
                              Plan::Leaf(1));
    Executor ex;
    ExpectSameRelation(ExecuteNaive(*plan, db), ex.Execute(*plan, db),
                       JoinOpName(op));
  }
}

// A plan-independent executor bug — here, a hash path that loses the
// outer rows whose join key is NULL — corrupts the query's result and
// the optimized plan's result the same way. The old oracle (optimized
// plan vs query, both on the executor) accepts the pair; the naive
// oracle rejects it.
TEST(NaiveOracleTest, CatchesPlanIndependentExecutorBug) {
  auto rel = [](int id, std::vector<Tuple> rows) {
    return MakeRelation({{id, "k", DataType::kInt64},
                         {id, "a", DataType::kInt64},
                         {id, "b", DataType::kInt64}},
                        std::move(rows));
  };
  Database db;
  db.Add(rel(0, {{I(1), I(1), I(10)}, {I(2), N(), I(20)}, {I(3), I(2), N()},
                 {I(4), N(), I(40)}}));
  db.Add(rel(1, {{I(1), I(1), I(5)}, {I(2), N(), I(6)}, {I(3), I(2), I(7)}}));
  db.Add(rel(2, {{I(1), I(5), I(1)}, {I(2), I(7), N()}}));
  PlanPtr query = Plan::Join(
      JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a", "p01"), Plan::Leaf(0),
      Plan::Join(JoinOp::kInner, EquiJoin(1, "b", 2, "a", "p12"),
                 Plan::Leaf(1), Plan::Leaf(2)));
  Optimizer opt;
  Optimizer::Optimized best = opt.Optimize(*query, db);
  ASSERT_NE(best.plan, nullptr);

  // The injected bug: drop every row whose R0.a join key is NULL.
  auto lose_null_keys = [](const Relation& in) {
    Relation canon = CanonicalizeColumnOrder(in);
    int col = canon.schema().FindColumn(0, "a");
    Relation out(canon.schema());
    for (const Tuple& t : canon.rows()) {
      if (!t[static_cast<size_t>(col)].is_null()) out.Add(t);
    }
    return out;
  };
  Executor ex;
  Relation buggy_query = lose_null_keys(ex.Execute(*query, db));
  Relation buggy_plan = lose_null_keys(ex.Execute(*best.plan, db));
  ASSERT_LT(buggy_plan.NumRows(),
            CanonicalizeColumnOrder(ex.Execute(*best.plan, db)).NumRows())
      << "the corruption must drop rows";

  EXPECT_TRUE(SameMultiset(buggy_query, buggy_plan))
      << "plan-vs-query on one executor cannot see the bug";
  EXPECT_FALSE(SameMultiset(CanonicalizeColumnOrder(ExecuteNaive(*query, db)),
                            buggy_plan))
      << "the naive oracle must reject the corrupted result";
}

}  // namespace
}  // namespace eca
