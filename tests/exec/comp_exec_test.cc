#include <gtest/gtest.h>

#include "common/metrics.h"
#include "exec/executor.h"
#include "exec/query_context.h"
#include "testing/random_data.h"

#include "../test_util.h"

namespace eca {
namespace {

// --------------------------------------------------------------------------
// beta (best-match)
// --------------------------------------------------------------------------

// Example 2.1 from the paper: on R(A,B,C) =
//   (a1, b1, c1)
//   (a1, null, c2)
//   (null, b1, null)   <- dominated by (a1, b1, c1)
//   (a1, null, c1)     <- dominated by (a1, b1, c1)
// and a duplicate of row 1; beta keeps rows 1 and 2.
TEST(BetaTest, PaperExample21) {
  Relation r = MakeRelation(
      {{0, "A", DataType::kString},
       {0, "B", DataType::kString},
       {0, "C", DataType::kString}},
      {{S("a1"), S("b1"), S("c1")},
       {S("a1"), N(), S("c2")},
       {N(), S("b1"), N()},
       {S("a1"), N(), S("c1")},
       {S("a1"), S("b1"), S("c1")}});  // exact duplicate of the first tuple
  Relation expected = MakeRelation(
      {{0, "A", DataType::kString},
       {0, "B", DataType::kString},
       {0, "C", DataType::kString}},
      {{S("a1"), S("b1"), S("c1")}, {S("a1"), N(), S("c2")}});
  ExpectSameRelation(expected, EvalBeta(r));
  ExpectSameRelation(expected, EvalBetaNaive(r));
}

TEST(BetaTest, KeepsIncomparableTuples) {
  // (1, null) and (null, 2) do not dominate each other.
  Relation r = MakeRelation(
      {{0, "A", DataType::kInt64}, {0, "B", DataType::kInt64}},
      {{I(1), N()}, {N(), I(2)}});
  EXPECT_EQ(EvalBeta(r).NumRows(), 2);
}

TEST(BetaTest, AllNullDominatedByAnything) {
  Relation r = MakeRelation(
      {{0, "A", DataType::kInt64}, {0, "B", DataType::kInt64}},
      {{N(), N()}, {I(1), N()}});
  Relation out = EvalBeta(r);
  ASSERT_EQ(out.NumRows(), 1);
  EXPECT_EQ(out.rows()[0][0].AsInt(), 1);
}

TEST(BetaTest, EmptyAndSingleton) {
  Relation empty(Schema({{0, "A", DataType::kInt64}}));
  EXPECT_EQ(EvalBeta(empty).NumRows(), 0);
  Relation single = MakeRelation({{0, "A", DataType::kInt64}}, {{I(3)}});
  EXPECT_EQ(EvalBeta(single).NumRows(), 1);
}

TEST(BetaTest, AllNullTupleIsSpurious) {
  // Minimum-union convention (see EvalBeta documentation): the all-NULL
  // tuple is the identity of the domination order and is always removed.
  Relation r = MakeRelation(
      {{0, "A", DataType::kInt64}, {0, "B", DataType::kInt64}},
      {{N(), N()}, {I(1), N()}});
  Relation out = EvalBeta(r);
  ASSERT_EQ(out.NumRows(), 1);
  EXPECT_EQ(out.rows()[0][0].AsInt(), 1);
  Relation only_null = MakeRelation(
      {{0, "A", DataType::kInt64}, {0, "B", DataType::kInt64}},
      {{N(), N()}});
  EXPECT_EQ(EvalBeta(only_null).NumRows(), 0);
  EXPECT_EQ(EvalBetaNaive(only_null).NumRows(), 0);
}

TEST(BetaTest, IdempotentOnRandomInputs) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    RandomDataOptions opts;
    opts.null_prob = 0.5;
    opts.max_rows = 20;
    opts.data_cols = 3;
    Relation r = RandomRelation(rng, 0, opts);
    Relation once = EvalBeta(r);
    Relation twice = EvalBeta(once);
    ExpectSameRelation(once, twice, "beta should be idempotent (CBA Eq. 3)");
  }
}

// EvalBeta under a one-byte soft threshold: the paper's sort-based
// best-match (Section 6.1), run as EvalBeta's external-sort spill path.
Relation SpilledBeta(const Relation& in) {
  static Counter* const escalations =
      MetricsRegistry::Global().counter("governor.spill_escalate");
  const int64_t before = escalations->value();
  QueryContext ctx(SpillEverythingLimits());
  Relation out = EvalBeta(in, &ctx);
  EXPECT_FALSE(ctx.HasError()) << ctx.StopStatus().ToString();
  if (in.NumRows() > 0) {
    EXPECT_EQ(escalations->value(), before + 1)
        << "EvalBeta did not take the sort-based spill path";
  }
  EXPECT_EQ(ctx.tracker()->used(), 0);
  return out;
}

TEST(BetaTest, SortedImplementationMatchesNaive) {
  // The paper's sort-based best-match (Section 6.1) against the
  // definitional reference, on per-column NULL patterns.
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 9000);
    RandomDataOptions opts;
    opts.null_prob = 0.45;
    opts.domain = 3;
    opts.data_cols = 3;
    opts.max_rows = 24;
    Relation with_key = RandomRelation(rng, 0, opts);
    Schema s({{0, "a", DataType::kInt64},
              {0, "b", DataType::kInt64},
              {0, "c", DataType::kInt64}});
    Relation r(s);
    for (const Tuple& t : with_key.rows()) {
      r.Add({t[1], t[2], t[3]});
    }
    ExpectSameRelation(EvalBetaNaive(r), SpilledBeta(r),
                       "sorted beta vs naive definition");
  }
}

TEST(BetaTest, SortedImplementationMatchesFastOnPlanShapes) {
  for (int seed = 0; seed < 25; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 12000);
    RandomDataOptions opts;
    Database db = RandomDatabase(rng, 2, opts);
    Relation joined = EvalJoin(JoinOp::kLeftOuter,
                               EquiJoin(0, "a", 1, "a", "p"), db.table(0),
                               db.table(1));
    Relation lam = RunLambda(EquiJoin(0, "b", 1, "b", "q"),
                             RelSet::Single(1), joined);
    ExpectSameRelation(EvalBeta(lam), SpilledBeta(lam),
                       "sorted beta vs pattern-grouped beta");
  }
}

TEST(BetaTest, FastPathMatchesNaiveOnRandomInputs) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 1000);
    // Drop the unique key column to stress per-attribute domination:
    // generate, then project away "k" by rebuilding without it.
    RandomDataOptions opts;
    opts.null_prob = 0.45;
    opts.domain = 3;
    opts.data_cols = 3;
    opts.max_rows = 24;
    Relation with_key = RandomRelation(rng, 0, opts);
    Schema s({{0, "a", DataType::kInt64},
              {0, "b", DataType::kInt64},
              {0, "c", DataType::kInt64}});
    Relation r(s);
    for (const Tuple& t : with_key.rows()) {
      r.Add({t[1], t[2], t[3]});
    }
    ExpectSameRelation(EvalBetaNaive(r), EvalBeta(r),
                       "pattern-grouped beta vs naive definition");
  }
}

// --------------------------------------------------------------------------
// lambda (nullification)
// --------------------------------------------------------------------------

TEST(LambdaTest, NullifiesFailingTuplesOnly) {
  Relation r = MakeRelation(
      {{0, "a", DataType::kInt64}, {1, "b", DataType::kInt64}},
      {{I(1), I(1)}, {I(1), I(2)}, {N(), I(3)}});
  PredRef p = Eq(Col(0, "a"), Col(1, "b"));
  // Nullify R1's attributes where a != b (or unknown).
  Relation out = RunLambda(p, RelSet::Single(1), r);
  Relation expected = MakeRelation(
      {{0, "a", DataType::kInt64}, {1, "b", DataType::kInt64}},
      {{I(1), I(1)}, {I(1), N()}, {N(), N()}});
  ExpectSameRelation(expected, out);
}

TEST(LambdaTest, FalsePredicateNullifiesEverything) {
  Relation r = MakeRelation(
      {{0, "a", DataType::kInt64}, {1, "b", DataType::kInt64}},
      {{I(1), I(1)}, {I(2), I(2)}});
  Relation out = RunLambda(Predicate::ConstBool(false),
                           RelSet::FirstN(2), r);
  for (const Tuple& t : out.rows()) {
    EXPECT_TRUE(t[0].is_null());
    EXPECT_TRUE(t[1].is_null());
  }
  EXPECT_EQ(out.NumRows(), 2);
}

TEST(LambdaTest, PreservesRowCount) {
  Rng rng(7);
  RandomDataOptions opts;
  Relation r = RandomRelation(rng, 0, opts);
  Relation out = RunLambda(Gt(Col(0, "a"), Lit(1)), RelSet::Single(0), r);
  EXPECT_EQ(out.NumRows(), r.NumRows());
}

// --------------------------------------------------------------------------
// gamma and gamma* (Example 4.1 of the paper)
// --------------------------------------------------------------------------

// R(A, B, C) with gamma_A selecting the tuple with NULL A, and
// gamma*_{A(B)} nulling A and C on the remaining tuples before best-match.
Relation Example41Input() {
  return MakeRelation({{0, "A", DataType::kString},
                       {1, "B", DataType::kString},
                       {2, "C", DataType::kString}},
                      {{S("a1"), S("b1"), S("c1")},
                       {N(), S("b1"), S("c2")},
                       {S("a2"), S("b2"), S("c3")}});
}

TEST(GammaTest, SelectsAllNullTuples) {
  Relation out = RunGamma(RelSet::Single(0), Example41Input());
  ASSERT_EQ(out.NumRows(), 1);
  EXPECT_TRUE(out.rows()[0][0].is_null());
  EXPECT_EQ(out.rows()[0][1].AsStr(), "b1");
}

TEST(GammaStarTest, PaperExample41) {
  // gamma*_{A(B)}: the NULL-A tuple passes; the other two become
  // (null, b1, null) and (null, b2, null); (null, b1, null) is dominated by
  // the surviving (null, b1, c2) tuple, (null, b2, null) survives.
  Relation out = RunGammaStar(RelSet::Single(0), RelSet::Single(1),
                              Example41Input());
  Relation expected = MakeRelation({{0, "A", DataType::kString},
                                    {1, "B", DataType::kString},
                                    {2, "C", DataType::kString}},
                                   {{N(), S("b1"), S("c2")},
                                    {N(), S("b2"), N()}});
  ExpectSameRelation(expected, out);
}

TEST(GammaStarTest, MatchesDefinitionComposition) {
  // gamma*_{A(B)}(R) must equal beta(gamma_A(R) UNION lambda_false(R - gamma_A(R)))
  // (Equation 8). Verified on random inputs.
  for (int seed = 0; seed < 25; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 55);
    RandomDataOptions opts;
    opts.null_prob = 0.4;
    opts.max_rows = 15;
    Database db = RandomDatabase(rng, 2, opts);
    Relation joined = EvalJoin(JoinOp::kLeftOuter,
                               EquiJoin(0, "a", 1, "a", "p01"),
                               db.table(0), db.table(1));
    RelSet a = RelSet::Single(1);
    RelSet keep = RelSet::Single(0);
    Relation fast = RunGammaStar(a, keep, joined);

    // Composition per Equation 8.
    Relation selected = RunGamma(a, joined);
    Relation rest(joined.schema());
    {
      std::vector<int> acols = joined.schema().ColumnsOf(a);
      for (const Tuple& t : joined.rows()) {
        bool all_null = true;
        for (int c : acols) {
          if (!t[static_cast<size_t>(c)].is_null()) all_null = false;
        }
        if (!all_null) rest.Add(t);
      }
    }
    Relation modified = RunLambda(Predicate::ConstBool(false),
                                  joined.schema().rels().Minus(keep), rest);
    Relation unioned = selected;
    for (const Tuple& t : modified.rows()) unioned.Add(t);
    Relation expected = EvalBetaNaive(unioned);
    ExpectSameRelation(expected, fast, "gamma* vs Equation 8 composition");
  }
}

// --------------------------------------------------------------------------
// projection & canonicalization
// --------------------------------------------------------------------------

TEST(ProjectTest, RelationLevelProjection) {
  Relation r = MakeRelation(
      {{0, "a", DataType::kInt64}, {1, "b", DataType::kInt64}},
      {{I(1), I(2)}, {I(3), I(4)}});
  Relation out = EvalProject(RelSet::Single(1), r);
  EXPECT_EQ(out.schema().NumColumns(), 1);
  EXPECT_EQ(out.NumRows(), 2);
  EXPECT_EQ(out.rows()[0][0].AsInt(), 2);
}

TEST(ProjectTest, KeepsDuplicates) {
  Relation r = MakeRelation(
      {{0, "a", DataType::kInt64}, {1, "b", DataType::kInt64}},
      {{I(1), I(2)}, {I(9), I(2)}});
  Relation out = EvalProject(RelSet::Single(1), r);
  EXPECT_EQ(out.NumRows(), 2);  // bag projection: no dedup
}

TEST(CanonicalizeTest, ReordersColumns) {
  Relation r = MakeRelation(
      {{1, "b", DataType::kInt64}, {0, "a", DataType::kInt64}},
      {{I(2), I(1)}});
  Relation out = CanonicalizeColumnOrder(r);
  EXPECT_EQ(out.schema().column(0).rel_id, 0);
  EXPECT_EQ(out.rows()[0][0].AsInt(), 1);
  EXPECT_EQ(out.rows()[0][1].AsInt(), 2);
}

// --------------------------------------------------------------------------
// Executor end-to-end on a small plan
// --------------------------------------------------------------------------

TEST(ExecutorTest, AntijoinViaOuterjoinGammaPi) {
  // Equation 9: R0 laj R1 == pi_{R0}(gamma_{R1}(R0 loj R1)).
  Rng rng(42);
  RandomDataOptions opts;
  Database db = RandomDatabase(rng, 2, opts);
  PredRef p = EquiJoin(0, "a", 1, "a", "p01");

  PlanPtr anti = Plan::Join(JoinOp::kLeftAnti, p, Plan::Leaf(0), Plan::Leaf(1));
  PlanPtr rewritten = Plan::Comp(
      CompOp::Project(RelSet::Single(0)),
      Plan::Comp(CompOp::Gamma(RelSet::Single(1)),
                 Plan::Join(JoinOp::kLeftOuter, p, Plan::Leaf(0),
                            Plan::Leaf(1))));
  ExpectPlansEquivalent(*anti, *rewritten, db);
}

TEST(ExecutorTest, StatsAccumulate) {
  Rng rng(5);
  Database db = RandomDatabase(rng, 2, RandomDataOptions());
  PlanPtr plan =
      Plan::Comp(CompOp::Beta(),
                 Plan::Join(JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a"),
                            Plan::Leaf(0), Plan::Leaf(1)));
  Executor ex;
  ex.Execute(*plan, db);
  EXPECT_EQ(ex.stats().join_nodes, 1);
  EXPECT_EQ(ex.stats().comp_nodes, 1);
}

}  // namespace
}  // namespace eca
