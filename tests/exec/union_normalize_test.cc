// Tests for the outer-union / minimum-union operators and predicate
// normalization.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "cost/histogram.h"
#include "expr/pred_normalize.h"
#include "testing/random_data.h"

#include "../test_util.h"

namespace eca {
namespace {

// --------------------------------------------------------------------------
// Outer union / minimum union
// --------------------------------------------------------------------------

TEST(OuterUnionTest, AlignsSharedAndPadsDisjointColumns) {
  Relation a = MakeRelation(
      {{0, "x", DataType::kInt64}, {1, "y", DataType::kInt64}},
      {{I(1), I(10)}});
  Relation b = MakeRelation(
      {{0, "x", DataType::kInt64}, {2, "z", DataType::kInt64}},
      {{I(2), I(20)}});
  Relation u = EvalOuterUnion(a, b);
  // Union schema: R0.x, R1.y, R2.z.
  ASSERT_EQ(u.schema().NumColumns(), 3);
  ASSERT_EQ(u.NumRows(), 2);
  Relation expected = MakeRelation({{0, "x", DataType::kInt64},
                                    {1, "y", DataType::kInt64},
                                    {2, "z", DataType::kInt64}},
                                   {{I(1), I(10), N()}, {I(2), N(), I(20)}});
  ExpectSameRelation(expected, u);
}

TEST(OuterUnionTest, IdenticalSchemasConcatenate) {
  Relation a = MakeRelation({{0, "x", DataType::kInt64}}, {{I(1)}});
  Relation b = MakeRelation({{0, "x", DataType::kInt64}}, {{I(2)}, {I(1)}});
  Relation u = EvalOuterUnion(a, b);
  EXPECT_EQ(u.NumRows(), 3);  // bag semantics: duplicates preserved
}

TEST(MinUnionTest, RemovesDominatedAcrossInputs) {
  // Minimum union: a padded tuple dominated by the other input's tuple
  // disappears — the behaviour gamma* relies on (Equation 8).
  Relation a = MakeRelation(
      {{0, "x", DataType::kInt64}, {1, "y", DataType::kInt64}},
      {{I(1), I(10)}});
  Relation b = MakeRelation({{0, "x", DataType::kInt64}}, {{I(1)}, {I(2)}});
  Relation m = EvalMinUnion(a, b);
  // b's (1) pads to (1, null), dominated by a's (1, 10); b's (2) survives.
  Relation expected = MakeRelation(
      {{0, "x", DataType::kInt64}, {1, "y", DataType::kInt64}},
      {{I(1), I(10)}, {I(2), N()}});
  ExpectSameRelation(expected, m);
}

TEST(MinUnionTest, GammaStarViaMinUnion) {
  // gamma*_{A(B)}(R) == MinUnion(gamma_A(R), lambda_false-modified rest):
  // the executable form of Equation 8.
  for (int seed = 0; seed < 15; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 321);
    RandomDataOptions opts;
    Database db = RandomDatabase(rng, 2, opts);
    Relation joined = EvalJoin(JoinOp::kLeftOuter,
                               EquiJoin(0, "a", 1, "a", "p"), db.table(0),
                               db.table(1));
    RelSet a = RelSet::Single(1), keep = RelSet::Single(0);
    Relation direct = RunGammaStar(a, keep, joined);

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
    ExpectSameRelation(direct, EvalMinUnion(selected, modified),
                       "Equation 8 via minimum union");
  }
}

// --------------------------------------------------------------------------
// Predicate normalization
// --------------------------------------------------------------------------

TEST(PredNormalizeTest, FlattensAndDedupes) {
  PredRef a = Eq(Col(0, "x"), Col(1, "x"));
  PredRef b = Gt(Col(0, "y"), Lit(3));
  PredRef nested = Predicate::And(
      {Predicate::And({a, b}), a, Predicate::ConstBool(true)});
  PredRef norm = NormalizePredicate(nested);
  ASSERT_EQ(norm->kind(), Predicate::Kind::kAnd);
  EXPECT_EQ(norm->children().size(), 2u);  // a, b — duplicate a dropped
}

TEST(PredNormalizeTest, ConstantFolding) {
  PredRef a = Eq(Col(0, "x"), Col(1, "x"));
  PredRef and_false =
      Predicate::And({a, Predicate::ConstBool(false)});
  EXPECT_EQ(NormalizePredicate(and_false)->kind(),
            Predicate::Kind::kConstBool);
  EXPECT_FALSE(NormalizePredicate(and_false)->const_bool());

  PredRef or_true = Predicate::Or({a, Predicate::ConstBool(true)});
  EXPECT_TRUE(NormalizePredicate(or_true)->const_bool());

  PredRef only_true = Predicate::And(
      {Predicate::ConstBool(true), Predicate::ConstBool(true)});
  EXPECT_TRUE(NormalizePredicate(only_true)->const_bool());
}

TEST(PredNormalizeTest, DoubleNegation) {
  PredRef a = Eq(Col(0, "x"), Col(1, "x"));
  PredRef nn = Predicate::Not(Predicate::Not(a));
  PredRef norm = NormalizePredicate(nn);
  EXPECT_EQ(norm->kind(), Predicate::Kind::kCompare);
}

TEST(PredNormalizeTest, PreservesSemanticsRandomized) {
  Schema s({{0, "a", DataType::kInt64},
            {0, "b", DataType::kInt64},
            {1, "a", DataType::kInt64}});
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 71 + 5);
    // Random nested predicate over the schema.
    std::function<PredRef(int)> gen = [&](int depth) -> PredRef {
      if (depth == 0 || rng.Bernoulli(0.4)) {
        switch (rng.Uniform(0, 2)) {
          case 0:
            return Eq(Col(0, "a"), Col(1, "a"));
          case 1:
            return Gt(Col(0, "b"), Lit(rng.Uniform(0, 3)));
          default:
            return Predicate::ConstBool(rng.Bernoulli(0.5));
        }
      }
      switch (rng.Uniform(0, 2)) {
        case 0:
          return Predicate::And({gen(depth - 1), gen(depth - 1)});
        case 1:
          return Predicate::Or({gen(depth - 1), gen(depth - 1)});
        default:
          return Predicate::Not(gen(depth - 1));
      }
    };
    PredRef p = gen(4);
    PredRef norm = NormalizePredicate(p);
    for (int trial = 0; trial < 30; ++trial) {
      Tuple t;
      for (int c = 0; c < 3; ++c) {
        t.push_back(rng.Bernoulli(0.25)
                        ? Value::Null(DataType::kInt64)
                        : Value::Int(rng.Uniform(0, 3)));
      }
      EXPECT_EQ(p->Eval(s, t), norm->Eval(s, t))
          << p->ToString() << " vs " << norm->ToString();
    }
  }
}

}  // namespace
}  // namespace eca

namespace eca {
namespace {

TEST(EdgeCases, SingleValueHistogram) {
  Relation r(Schema({{0, "v", DataType::kInt64}}));
  for (int i = 0; i < 10; ++i) r.Add({Value::Int(7)});
  EquiDepthHistogram h = EquiDepthHistogram::Build(r, 0);
  EXPECT_EQ(h.distinct(), 1);
  EXPECT_DOUBLE_EQ(h.FractionBelow(7.0), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionBelow(8.0), 1.0);
  EXPECT_DOUBLE_EQ(h.FractionEquals(7.0), 1.0);
}

}  // namespace
}  // namespace eca
