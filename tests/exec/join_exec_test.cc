#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/query_context.h"
#include "testing/random_data.h"

#include "../test_util.h"

namespace eca {
namespace {

// R0: employees (k, dept); R1: departments (k, budget-ish).
Relation LeftRel() {
  return MakeRelation(
      {{0, "k", DataType::kInt64}, {0, "d", DataType::kInt64}},
      {{I(1), I(10)}, {I(2), I(20)}, {I(3), N()}, {I(4), I(40)}});
}

Relation RightRel() {
  return MakeRelation(
      {{1, "k", DataType::kInt64}, {1, "d", DataType::kInt64}},
      {{I(1), I(10)}, {I(2), I(10)}, {I(3), I(30)}, {I(4), N()}});
}

PredRef JoinPred() { return EquiJoin(0, "d", 1, "d", "p01"); }

TEST(JoinExecTest, InnerJoinMatchesOnEquality) {
  Relation out = EvalJoin(JoinOp::kInner, JoinPred(), LeftRel(), RightRel());
  // d=10 on the left matches two right rows; NULLs never match.
  Relation expected = MakeRelation(
      {{0, "k", DataType::kInt64},
       {0, "d", DataType::kInt64},
       {1, "k", DataType::kInt64},
       {1, "d", DataType::kInt64}},
      {{I(1), I(10), I(1), I(10)}, {I(1), I(10), I(2), I(10)}});
  ExpectSameRelation(expected, out);
}

TEST(JoinExecTest, LeftOuterPadsUnmatched) {
  Relation out =
      EvalJoin(JoinOp::kLeftOuter, JoinPred(), LeftRel(), RightRel());
  EXPECT_EQ(out.NumRows(), 2 + 3);  // two matches + three padded left rows
  int padded = 0;
  for (const Tuple& t : out.rows()) {
    if (t[2].is_null() && t[3].is_null()) ++padded;
  }
  EXPECT_EQ(padded, 3);
}

TEST(JoinExecTest, FullOuterPadsBothSides) {
  Relation out =
      EvalJoin(JoinOp::kFullOuter, JoinPred(), LeftRel(), RightRel());
  // 2 matches (left k=1 with right k=1,2) + 3 unmatched left + 2 unmatched
  // right (k=3 and the NULL-keyed k=4).
  EXPECT_EQ(out.NumRows(), 7);
}

TEST(JoinExecTest, SemiAndAntiPartitionTheInput) {
  Relation semi =
      EvalJoin(JoinOp::kLeftSemi, JoinPred(), LeftRel(), RightRel());
  Relation anti =
      EvalJoin(JoinOp::kLeftAnti, JoinPred(), LeftRel(), RightRel());
  EXPECT_EQ(semi.NumRows() + anti.NumRows(), LeftRel().NumRows());
  EXPECT_EQ(semi.NumRows(), 1);  // only k=1 (d=10) has matches
  EXPECT_EQ(semi.schema(), LeftRel().schema());
  // The NULL-d left row is unmatched, hence in the antijoin result.
  bool found_null_row = false;
  for (const Tuple& t : anti.rows()) {
    if (t[1].is_null()) found_null_row = true;
  }
  EXPECT_TRUE(found_null_row);
}

TEST(JoinExecTest, RightVariantsMirror) {
  Relation rsemi =
      EvalJoin(JoinOp::kRightSemi, JoinPred(), LeftRel(), RightRel());
  Relation lsemi_mirror =
      EvalJoin(JoinOp::kLeftSemi, JoinPred(), RightRel(), LeftRel());
  ExpectSameRelation(lsemi_mirror, rsemi);

  Relation router =
      EvalJoin(JoinOp::kRightOuter, JoinPred(), LeftRel(), RightRel());
  Relation louter_mirror =
      EvalJoin(JoinOp::kLeftOuter, JoinPred(), RightRel(), LeftRel());
  ExpectSameRelation(louter_mirror, router);
}

TEST(JoinExecTest, CrossProduct) {
  Relation out =
      EvalJoin(JoinOp::kCross, nullptr, LeftRel(), RightRel());
  EXPECT_EQ(out.NumRows(), LeftRel().NumRows() * RightRel().NumRows());
}

TEST(JoinExecTest, EmptyInputs) {
  Relation empty_left(LeftRel().schema());
  Relation empty_right(RightRel().schema());
  EXPECT_EQ(
      EvalJoin(JoinOp::kInner, JoinPred(), empty_left, RightRel()).NumRows(),
      0);
  EXPECT_EQ(EvalJoin(JoinOp::kLeftOuter, JoinPred(), LeftRel(), empty_right)
                .NumRows(),
            LeftRel().NumRows());
  EXPECT_EQ(EvalJoin(JoinOp::kLeftAnti, JoinPred(), LeftRel(), empty_right)
                .NumRows(),
            LeftRel().NumRows());
  EXPECT_EQ(EvalJoin(JoinOp::kFullOuter, JoinPred(), empty_left, RightRel())
                .NumRows(),
            RightRel().NumRows());
}

TEST(JoinExecTest, NonEquiPredicateFallsBackToNestedLoop) {
  PredRef lt = Predicate::WithLabel(Lt(Col(0, "d"), Col(1, "d")), "lt");
  Relation out = EvalJoin(JoinOp::kInner, lt, LeftRel(), RightRel());
  Relation naive = EvalJoinNaive(JoinOp::kInner, lt, LeftRel(), RightRel());
  ExpectSameRelation(naive, out);
  EXPECT_GT(out.NumRows(), 0);
}

// Parameterized sweep: every join operator, hash and sort-merge paths, over
// randomized inputs, validated against the nested-loop reference.
class JoinAlgoEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Semi/anti joins over one heavily duplicated key: a probe stops as soon
// as its row's fate is decided instead of walking every key-equal build
// row, so comparisons grow with |L|+|R|, not |L|·|R| (400k here before).
// Output stays byte-identical to the naive join at any thread count, in
// memory and on the spilling grace path.
TEST(JoinExecTest, SemiAntiDuplicateKeyProbesStopEarly) {
  auto one_key = [](int rel, int rows) {
    std::vector<Tuple> tuples;
    for (int i = 0; i < rows; ++i) tuples.push_back({I(7), I(i)});
    return MakeRelation({{rel, "k", DataType::kInt64},
                         {rel, "v", DataType::kInt64}},
                        std::move(tuples));
  };
  auto expect_identical = [](const Relation& want, const Relation& got,
                             const std::string& what) {
    ASSERT_EQ(want.schema(), got.schema()) << what;
    ASSERT_EQ(want.NumRows(), got.NumRows()) << what;
    for (size_t r = 0; r < want.rows().size(); ++r) {
      ASSERT_EQ(CompareTuples(want.rows()[r], got.rows()[r]), 0)
          << what << ": first difference at row " << r;
    }
  };
  const PredRef equi = EquiJoin(0, "k", 1, "k", "p01");
  const PredRef residual = Predicate::And(
      {Eq(Col(0, "k"), Col(1, "k")),
       Predicate::Compare(Predicate::CmpOp::kLe, Col(0, "v"), Col(1, "v"))});
  ExecTuning tuning;
  tuning.morsel_rows = 64;
  for (auto [ln, rn] : {std::pair<int, int>{200, 2000}, {2000, 200}}) {
    const Relation left = one_key(0, ln);
    const Relation right = one_key(1, rn);
    for (JoinOp op : {JoinOp::kLeftAnti, JoinOp::kLeftSemi,
                      JoinOp::kRightAnti, JoinOp::kRightSemi}) {
      for (const PredRef& pred : {equi, residual}) {
        const bool bounded = pred == equi;
        const Relation want = EvalJoinNaive(op, pred, left, right);
        const std::string shape = std::string(JoinOpName(op)) + " " +
                                  std::to_string(ln) + "x" +
                                  std::to_string(rn) +
                                  (bounded ? "" : " +residual");
        for (int threads : {1, 4}) {
          ThreadPool pool(threads);
          ExecStats stats;
          Relation got = EvalJoin(op, pred, left, right,
                                  Executor::JoinPreference::kHash, &stats,
                                  &pool, /*ctx=*/nullptr, &tuning);
          const std::string what =
              shape + " threads=" + std::to_string(threads);
          expect_identical(want, got, what);
          if (bounded) {
            EXPECT_LE(stats.probe_comparisons, 4 * (ln + rn)) << what;
          }
        }
        QueryContext ctx(SpillEverythingLimits());
        ExecStats stats;
        Relation spilled = EvalJoin(op, pred, left, right,
                                    Executor::JoinPreference::kHash, &stats,
                                    /*pool=*/nullptr, &ctx);
        ASSERT_FALSE(ctx.HasError()) << ctx.StopStatus().ToString();
        EXPECT_GT(stats.spilled_partitions, 0) << shape;
        expect_identical(want, spilled, shape + " spilled");
        if (bounded) {
          EXPECT_LE(stats.probe_comparisons, 4 * (ln + rn)) << shape;
        }
      }
    }
  }
}

const JoinOp kAllOps[] = {
    JoinOp::kInner,     JoinOp::kLeftOuter, JoinOp::kRightOuter,
    JoinOp::kFullOuter, JoinOp::kLeftSemi,  JoinOp::kRightSemi,
    JoinOp::kLeftAnti,  JoinOp::kRightAnti,
};

TEST_P(JoinAlgoEquivalence, HashAndSortMergeMatchNaive) {
  auto [op_index, seed] = GetParam();
  JoinOp op = kAllOps[op_index];
  Rng rng(static_cast<uint64_t>(seed) * 977 + 13);
  RandomDataOptions opts;
  opts.max_rows = 12;
  Relation left = RandomRelation(rng, 0, opts);
  Relation right = RandomRelation(rng, 1, opts);
  // Mixed predicate: equi conjunct plus residual inequality.
  PredRef pred = Predicate::And(
      {Eq(Col(0, "a"), Col(1, "a")),
       Predicate::Compare(Predicate::CmpOp::kLe, Col(0, "b"), Col(1, "b"))});
  Relation naive = EvalJoinNaive(op, pred, left, right);
  Relation hash = EvalJoin(op, pred, left, right,
                           Executor::JoinPreference::kHash);
  Relation smj = EvalJoin(op, pred, left, right,
                          Executor::JoinPreference::kSortMerge);
  ExpectSameRelation(naive, hash, "hash join vs naive");
  ExpectSameRelation(naive, smj, "sort-merge join vs naive");
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsManySeeds, JoinAlgoEquivalence,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Range(0, 12)));

}  // namespace
}  // namespace eca
