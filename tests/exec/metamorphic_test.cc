// Metamorphic invariants over the execution operators: relationships that
// must hold between operator outputs on ANY input, independent of the
// specific data.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "testing/random_data.h"

#include "../test_util.h"

namespace eca {
namespace {

class Metamorphic : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    Rng rng(static_cast<uint64_t>(GetParam()) * 5 + 113);
    RandomDataOptions opts;
    opts.max_rows = 15;
    opts.null_prob = 0.25;
    left_ = RandomRelation(rng, 0, opts);
    right_ = RandomRelation(rng, 1, opts);
    pred_ = RandomJoinPredicate(rng, RelSet::Single(0), RelSet::Single(1),
                                opts, "p");
  }
  Relation left_, right_;
  PredRef pred_;
};

TEST_P(Metamorphic, SemiPlusAntiPartitionsInput) {
  Relation semi = EvalJoin(JoinOp::kLeftSemi, pred_, left_, right_);
  Relation anti = EvalJoin(JoinOp::kLeftAnti, pred_, left_, right_);
  EXPECT_EQ(semi.NumRows() + anti.NumRows(), left_.NumRows());
  // Their union is the left input.
  Relation both = semi;
  for (const Tuple& t : anti.rows()) both.Add(t);
  ExpectSameRelation(left_, both);
}

TEST_P(Metamorphic, OuterJoinDecomposition) {
  Relation inner = EvalJoin(JoinOp::kInner, pred_, left_, right_);
  Relation louter = EvalJoin(JoinOp::kLeftOuter, pred_, left_, right_);
  Relation router = EvalJoin(JoinOp::kRightOuter, pred_, left_, right_);
  Relation fouter = EvalJoin(JoinOp::kFullOuter, pred_, left_, right_);
  Relation anti_l = EvalJoin(JoinOp::kLeftAnti, pred_, left_, right_);
  Relation anti_r = EvalJoin(JoinOp::kRightAnti, pred_, left_, right_);
  // |louter| = |inner| + |left antijoin| etc.
  EXPECT_EQ(louter.NumRows(), inner.NumRows() + anti_l.NumRows());
  EXPECT_EQ(router.NumRows(), inner.NumRows() + anti_r.NumRows());
  EXPECT_EQ(fouter.NumRows(),
            inner.NumRows() + anti_l.NumRows() + anti_r.NumRows());
}

TEST_P(Metamorphic, JoinCommutes) {
  for (JoinOp op : {JoinOp::kInner, JoinOp::kFullOuter}) {
    Relation ab = EvalJoin(op, pred_, left_, right_);
    Relation ba = EvalJoin(op, pred_, right_, left_);
    ExpectSameRelation(CanonicalizeColumnOrder(ab),
                       CanonicalizeColumnOrder(ba), JoinOpName(op));
  }
  // loj(A,B) == roj(B,A).
  Relation loj = EvalJoin(JoinOp::kLeftOuter, pred_, left_, right_);
  Relation roj = EvalJoin(JoinOp::kRightOuter, pred_, right_, left_);
  ExpectSameRelation(CanonicalizeColumnOrder(loj),
                     CanonicalizeColumnOrder(roj));
}

TEST_P(Metamorphic, CompensationOperatorInvariants) {
  Relation joined = EvalJoin(JoinOp::kLeftOuter, pred_, left_, right_);
  // lambda preserves cardinality.
  Relation lam = RunLambda(pred_, RelSet::Single(1), joined);
  EXPECT_EQ(lam.NumRows(), joined.NumRows());
  // beta never grows and is idempotent.
  Relation beta = EvalBeta(lam);
  EXPECT_LE(beta.NumRows(), lam.NumRows());
  ExpectSameRelation(beta, EvalBeta(beta));
  // gamma selects a subset.
  Relation gamma = RunGamma(RelSet::Single(1), joined);
  EXPECT_LE(gamma.NumRows(), joined.NumRows());
  // gamma* keeps at most the input cardinality and at least the gamma part.
  Relation gs = RunGammaStar(RelSet::Single(1), RelSet::Single(0), joined);
  EXPECT_LE(gs.NumRows(), joined.NumRows());
  EXPECT_GE(gs.NumRows(), gamma.NumRows());
  // Every gamma-selected tuple survives gamma* unchanged.
  Relation gs_gamma = RunGamma(RelSet::Single(1), gs);
  for (const Tuple& t : gamma.rows()) {
    bool found = false;
    for (const Tuple& u : gs_gamma.rows()) {
      if (CompareTuples(t, u) == 0) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_P(Metamorphic, BetaOnlyRemovesDominatedOrDuplicated) {
  Relation joined = EvalJoin(JoinOp::kLeftOuter, pred_, left_, right_);
  Relation lam = RunLambda(pred_, RelSet::Single(1), joined);
  Relation beta = EvalBeta(lam);
  // beta's output is a sub-multiset of its input.
  std::vector<Tuple> in_rows = lam.rows(), out_rows = beta.rows();
  auto less = [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  };
  std::sort(in_rows.begin(), in_rows.end(), less);
  std::sort(out_rows.begin(), out_rows.end(), less);
  EXPECT_TRUE(std::includes(in_rows.begin(), in_rows.end(),
                            out_rows.begin(), out_rows.end(), less));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Metamorphic, ::testing::Range(0, 15));

}  // namespace
}  // namespace eca
