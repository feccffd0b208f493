// EXPLAIN ANALYZE reads its numbers from the executor's own run: one
// profile entry per plan node, in Plan::ToString()'s preorder, whose row
// counts agree with the independent naive interpreter.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "eca/optimizer.h"
#include "exec/explain.h"
#include "exec/query_context.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

#include "../test_util.h"

namespace eca {
namespace {

// Plan nodes with their depth, in preorder.
void Preorder(const Plan& plan, int depth,
              std::vector<std::pair<const Plan*, int>>* out) {
  out->emplace_back(&plan, depth);
  if (plan.kind() == Plan::Kind::kJoin) {
    Preorder(*plan.left(), depth + 1, out);
    Preorder(*plan.right(), depth + 1, out);
  } else if (plan.kind() == Plan::Kind::kComp) {
    Preorder(*plan.child(), depth + 1, out);
  }
}

// Checks `stats.profile` of one run of `plan` that returned `result` and
// took `wall_ms`: every node exactly once in preorder, every materialized
// node's rows equal to ExecuteNaive on its subplan, the root's equal to
// the result, and the own times summing to no more than the wall clock.
// Adds the number of fused nodes to `*fused`.
void ExpectProfileMatchesOracle(const Plan& plan, const Database& db,
                                const ExecStats& stats,
                                const Relation& result, double wall_ms,
                                const std::string& context, int* fused) {
  std::vector<std::pair<const Plan*, int>> nodes;
  Preorder(plan, 0, &nodes);
  ASSERT_EQ(stats.profile.size(), nodes.size()) << context;
  double own_ms = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeProfile& p = stats.profile[i];
    EXPECT_EQ(p.depth, nodes[i].second) << context << " node " << i;
    EXPECT_GE(p.own_ms, 0) << context << " node " << i;
    own_ms += p.own_ms;
    if (p.fused) {
      ++*fused;
      continue;
    }
    EXPECT_EQ(p.rows, ExecuteNaive(*nodes[i].first, db).NumRows())
        << context << " node " << i << ":\n"
        << nodes[i].first->ToString();
  }
  EXPECT_FALSE(stats.profile[0].fused) << context;
  EXPECT_EQ(stats.profile[0].rows, result.NumRows()) << context;
  EXPECT_LE(own_ms, wall_ms) << context;

  // The rendering prints one line per node and a row count at the root.
  std::string rendered = ExplainAnalyze(plan, stats);
  size_t lines = 0;
  for (char c : rendered) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, nodes.size()) << context;
  EXPECT_EQ(rendered.find("(not run)"), std::string::npos) << context;
  EXPECT_NE(rendered.substr(0, rendered.find('\n')).find("rows="),
            std::string::npos)
      << context;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(ExplainAnalyzeTest, ProfileMatchesNaiveOracle) {
  int fused = 0;
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 131 + 17);
    RandomDataOptions dopts;
    dopts.max_rows = 16;
    RandomQueryOptions qopts;
    qopts.num_rels = 4 + seed % 2;
    qopts.allow_full_outer = seed % 3 == 0;
    Database db = RandomDatabase(rng, qopts.num_rels, dopts);
    PlanPtr query = RandomQuery(rng, qopts, dopts);
    const std::string tag = "seed " + std::to_string(seed);

    for (int threads : {1, 4}) {
      Optimizer::Options opts;
      opts.approach = Optimizer::Approach::kECA;
      opts.num_threads = threads;
      Optimizer opt(opts);
      PlanPtr plan = opt.Optimize(*query, db).plan;
      ASSERT_NE(plan, nullptr) << tag;
      const std::string at = tag + " threads=" + std::to_string(threads);

      ExecStats stats;
      auto t0 = std::chrono::steady_clock::now();
      Relation out = opt.Execute(*plan, db, &stats);
      double wall_ms = MsSince(t0);
      ExpectProfileMatchesOracle(*plan, db, stats, out, wall_ms, at,
                                 &fused);

      QueryContext ctx(SpillEverythingLimits());
      ExecStats governed;
      t0 = std::chrono::steady_clock::now();
      StatusOr<Relation> got =
          opt.ExecuteGoverned(*plan, db, &ctx, &governed);
      wall_ms = MsSince(t0);
      ASSERT_TRUE(got.ok()) << at << ": " << got.status().ToString();
      EXPECT_EQ(ctx.tracker()->used(), 0) << at;
      ExpectProfileMatchesOracle(*plan, db, governed, *got, wall_ms,
                                 at + " governed", &fused);
    }
  }
  // The seeds include compensated plans whose chains fuse.
  EXPECT_GT(fused, 0);
}

// A lambda/gamma chain over a join runs inside the join's probe loop: the
// steps below the segment top and the base join are marked fused, the
// top carries the chain's output rows, and the join carries the time.
TEST(ExplainAnalyzeTest, FusedChainAttributesToItsJoin) {
  Rng rng(3);
  Database db = RandomDatabase(rng, 2, RandomDataOptions());
  PlanPtr plan = Plan::Comp(
      CompOp::Gamma(RelSet::Single(1)),
      Plan::Comp(CompOp::Lambda(EquiJoin(0, "b", 1, "b", "q"),
                                RelSet::Single(1)),
                 Plan::Join(JoinOp::kLeftOuter,
                            EquiJoin(0, "a", 1, "a", "p01"), Plan::Leaf(0),
                            Plan::Leaf(1))));
  Executor ex;
  Relation out = ex.Execute(*plan, db);
  const std::vector<NodeProfile>& prof = ex.stats().profile;
  ASSERT_EQ(prof.size(), 5u);  // gamma, lambda, loj, R0, R1
  EXPECT_FALSE(prof[0].fused);
  EXPECT_EQ(prof[0].rows, out.NumRows());
  EXPECT_EQ(prof[0].own_ms, 0);  // the chain's time is the join's
  EXPECT_TRUE(prof[1].fused);
  EXPECT_EQ(prof[1].own_ms, 0);
  EXPECT_TRUE(prof[2].fused);
  EXPECT_GT(prof[2].own_ms, 0);
  EXPECT_FALSE(prof[3].fused);
  EXPECT_EQ(prof[3].rows, db.table(0).NumRows());
  EXPECT_EQ(prof[4].depth, 3);

  std::string rendered = ExplainAnalyze(*plan, ex.stats());
  EXPECT_NE(rendered.find("loj[p01]"), std::string::npos);
  EXPECT_NE(rendered.find("fused"), std::string::npos);

  // A second run replaces the profile rather than appending to it.
  ex.Execute(*plan, db);
  EXPECT_EQ(ex.stats().profile.size(), 5u);
}

}  // namespace
}  // namespace eca
