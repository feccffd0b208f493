// EXPLAIN ANALYZE: one profile per plan node, rendered with row counts.

#include <gtest/gtest.h>

#include "exec/explain.h"
#include "testing/random_data.h"

namespace eca {
namespace {

TEST(ExplainAnalyzeTest, ProfilesEveryNode) {
  Rng rng(3);
  RandomDataOptions dopts;
  Database db = RandomDatabase(rng, 2, dopts);
  PlanPtr plan = Plan::Comp(
      CompOp::Beta(),
      Plan::Join(JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a", "p01"),
                 Plan::Leaf(0), Plan::Leaf(1)));
  std::vector<NodeProfile> profiles = ProfilePlan(*plan, db);
  ASSERT_EQ(profiles.size(), 4u);  // beta, loj, scan, scan
  EXPECT_EQ(profiles[0].label, "beta");
  EXPECT_EQ(profiles[0].depth, 0);
  EXPECT_EQ(profiles[1].depth, 1);
  // The root's row count equals the executed result's.
  Executor ex;
  EXPECT_EQ(profiles[0].rows, ex.Execute(*plan, db).NumRows());

  std::string rendered = ExplainAnalyze(*plan, db);
  EXPECT_NE(rendered.find("loj[p01]"), std::string::npos);
  EXPECT_NE(rendered.find("rows="), std::string::npos);
}

}  // namespace
}  // namespace eca
