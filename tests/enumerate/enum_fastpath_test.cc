// Tests for the enumerator fast paths: the swap-chain cycle guard, the
// hashed (fingerprinted) memo with stored-full-key collision verification,
// branch-and-bound pruning and the subtree cost memo. The unifying
// contract: none of them may change the chosen plan — the fast search
// returns exactly what the plain exhaustive loop returns.

#include <gtest/gtest.h>

#include <string>

#include "enumerate/enumerator.h"
#include "exec/executor.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

#include "../test_util.h"

namespace eca {
namespace {

// A 3-relation chain whose ({R0}, {R1, R2}) decomposition needs one SwapUp
// to position p01 at the root.
PlanPtr ChainQuery() {
  return Plan::Join(
      JoinOp::kInner, EquiJoin(1, "b", 2, "b", "p12"),
      Plan::Join(JoinOp::kInner, EquiJoin(0, "a", 1, "a", "p01"),
                 Plan::Leaf(0), Plan::Leaf(1)),
      Plan::Leaf(2));
}

TEST(EnumFastPathTest, SwapChainGuardTripsAreCountedNotDegraded) {
  Rng rng(7);
  Database db = RandomDatabase(rng, 3, RandomDataOptions());
  PlanPtr query = ChainQuery();
  CostModel cost = CostModel::FromDatabase(db);

  EnumeratorOptions defaults;
  TopDownEnumerator plain(&cost, defaults);
  auto untripped = plain.Optimize(*query);
  EXPECT_EQ(untripped.stats.swap_chain_guard_trips, 0);

  // A zero-length chain allowance abandons every decomposition that needs
  // a swap. That must be *counted*, not silently swallowed like the seed
  // enumerator's hardcoded guard, and it is not a budget degradation: the
  // search over the remaining decompositions stays exhaustive.
  EnumeratorOptions strangled;
  strangled.max_swap_chain = 0;
  TopDownEnumerator e(&cost, strangled);
  auto result = e.Optimize(*query);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_GT(result.stats.swap_chain_guard_trips, 0);
  EXPECT_FALSE(result.stats.degraded);
  EXPECT_EQ(result.stats.trigger, BudgetTrigger::kNone);
  ExpectPlansEquivalent(*query, *result.plan, db, "guard-tripped search");
}

TEST(EnumFastPathTest, MemoCapSoftTriggerUnderHashedMemo) {
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 131 + 7);
    RandomDataOptions dopts;
    RandomQueryOptions qopts;
    qopts.num_rels = 5;
    Database db = RandomDatabase(rng, qopts.num_rels, dopts);
    PlanPtr query = RandomQuery(rng, qopts, dopts);
    CostModel cost = CostModel::FromDatabase(db);

    EnumeratorOptions unlimited;
    TopDownEnumerator full(&cost, unlimited);
    auto best = full.Optimize(*query);

    EnumeratorOptions capped = unlimited;
    capped.budget.max_memo_entries = 1;
    TopDownEnumerator e(&cost, capped);
    auto result = e.Optimize(*query);
    ASSERT_NE(result.plan, nullptr);
    EXPECT_LE(result.stats.cache_entries, 1);
    if (best.stats.cache_entries > 1) {
      // The cap actually bit: soft trigger reported, but the search stayed
      // exhaustive — same optimum, it just lost reuse opportunities.
      EXPECT_TRUE(result.stats.degraded);
      EXPECT_EQ(result.stats.trigger, BudgetTrigger::kMemoEntries);
    }
    EXPECT_EQ(result.cost, best.cost) << "seed " << seed;
    ExpectPlansEquivalent(*query, *result.plan, db,
                          "memo-capped search seed " + std::to_string(seed));
  }
}

TEST(EnumFastPathTest, ForcedSignatureCollisionsRejectedByFullKey) {
  // collide_signatures degrades every memo signature to one value, so
  // every distinct external-d-edge key vector for a relation set lands in
  // the same hash bucket. The stored full key must reject those probes
  // (counted as sig_collisions) and the results must not change — this is
  // the soundness story for keying the memo on a 64-bit signature.
  int64_t collisions = 0;
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 31 + 17);
    RandomDataOptions dopts;
    RandomQueryOptions qopts;
    qopts.num_rels = 4 + seed % 2;
    Database db = RandomDatabase(rng, qopts.num_rels, dopts);
    PlanPtr query = RandomQuery(rng, qopts, dopts);
    CostModel cost = CostModel::FromDatabase(db);

    EnumeratorOptions honest;
    TopDownEnumerator h(&cost, honest);
    auto expected = h.Optimize(*query);

    EnumeratorOptions colliding;
    colliding.collide_signatures = true;
    TopDownEnumerator c(&cost, colliding);
    auto result = c.Optimize(*query);
    ASSERT_NE(result.plan, nullptr);
    EXPECT_EQ(result.cost, expected.cost) << "seed " << seed;
    EXPECT_EQ(result.plan->ToString(), expected.plan->ToString())
        << "seed " << seed;
    collisions += result.stats.sig_collisions;
    ExpectPlansEquivalent(*query, *result.plan, db,
                          "colliding-signature search seed " +
                              std::to_string(seed));
  }
  // The sweep contains relation sets with several distinct external-d-edge
  // signatures (the same population the d-edge reuse tests draw from), so
  // forcing them into one bucket must produce verified-and-rejected probes.
  EXPECT_GT(collisions, 0);
}

}  // namespace
}  // namespace eca
