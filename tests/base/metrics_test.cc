// Tests for the metrics registry (common/metrics.h): counter/histogram
// semantics, snapshot diffing, concurrent increments, and — the contract
// the observability layer rests on — that a registry diff around one
// Executor::Execute / TopDownEnumerator::Optimize call reproduces the
// call's ExecStats / EnumeratorStats exactly.

#include "common/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include "cost/cost_model.h"
#include "enumerate/enumerator.h"
#include "exec/executor.h"
#include "gtest/gtest.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

namespace eca {
namespace {

int64_t CounterDelta(const MetricsSnapshot& diff, const std::string& name) {
  auto it = diff.counters.find(name);
  return it == diff.counters.end() ? 0 : it->second;
}

TEST(CounterTest, IncrementAndAdd) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  // Bucket 0 holds value 0; bucket k >= 1 holds [2^(k-1), 2^k).
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(1023), 10);
  EXPECT_EQ(Histogram::BucketFor(1024), 11);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4);
  // 48 buckets cover the whole non-negative range with no overflow
  // bucket; INT64_MAX still lands inside.
  EXPECT_LT(Histogram::BucketFor(INT64_MAX), Histogram::kNumBuckets);

  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(-7);  // negative samples clamp to 0 rather than corrupting
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 6);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.counter("test.registry.stable");
  Counter* b = reg.counter("test.registry.stable");
  EXPECT_EQ(a, b);
  Histogram* ha = reg.histogram("test.registry.stable_hist");
  Histogram* hb = reg.histogram("test.registry.stable_hist");
  EXPECT_EQ(ha, hb);
}

TEST(MetricsRegistryTest, SnapshotDiffIsolatesActivity) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.counter("test.diff.counter");
  Histogram* h = reg.histogram("test.diff.hist");
  c->Add(5);  // pre-existing activity the diff must exclude
  h->Record(100);

  MetricsSnapshot before = reg.Snapshot();
  c->Add(7);
  h->Record(3);
  h->Record(4);
  MetricsSnapshot diff = reg.Snapshot().DiffSince(before);

  EXPECT_EQ(CounterDelta(diff, "test.diff.counter"), 7);
  auto it = diff.histograms.find("test.diff.hist");
  ASSERT_NE(it, diff.histograms.end());
  EXPECT_EQ(it->second.count, 2);
  EXPECT_EQ(it->second.sum, 7);
  EXPECT_DOUBLE_EQ(it->second.Mean(), 3.5);

  // A metric untouched between the snapshots diffs to zero.
  Counter* quiet = reg.counter("test.diff.quiet");
  quiet->Add(9);
  MetricsSnapshot base2 = reg.Snapshot();
  EXPECT_EQ(CounterDelta(reg.Snapshot().DiffSince(base2), "test.diff.quiet"),
            0);
}

TEST(MetricsRegistryTest, TableAndJsonRenderActivity) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.counter("test.render.counter")->Add(3);
  reg.histogram("test.render.hist")->Record(8);
  MetricsSnapshot snap = reg.Snapshot();

  std::string table = snap.ToTable();
  EXPECT_NE(table.find("test.render.counter"), std::string::npos);
  EXPECT_NE(table.find("test.render.hist"), std::string::npos);

  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.render.counter\":3"), std::string::npos);

  // Zero-valued entries are elided from the table (the per-approach CLI
  // delta would otherwise drown in the full catalog).
  MetricsSnapshot empty_diff = snap.DiffSince(snap);
  EXPECT_EQ(empty_diff.ToTable().find("test.render.counter"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 100000;
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.counter("test.concurrent.counter");
  Histogram* h = reg.histogram("test.concurrent.hist");
  MetricsSnapshot before = reg.Snapshot();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c, h] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        c->Increment();
        if (i % 1000 == 0) h->Record(i);
      }
    });
  }
  for (auto& w : workers) w.join();

  MetricsSnapshot diff = reg.Snapshot().DiffSince(before);
  EXPECT_EQ(CounterDelta(diff, "test.concurrent.counter"),
            int64_t{kThreads} * kIncrementsPerThread);
  auto it = diff.histograms.find("test.concurrent.hist");
  ASSERT_NE(it, diff.histograms.end());
  EXPECT_EQ(it->second.count, kThreads * (kIncrementsPerThread / 1000));
}

// The executor publishes its per-call ExecStats as exec.* deltas at the
// end of Execute, so a registry diff around one call must reproduce the
// stats — the contract that lets --metrics replace ExecStats printouts.
TEST(RegistryConsistencyTest, ExecutorDeltaMatchesExecStats) {
  Rng rng(20260807);
  RandomDataOptions dopts;
  dopts.min_rows = 32;
  dopts.max_rows = 64;
  dopts.empty_prob = 0;
  RandomQueryOptions qopts;
  qopts.num_rels = 3;
  Database db = RandomDatabase(rng, qopts.num_rels, dopts);
  PlanPtr query = RandomQuery(rng, qopts, dopts);
  ASSERT_NE(query, nullptr);

  Executor ex;
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Relation result = ex.Execute(*query, db);
  MetricsSnapshot diff = MetricsRegistry::Global().Snapshot().DiffSince(before);

  const ExecStats& s = ex.stats();
  EXPECT_GT(s.rows_produced, 0);
  EXPECT_EQ(CounterDelta(diff, "exec.rows_produced"), s.rows_produced);
  EXPECT_EQ(CounterDelta(diff, "exec.probe_comparisons"),
            s.probe_comparisons);
  EXPECT_EQ(CounterDelta(diff, "exec.join_nodes"), s.join_nodes);
  EXPECT_EQ(CounterDelta(diff, "exec.comp_nodes"), s.comp_nodes);
  EXPECT_EQ(CounterDelta(diff, "exec.hash_build_rows"), s.hash_build_rows);
  EXPECT_EQ(CounterDelta(diff, "exec.spilled_partitions"),
            s.spilled_partitions);
  EXPECT_EQ(CounterDelta(diff, "exec.spill_bytes"), s.spill_bytes);
}

// Same contract on the search side: TopDownEnumerator::Optimize publishes
// its EnumeratorStats as enum.* deltas.
TEST(RegistryConsistencyTest, EnumeratorDeltaMatchesEnumeratorStats) {
  Rng rng(424242);
  RandomDataOptions dopts;
  dopts.max_rows = 16;
  RandomQueryOptions qopts;
  qopts.num_rels = 4;
  Database db = RandomDatabase(rng, qopts.num_rels, dopts);
  PlanPtr query = RandomQuery(rng, qopts, dopts);
  ASSERT_NE(query, nullptr);

  CostModel cost = CostModel::FromDatabase(db);
  TopDownEnumerator enumerator(&cost, EnumeratorOptions{});
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  TopDownEnumerator::Result result = enumerator.Optimize(*query);
  MetricsSnapshot diff = MetricsRegistry::Global().Snapshot().DiffSince(before);

  ASSERT_NE(result.plan, nullptr);
  const EnumeratorStats& s = result.stats;
  EXPECT_GT(s.subplan_calls, 0);
  EXPECT_EQ(CounterDelta(diff, "enum.subplan_calls"), s.subplan_calls);
  EXPECT_EQ(CounterDelta(diff, "enum.pairs_considered"), s.pairs_considered);
  EXPECT_EQ(CounterDelta(diff, "enum.swaps_attempted"), s.swaps_attempted);
  EXPECT_EQ(CounterDelta(diff, "enum.swaps_failed"), s.swaps_failed);
  EXPECT_EQ(CounterDelta(diff, "enum.plans_completed"), s.plans_completed);
  EXPECT_EQ(CounterDelta(diff, "enum.memo_hits"), s.reuses);
  EXPECT_EQ(CounterDelta(diff, "enum.memo_entries"), s.cache_entries);
  EXPECT_EQ(CounterDelta(diff, "enum.cost_evals"), s.cost_evals);
  EXPECT_EQ(CounterDelta(diff, "enum.cloned_nodes"), s.cloned_nodes);
  EXPECT_EQ(CounterDelta(diff, "enum.swap_chain_guard_trips"),
            s.swap_chain_guard_trips);
  EXPECT_EQ(CounterDelta(diff, "enum.sig_collisions"), s.sig_collisions);
  EXPECT_EQ(CounterDelta(diff, "enum.degraded_runs"), s.degraded ? 1 : 0);
}

// Without a plan cache the search's local memo is the only subplan memo,
// and memo.probes / memo.hits must still count its probes: a hit is
// exactly a reuse.
TEST(RegistryConsistencyTest, MemoProbeCountersWithoutPlanCache) {
  Rng rng(515151);
  RandomDataOptions dopts;
  dopts.max_rows = 16;
  RandomQueryOptions qopts;
  qopts.num_rels = 5;
  Database db = RandomDatabase(rng, qopts.num_rels, dopts);
  PlanPtr query = RandomQuery(rng, qopts, dopts);
  ASSERT_NE(query, nullptr);

  CostModel cost = CostModel::FromDatabase(db);
  TopDownEnumerator enumerator(&cost, EnumeratorOptions{});
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  TopDownEnumerator::Result result = enumerator.Optimize(*query);
  MetricsSnapshot diff = MetricsRegistry::Global().Snapshot().DiffSince(before);

  ASSERT_NE(result.plan, nullptr);
  EXPECT_GT(result.stats.reuses, 0);
  EXPECT_GT(CounterDelta(diff, "memo.probes"), 0);
  EXPECT_EQ(CounterDelta(diff, "memo.hits"), result.stats.reuses);
}

}  // namespace
}  // namespace eca
