// SharedMemo unit and concurrency tests (enumerate/shared_memo.h): the
// published-entry lifecycle the cross-query plan cache depends on —
// full-key verification under forced map-key collisions, one entry per
// full key, epoch invalidation, LRU eviction on publish, and
// MemoryTracker balance. The multi-thread stresses run under the TSan CI
// lane; every one has a deterministic final state (the cheapest published
// cost wins a probe regardless of publish interleaving, and the byte
// budget holds after every publish).

#include "enumerate/shared_memo.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "gtest/gtest.h"
#include "rewrite/rules.h"

namespace eca {
namespace {

MemoExtKey ExtKey(const std::string& src, const std::string& a,
                  const std::string& b) {
  MemoExtKey key;
  key.src = src;
  key.a = a;
  key.b = b;
  key.src_hash = PredNameInterner::NameHash(src);
  key.a_hash = PredNameInterner::NameHash(a);
  key.b_hash = PredNameInterner::NameHash(b);
  return key;
}

std::shared_ptr<const MemoPayload> MakePayload(
    RelSet s, double cost, uint64_t epoch = 0, int64_t bytes = 64,
    std::vector<MemoExtKey> ext_keys = {}) {
  auto payload = std::make_shared<MemoPayload>();
  payload->query_fp = 0x1234;
  payload->s = s;
  payload->policy = 0;
  payload->epoch = epoch;
  payload->ext_keys = std::move(ext_keys);
  payload->subtree = Plan::Leaf(0);
  payload->cost = cost;
  payload->bytes = bytes;
  return payload;
}

// SplitMix64 finalizer: seeds the stress tests' keys and costs.
uint64_t Mix(uint64_t h) {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

MemoProbe ProbeFor(const MemoPayload& payload, uint64_t map_key) {
  MemoProbe probe;
  probe.map_key = map_key;
  probe.query_fp = payload.query_fp;
  probe.s = payload.s;
  probe.policy = payload.policy;
  probe.epoch = payload.epoch;
  probe.ext_keys = &payload.ext_keys;
  return probe;
}

TEST(SharedMemoTest, PublishFindRoundTrip) {
  SharedMemo memo;
  auto payload = MakePayload(RelSet::Single(1), 10.0);
  EXPECT_EQ(memo.Publish(7, payload), MemoPublishResult::kStoredNew);
  MemoProbeStats stats;
  std::shared_ptr<const MemoPayload> hit =
      memo.Find(ProbeFor(*payload, 7), &stats);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, 10.0);
  EXPECT_EQ(stats.probes, 1);
  EXPECT_EQ(stats.hits, 1);
  // A different map key misses.
  EXPECT_EQ(memo.Find(ProbeFor(*payload, 8), &stats), nullptr);
  // The returned reference outlives the entry itself.
  memo.Clear();
  EXPECT_EQ(hit->cost, 10.0);
}

TEST(SharedMemoTest, CheapestWinsAndDuplicatesSkip) {
  SharedMemo memo;
  auto expensive = MakePayload(RelSet::Single(1), 10.0);
  auto cheaper = MakePayload(RelSet::Single(1), 5.0);
  EXPECT_EQ(memo.Publish(7, expensive), MemoPublishResult::kStoredNew);
  // Publishing something no cheaper than the stored entry is a no-op...
  EXPECT_EQ(memo.Publish(7, MakePayload(RelSet::Single(1), 12.0)),
            MemoPublishResult::kSkippedDuplicate);
  EXPECT_EQ(memo.Publish(7, MakePayload(RelSet::Single(1), 10.0)),
            MemoPublishResult::kSkippedDuplicate);
  // ...while a strictly cheaper one replaces it: one entry per full key.
  EXPECT_EQ(memo.Publish(7, cheaper), MemoPublishResult::kStoredImproved);
  EXPECT_EQ(memo.entry_count(), 1);
  EXPECT_EQ(memo.used_bytes(), cheaper->bytes);
  MemoProbeStats stats;
  std::shared_ptr<const MemoPayload> hit =
      memo.Find(ProbeFor(*cheaper, 7), &stats);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, 5.0);
}

// Forced map-key collision: two entries share the 64-bit map key but
// differ in their external d-edge signature. The stored-full-key check
// must keep them apart — a graft on a hash collision would be the exact
// unsoundness Theorem 5.4's guard exists to prevent — and each rejected
// candidate is counted as a sig collision.
TEST(SharedMemoTest, FullKeyVerificationUnderForcedCollision) {
  SharedMemo memo;
  auto with_a = MakePayload(RelSet::Single(1), 10.0, /*epoch=*/0,
                            /*bytes=*/64, {ExtKey("p0", "x", "y")});
  auto with_b = MakePayload(RelSet::Single(1), 5.0, /*epoch=*/0,
                            /*bytes=*/64, {ExtKey("p1", "x", "z")});
  constexpr uint64_t kSharedMapKey = 42;
  EXPECT_EQ(memo.Publish(kSharedMapKey, with_a),
            MemoPublishResult::kStoredNew);
  EXPECT_EQ(memo.Publish(kSharedMapKey, with_b),
            MemoPublishResult::kStoredNew);

  MemoProbeStats stats;
  std::shared_ptr<const MemoPayload> hit =
      memo.Find(ProbeFor(*with_b, kSharedMapKey), &stats);
  ASSERT_NE(hit, nullptr);
  // The cheaper colliding entry is the exact match here...
  EXPECT_EQ(hit->cost, 5.0);
  EXPECT_EQ(stats.sig_collisions, 1);

  // ...and must NOT shadow the exact-key match of the other probe.
  hit = memo.Find(ProbeFor(*with_a, kSharedMapKey), &stats);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, 10.0);
  EXPECT_EQ(hit->ext_keys, with_a->ext_keys);
}

TEST(SharedMemoTest, EpochAdvanceDropsStaleEntriesAtOnce) {
  MemoryTracker root(0, 0);
  SharedMemo::Config config;
  config.parent = &root;
  SharedMemo memo(config);
  auto payload = MakePayload(RelSet::Single(1), 10.0, memo.epoch(),
                             /*bytes=*/128);
  ASSERT_EQ(memo.Publish(7, payload), MemoPublishResult::kStoredNew);
  EXPECT_EQ(memo.used_bytes(), 128);
  EXPECT_EQ(root.used(), 128);

  memo.AdvanceEpoch();
  // The stale entry is gone and its bytes are back with the tracker...
  EXPECT_EQ(memo.used_bytes(), 0);
  EXPECT_EQ(memo.entry_count(), 0);
  EXPECT_EQ(root.used(), 0);
  // ...and a current-epoch probe can never reuse a stale-stats plan.
  MemoProbe probe = ProbeFor(*payload, 7);
  probe.epoch = memo.epoch();
  MemoProbeStats stats;
  EXPECT_EQ(memo.Find(probe, &stats), nullptr);
}

TEST(SharedMemoTest, OversizedEntryRejectedAndClearRebalances) {
  MemoryTracker root(0, 0);
  SharedMemo::Config config;
  config.max_bytes = 150;
  config.parent = &root;
  SharedMemo memo(config);
  EXPECT_EQ(memo.Publish(1, MakePayload(RelSet::Single(1), 1.0, 0, 100)),
            MemoPublishResult::kStoredNew);
  // Only an entry larger than the whole budget is rejected; the cache is
  // left as it was.
  EXPECT_EQ(memo.Publish(2, MakePayload(RelSet::Single(2), 2.0, 0, 151)),
            MemoPublishResult::kRejectedMemory);
  EXPECT_EQ(memo.used_bytes(), 100);
  EXPECT_EQ(root.used(), 100);
  memo.Clear();
  EXPECT_EQ(memo.used_bytes(), 0);
  EXPECT_EQ(root.used(), 0);
}

// A full cache keeps learning: each publish past the budget evicts the
// least-recently-used entries until the new one fits, and a probe hit
// refreshes an entry's recency.
TEST(SharedMemoTest, FullCacheEvictsLruOnPublish) {
  constexpr int64_t kEntryBytes = 100;
  MemoryTracker root(0, 0);
  SharedMemo::Config config;
  config.max_bytes = 3 * kEntryBytes;
  config.parent = &root;
  SharedMemo memo(config);
  Counter* evictions = MetricsRegistry::Global().counter("memo.lru_evictions");
  const int64_t evictions_before = evictions->value();

  std::vector<std::shared_ptr<const MemoPayload>> payloads;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back(
        MakePayload(RelSet::Single(i), 1.0 + i, 0, kEntryBytes));
  }
  auto key = [](int i) { return static_cast<uint64_t>(i + 1); };
  auto hit = [&](int i) {
    MemoProbeStats stats;
    return memo.Find(ProbeFor(*payloads[static_cast<size_t>(i)], key(i)),
                     &stats) != nullptr;
  };
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(memo.Publish(key(i), payloads[static_cast<size_t>(i)]),
              MemoPublishResult::kStoredNew);
  }
  // Probe entry 0: entry 1 becomes the least recently used, then entry 2.
  ASSERT_TRUE(hit(0));
  for (int i = 3; i < 5; ++i) {
    EXPECT_EQ(memo.Publish(key(i), payloads[static_cast<size_t>(i)]),
              MemoPublishResult::kStoredNew)
        << "entry " << i;
    EXPECT_LE(memo.used_bytes(), memo.max_bytes());
    EXPECT_EQ(root.used(), memo.used_bytes());
  }
  EXPECT_TRUE(hit(3));
  EXPECT_TRUE(hit(4));
  EXPECT_TRUE(hit(0)) << "the probed entry was evicted";
  EXPECT_FALSE(hit(1)) << "the least-recently-probed entry survived";
  EXPECT_FALSE(hit(2));
  EXPECT_EQ(memo.entry_count(), 3);
  EXPECT_EQ(memo.used_bytes(), 3 * kEntryBytes);
  EXPECT_EQ(evictions->value() - evictions_before, 2);

  memo.Clear();
  EXPECT_EQ(memo.used_bytes(), 0);
  EXPECT_EQ(root.used(), 0);
}

// Multi-thread publish/lookup stress with a deterministic winner: 4
// threads race seeded (key, cost) publishes; whatever the interleaving,
// a probe after the join must return the cheapest cost published for its
// key, and the cache must hold exactly one entry per key.
TEST(SharedMemoTest, ConcurrentPublishLookupDeterministicWinner) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 64;
  constexpr int kRounds = 200;
  SharedMemo memo;

  auto key_of = [](int thread, int round) {
    return static_cast<int>(
        Mix(static_cast<uint64_t>(thread * kRounds + round)) % kKeys);
  };
  auto cost_of = [](int thread, int round, int key) {
    uint64_t h = Mix((static_cast<uint64_t>(thread) << 40) ^
                     (static_cast<uint64_t>(round) << 16) ^
                     static_cast<uint64_t>(key));
    return static_cast<double>(1 + h % 1000);
  };
  // The deterministic expectation: the global minimum per key.
  std::vector<double> expected(kKeys, 1e18);
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      int key = key_of(t, r);
      expected[static_cast<size_t>(key)] = std::min(
          expected[static_cast<size_t>(key)], cost_of(t, r, key));
    }
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      MemoProbeStats stats;
      for (int r = 0; r < kRounds; ++r) {
        int key = key_of(t, r);
        auto payload =
            MakePayload(RelSet::Single(key), cost_of(t, r, key));
        memo.Publish(static_cast<uint64_t>(key + 1), payload);
        // Interleaved lookups: the entry for this exact key is at most as
        // expensive as what we just offered, never below the minimum.
        std::shared_ptr<const MemoPayload> hit = memo.Find(
            ProbeFor(*payload, static_cast<uint64_t>(key + 1)), &stats);
        ASSERT_NE(hit, nullptr);
        EXPECT_TRUE(hit->s == RelSet::Single(key));
        EXPECT_LE(hit->cost, payload->cost);
        EXPECT_GE(hit->cost, expected[static_cast<size_t>(key)]);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  MemoProbeStats stats;
  int64_t keys_seen = 0;
  for (int key = 0; key < kKeys; ++key) {
    if (expected[static_cast<size_t>(key)] >= 1e18) continue;
    ++keys_seen;
    auto probe_payload = MakePayload(RelSet::Single(key), 0.0);
    std::shared_ptr<const MemoPayload> hit = memo.Find(
        ProbeFor(*probe_payload, static_cast<uint64_t>(key + 1)), &stats);
    ASSERT_NE(hit, nullptr) << "key " << key;
    EXPECT_EQ(hit->cost, expected[static_cast<size_t>(key)]) << "key " << key;
  }
  EXPECT_EQ(memo.entry_count(), keys_seen);
}

// Racing publishers never overshoot the byte budget: publish and evict
// happen under one lock, so the budget is exact after every publish, and
// the tracker moves with it.
TEST(SharedMemoTest, ConcurrentPublishesKeepTheBudgetExact) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  MemoryTracker root(0, 0);
  SharedMemo::Config config;
  config.max_bytes = 100;
  config.parent = &root;
  SharedMemo memo(config);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        int key = t * kRounds + r;
        EXPECT_EQ(memo.Publish(static_cast<uint64_t>(key + 1),
                               MakePayload(RelSet::Single(key % 64),
                                           1.0 + key, 0, 60)),
                  MemoPublishResult::kStoredNew);
        EXPECT_LE(memo.used_bytes(), memo.max_bytes());
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Only one 60-byte entry fits a 100-byte budget.
  EXPECT_EQ(memo.entry_count(), 1);
  EXPECT_EQ(memo.used_bytes(), 60);
  EXPECT_EQ(root.used(), 60);
  memo.Clear();
  EXPECT_EQ(root.used(), 0);
}

// --- Persistence hooks: ExportEntries / Import (cache_store.h) ---------

TEST(SharedMemoExportTest, ExportRespectsMinSeqAndEpoch) {
  SharedMemo memo;
  memo.Publish(1, MakePayload(RelSet::Single(1), 10.0));
  memo.Publish(2, MakePayload(RelSet::Single(2), 20.0));
  memo.Publish(3, MakePayload(RelSet::Single(3), 30.0));
  EXPECT_EQ(memo.sequence(), 3u);

  EXPECT_EQ(memo.ExportEntries(0).size(), 3u);
  EXPECT_EQ(memo.ExportEntries(2).size(), 2u);  // min_seq is inclusive
  std::vector<MemoExportEntry> newest = memo.ExportEntries(3);
  ASSERT_EQ(newest.size(), 1u);
  EXPECT_EQ(newest[0].map_key, 3u);
  EXPECT_EQ(newest[0].seq, 3u);
  EXPECT_EQ(memo.ExportEntries(4).size(), 0u);

  // Entries cost under an old stats epoch never leave the process: after
  // AdvanceEpoch the whole export is empty even at min_seq 0.
  memo.AdvanceEpoch();
  EXPECT_EQ(memo.ExportEntries(0).size(), 0u);
}

TEST(SharedMemoExportTest, ExportIsDeterministicallyOrdered) {
  SharedMemo memo;
  // Publish out of key order, with an improvement on key 5 and a second
  // full key colliding into key 5's bucket.
  memo.Publish(9, MakePayload(RelSet::Single(1), 10.0));
  memo.Publish(5, MakePayload(RelSet::Single(2), 20.0));
  memo.Publish(5, MakePayload(RelSet::Single(4), 40.0));
  memo.Publish(5, MakePayload(RelSet::Single(2), 15.0));
  memo.Publish(7, MakePayload(RelSet::Single(3), 30.0));

  std::vector<MemoExportEntry> a = memo.ExportEntries(0);
  std::vector<MemoExportEntry> b = memo.ExportEntries(0);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].map_key, b[i].map_key) << i;
    EXPECT_EQ(a[i].payload.get(), b[i].payload.get()) << i;
  }
  // Sorted by map key; within key 5's bucket, in filing order (the
  // improvement replaced the 20.0 entry and was filed after the 40.0 one).
  EXPECT_EQ(a[0].map_key, 5u);
  EXPECT_EQ(a[1].map_key, 5u);
  EXPECT_EQ(a[0].payload->cost, 40.0);
  EXPECT_EQ(a[1].payload->cost, 15.0);
  EXPECT_EQ(a[2].map_key, 7u);
  EXPECT_EQ(a[3].map_key, 9u);
}

TEST(SharedMemoExportTest, ImportIsVisibleAndDedups) {
  SharedMemo memo;
  auto payload = MakePayload(RelSet::Single(1), 10.0);
  EXPECT_EQ(memo.Import(7, payload), MemoPublishResult::kStoredNew);
  MemoProbeStats stats;
  EXPECT_NE(memo.Find(ProbeFor(*payload, 7), &stats), nullptr);

  // Re-importing the same entry (snapshot + log overlap after a crash
  // between rename and log cleanup) dedups instead of accreting.
  EXPECT_EQ(memo.Import(7, MakePayload(RelSet::Single(1), 10.0)),
            MemoPublishResult::kSkippedDuplicate);
  EXPECT_EQ(memo.entry_count(), 1);
  // A strictly cheaper import supersedes, like a live publish.
  EXPECT_EQ(memo.Import(7, MakePayload(RelSet::Single(1), 5.0)),
            MemoPublishResult::kStoredImproved);
  EXPECT_EQ(memo.entry_count(), 1);
}

TEST(SharedMemoExportTest, ImportsAreNotReExportedByAppends) {
  SharedMemo memo;
  memo.Import(7, MakePayload(RelSet::Single(1), 10.0));
  // A snapshot (min_seq 0) includes the import; the incremental append
  // window (min_seq >= 1) must not, or every flush would re-log the
  // whole imported cache.
  EXPECT_EQ(memo.ExportEntries(0).size(), 1u);
  EXPECT_EQ(memo.ExportEntries(1).size(), 0u);
  EXPECT_EQ(memo.sequence(), 0u);

  memo.Publish(9, MakePayload(RelSet::Single(2), 20.0));
  std::vector<MemoExportEntry> fresh = memo.ExportEntries(1);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].map_key, 9u);
}

TEST(SharedMemoExportTest, ExportImportRoundTripPreservesTrackerBalance) {
  MemoryTracker root(0, 0);
  std::vector<MemoExportEntry> exported;
  {
    SharedMemo::Config config;
    config.parent = &root;
    SharedMemo source(config);
    for (int i = 0; i < 8; ++i) {
      source.Publish(static_cast<uint64_t>(i + 1),
                     MakePayload(RelSet::Single(i), 10.0 + i));
    }
    exported = source.ExportEntries(0);
    ASSERT_EQ(exported.size(), 8u);
    source.Clear();
    EXPECT_EQ(root.used(), 0);
  }
  SharedMemo::Config config;
  config.parent = &root;
  SharedMemo dest(config);
  for (const MemoExportEntry& e : exported) {
    EXPECT_EQ(dest.Import(e.map_key, e.payload),
              MemoPublishResult::kStoredNew);
  }
  EXPECT_EQ(dest.entry_count(), 8);
  EXPECT_EQ(root.used(), dest.used_bytes());
  dest.Clear();
  EXPECT_EQ(root.used(), 0);
}

}  // namespace
}  // namespace eca
