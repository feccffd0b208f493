// Multi-thread stress for the lock-free chain table under the shared memo
// (common/concurrent_table.h). These are the properties the enumerator's
// determinism argument leans on: every published node stays reachable,
// the chain for a key contains exactly what was published for it, and a
// saturated probe window rejects cleanly. Run under the TSan CI lane.

#include "common/concurrent_table.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace eca {
namespace {

struct TestNode {
  std::atomic<TestNode*> next{nullptr};
  uint64_t key = 0;
  int thread = 0;
  int seq = 0;
};

// CAS-prepend `node` to the chain ClaimHead returns; false when the
// probe window is saturated (the caller drops the node).
bool Prepend(ConcurrentChainTable<TestNode>* table, TestNode* node) {
  std::atomic<TestNode*>* head = table->ClaimHead(node->key);
  if (head == nullptr) return false;
  TestNode* observed = head->load(std::memory_order_acquire);
  do {
    node->next.store(observed, std::memory_order_relaxed);
  } while (!head->compare_exchange_weak(observed, node,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire));
  return true;
}

TEST(ConcurrentChainTableTest, SingleThreadChains) {
  ConcurrentChainTable<TestNode> table(64);
  auto nodes = std::make_unique<TestNode[]>(10);
  for (int i = 0; i < 10; ++i) {
    nodes[i].key = 1 + static_cast<uint64_t>(i % 3);  // three chains
    nodes[i].seq = i;
    ASSERT_TRUE(Prepend(&table, &nodes[i]));
  }
  EXPECT_EQ(table.claimed(), 3u);
  for (uint64_t key = 1; key <= 3; ++key) {
    int count = 0;
    int last_seq = 1 << 30;
    for (TestNode* n = table.Find(key); n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      EXPECT_EQ(n->key, key);
      // Chains are prepend-only: newest first.
      EXPECT_LT(n->seq, last_seq);
      last_seq = n->seq;
      ++count;
    }
    EXPECT_GT(count, 0);
  }
  EXPECT_EQ(table.Find(99), nullptr);
}

TEST(ConcurrentChainTableTest, ZeroKeyIsUsable) {
  ConcurrentChainTable<TestNode> table(16);
  TestNode node;
  node.key = 0;  // remapped internally; must still round-trip
  ASSERT_TRUE(Prepend(&table, &node));
  EXPECT_EQ(table.Find(0), &node);
}

TEST(ConcurrentChainTableTest, SaturatedWindowRejectsCleanly) {
  // 16 slots => probe limit is the whole table; claiming 16 distinct keys
  // fills every slot and the 17th must be rejected, not looped forever.
  ConcurrentChainTable<TestNode> table(16);
  auto nodes = std::make_unique<TestNode[]>(16);
  for (int i = 0; i < 16; ++i) {
    nodes[i].key = static_cast<uint64_t>(i + 1);
    ASSERT_TRUE(Prepend(&table, &nodes[i]));
  }
  EXPECT_EQ(table.ClaimHead(1000), nullptr);
  // Existing chains stay findable after the rejection.
  EXPECT_EQ(table.Find(1), &nodes[0]);
}

// The stress proper: T threads publish N nodes each across a small key
// space while readers walk chains, then a single-threaded sweep verifies
// no node was lost, duplicated, or filed under the wrong key — with a
// seeded per-(thread, seq) key assignment so the expected population is
// deterministic.
TEST(ConcurrentChainTableTest, ConcurrentPublishLookupStress) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  constexpr uint64_t kKeySpace = 61;  // far fewer keys than nodes
  ConcurrentChainTable<TestNode> table(256);

  std::vector<std::unique_ptr<TestNode[]>> nodes(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    nodes[t] = std::make_unique<TestNode[]>(kPerThread);
    for (int i = 0; i < kPerThread; ++i) {
      // Seeded assignment: splitmix-style hash of (t, i).
      uint64_t h = (static_cast<uint64_t>(t) << 32) | static_cast<uint64_t>(i);
      nodes[t][i].key = 1 + Mix64(h * 0x9e3779b97f4a7c15ULL) % kKeySpace;
      nodes[t][i].thread = t;
      nodes[t][i].seq = i;
    }
  }

  std::atomic<int64_t> rejected{0};
  std::atomic<bool> reader_error{false};
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!Prepend(&table, &nodes[t][i])) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop_readers.load(std::memory_order_acquire)) {
        for (uint64_t key = 1; key <= kKeySpace; ++key) {
          for (TestNode* n = table.Find(key); n != nullptr;
               n = n->next.load(std::memory_order_acquire)) {
            // A reader must only ever see fully-published nodes filed
            // under their own key.
            if (n->key != key) reader_error.store(true);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop_readers.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  EXPECT_FALSE(reader_error.load());
  EXPECT_EQ(rejected.load(), 0);  // 61 keys fit a 256-slot table easily

  // Exhaustive single-threaded audit: every node reachable exactly once,
  // under its own key, newest-first per thread.
  int64_t seen = 0;
  for (uint64_t key = 1; key <= kKeySpace; ++key) {
    int last_seq[kThreads];
    for (int t = 0; t < kThreads; ++t) last_seq[t] = 1 << 30;
    for (TestNode* n = table.Find(key); n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      ASSERT_EQ(n->key, key);
      // One thread's nodes keep their publish order within the chain.
      ASSERT_LT(n->seq, last_seq[n->thread]);
      last_seq[n->thread] = n->seq;
      ++seen;
    }
  }
  EXPECT_EQ(seen, static_cast<int64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace eca
