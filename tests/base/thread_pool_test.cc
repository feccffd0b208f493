// Tests for the morsel cursor and thread pool backing parallel execution.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

namespace eca {
namespace {

TEST(ThreadPoolTest, ThreadCountClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool neg(-3);
  EXPECT_EQ(neg.num_threads(), 1);
  int calls = 0;
  neg.RunOnWorkers([&](int worker) {
    EXPECT_EQ(worker, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

// --- MorselCursor ----------------------------------------------------------

TEST(MorselCursorTest, BoundariesDependOnlyOnTotalAndMorselRows) {
  MorselCursor cursor(10, 4);
  EXPECT_EQ(cursor.num_morsels(), 3);
  int64_t begin = -1, end = -1, index = -1;
  ASSERT_TRUE(cursor.Next(&begin, &end, &index));
  EXPECT_EQ(begin, 0);
  EXPECT_EQ(end, 4);
  EXPECT_EQ(index, 0);
  ASSERT_TRUE(cursor.Next(&begin, &end, &index));
  EXPECT_EQ(begin, 4);
  EXPECT_EQ(end, 8);
  EXPECT_EQ(index, 1);
  ASSERT_TRUE(cursor.Next(&begin, &end, &index));
  EXPECT_EQ(begin, 8);
  EXPECT_EQ(end, 10);  // tail morsel is short
  EXPECT_EQ(index, 2);
  EXPECT_FALSE(cursor.Next(&begin, &end, &index));
  EXPECT_FALSE(cursor.Next(&begin, &end, &index));  // stays exhausted
}

TEST(MorselCursorTest, EmptyAndDegenerateInputs) {
  MorselCursor empty(0, 4096);
  EXPECT_EQ(empty.num_morsels(), 0);
  int64_t begin, end, index;
  EXPECT_FALSE(empty.Next(&begin, &end, &index));

  MorselCursor negative(-5, 8);
  EXPECT_EQ(negative.num_morsels(), 0);
  EXPECT_FALSE(negative.Next(&begin, &end, &index));

  // morsel_rows clamps to 1: every row is its own morsel.
  MorselCursor tiny(3, 0);
  EXPECT_EQ(tiny.morsel_rows(), 1);
  EXPECT_EQ(tiny.num_morsels(), 3);

  // One morsel covers a sub-morsel input.
  MorselCursor sub(3, 4096);
  EXPECT_EQ(sub.num_morsels(), 1);
  ASSERT_TRUE(sub.Next(&begin, &end, &index));
  EXPECT_EQ(begin, 0);
  EXPECT_EQ(end, 3);
  EXPECT_FALSE(sub.Next(&begin, &end, &index));
}

TEST(MorselCursorTest, ConcurrentClaimsCoverEveryRowExactlyOnce) {
  constexpr int64_t kRows = 10000;
  MorselCursor cursor(kRows, 7);
  std::vector<std::atomic<int>> hits(kRows);
  for (auto& h : hits) h.store(0);
  ThreadPool pool(4);
  pool.RunOnWorkers([&](int) {
    int64_t begin, end, index;
    while (cursor.Next(&begin, &end, &index)) {
      for (int64_t r = begin; r < end; ++r) {
        hits[static_cast<size_t>(r)].fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int64_t r = 0; r < kRows; ++r) {
    ASSERT_EQ(hits[static_cast<size_t>(r)].load(), 1) << "row " << r;
  }
}

// --- RunOnWorkers ----------------------------------------------------------

TEST(ThreadPoolTest, RunOnWorkersInvokesEveryWorkerOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> calls(4);
  for (auto& c : calls) c.store(0);
  pool.RunOnWorkers([&](int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    calls[static_cast<size_t>(worker)].fetch_add(1,
                                                 std::memory_order_relaxed);
  });
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(calls[static_cast<size_t>(w)].load(), 1) << "worker " << w;
  }
}

TEST(ThreadPoolTest, RunOnWorkersSingleThreadRunsInline) {
  ThreadPool pool(1);
  int calls = 0;
  pool.RunOnWorkers([&](int worker) {
    EXPECT_EQ(worker, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, RunOnWorkersReentrantRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.RunOnWorkers([&](int) {
    pool.RunOnWorkers([&](int worker) {
      EXPECT_EQ(worker, 0);
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner.load(), 2);  // once per outer invocation
}

TEST(ThreadPoolTest, RunOnWorkersReusableAcrossManyRounds) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> calls{0};
    pool.RunOnWorkers(
        [&](int) { calls.fetch_add(1, std::memory_order_relaxed); });
    ASSERT_EQ(calls.load(), 4) << "round " << round;
  }
}

}  // namespace
}  // namespace eca
