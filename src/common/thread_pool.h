#ifndef ECA_COMMON_THREAD_POOL_H_
#define ECA_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eca {

// Shared atomic work cursor for morsel-driven loops: workers claim
// fixed-size contiguous row ranges ("morsels") with one fetch_add each,
// so there is no per-worker pre-split, no stealing bookkeeping, and no
// lock on the claim path. Morsel boundaries depend only on (total,
// morsel_rows) — never on the thread count — which is what lets outputs
// assembled in morsel-index order stay byte-identical for any number of
// workers (docs/performance.md, "Vectorized executor").
class MorselCursor {
 public:
  MorselCursor(int64_t total_rows, int64_t morsel_rows)
      : total_(total_rows < 0 ? 0 : total_rows),
        morsel_(morsel_rows < 1 ? 1 : morsel_rows) {}

  // Claims the next morsel as [*begin, *end); false when the input is
  // exhausted. *morsel_index receives the zero-based morsel number (the
  // slot to write per-morsel output into).
  bool Next(int64_t* begin, int64_t* end, int64_t* morsel_index) {
    int64_t m = next_.fetch_add(1, std::memory_order_relaxed);
    int64_t b = m * morsel_;
    if (b >= total_) return false;
    *begin = b;
    *end = b + morsel_ < total_ ? b + morsel_ : total_;
    *morsel_index = m;
    return true;
  }

  int64_t num_morsels() const {
    return total_ == 0 ? 0 : (total_ + morsel_ - 1) / morsel_;
  }
  int64_t total_rows() const { return total_; }
  int64_t morsel_rows() const { return morsel_; }

 private:
  std::atomic<int64_t> next_{0};
  const int64_t total_;
  const int64_t morsel_;
};

// A small thread pool for morsel-driven loops.
//
// The pool owns `num_threads - 1` persistent workers; the caller's thread
// participates as worker 0, so RunOnWorkers with num_threads == 1
// degenerates to one inline call with zero synchronization.
//
// Tasks must not throw; the engine reports errors through Status values
// computed inside the loop body, never exceptions.
class ThreadPool {
 public:
  // Creates a pool that runs loops on up to `num_threads` threads
  // (clamped to >= 1). `num_threads - 1` workers are spawned eagerly and
  // parked on a condition variable between loops.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(worker) once on every pool thread (the caller participates as
  // worker 0) and blocks until all invocations return. This is the morsel
  // driver: each invocation pulls morsels from a shared MorselCursor until
  // the input is dry, so the only cross-thread coordination for the whole
  // loop is the cursor's fetch_add — no per-operator barrier phases, no
  // range pre-splitting. Returning from RunOnWorkers synchronizes-with
  // every fn invocation (reads after it see all their writes). Reentrant
  // calls run fn once on the calling thread.
  void RunOnWorkers(const std::function<void(int)>& fn);

 private:
  void WorkerLoop(int worker);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new loop
  std::condition_variable done_cv_;   // caller waits for loop completion
  // The current loop's body; workers call (*worker_fn_)(worker) once.
  const std::function<void(int)>* worker_fn_ = nullptr;
  uint64_t epoch_ = 0;      // bumped per RunOnWorkers; wakes workers
  int active_workers_ = 0;  // workers still inside the current loop
  bool in_loop_ = false;    // guards against reentrant RunOnWorkers
  bool shutdown_ = false;
};

}  // namespace eca

#endif  // ECA_COMMON_THREAD_POOL_H_
