#include "common/thread_pool.h"

namespace eca {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunOnWorkers(const std::function<void(int)>& fn) {
  bool run_inline = num_threads_ == 1;
  if (!run_inline) {
    std::lock_guard<std::mutex> lock(mu_);
    // Reentrant call from inside a loop body: run once on this thread.
    if (in_loop_) run_inline = true;
  }
  if (run_inline) {
    fn(0);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    worker_fn_ = &fn;
    in_loop_ = true;
    active_workers_ = num_threads_ - 1;  // workers; the caller joins too
    ++epoch_;
  }
  work_cv_.notify_all();

  fn(0);

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return active_workers_ == 0; });
  worker_fn_ = nullptr;
  in_loop_ = false;
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* worker_fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen_epoch] {
        return shutdown_ || epoch_ != seen_epoch;
      });
      if (shutdown_) return;
      seen_epoch = epoch_;
      worker_fn = worker_fn_;
    }
    (*worker_fn)(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace eca
