#ifndef ECA_EXEC_QUERY_CONTEXT_H_
#define ECA_EXEC_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/memory_tracker.h"
#include "common/status.h"

namespace eca {

// Cooperative cancellation: anything holding the token can Cancel(); the
// executor checks it at chunk granularity and unwinds with kCancelled.
// Thread-safe, reusable across queries via Reset().
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

// The per-query resource governor (docs/robustness.md, "Resource
// governor"): one QueryContext travels from the tool entry point through
// optimizer and executor so that `--timeout-ms N --mem-limit-mb M` is a
// single end-to-end contract. It bundles
//
//  - a query-level MemoryTracker (soft spill threshold + hard limit),
//  - a CancelToken plus an absolute wall-clock deadline,
//  - the spill directory override for this query's temp files,
//  - a first-error-wins Status slot that parallel operator chunks report
//    into (worker lambdas cannot return Status through RunOnWorkers).
//
// Operators call ShouldStop() once per chunk of work; when it flips they
// stop producing and the executor returns StopStatus() — kCancelled,
// kDeadlineExceeded, or whatever error a sibling chunk recorded (e.g.
// kResourceExhausted from the tracker). FaultPoint::kCancelRace forces
// the check to fire at an exact call count for race testing.
class QueryContext {
 public:
  struct Limits {
    // Hard memory limit for the query; <= 0 = unlimited.
    int64_t mem_limit_bytes = 0;
    // Spill threshold; <= 0 defaults to half the hard limit (when set).
    int64_t mem_soft_bytes = 0;
    // Wall-clock budget from Arm() (not construction); <= 0 = none.
    int64_t timeout_ms = 0;
    // Temp-file location override; "" = system temp dir. When set, this
    // query's spill files live in a per-query "eca-q<pid>-<seq>"
    // subdirectory (storage/spill_file.h) that is removed when the
    // context is destroyed — and reclaimed by the startup sweep if the
    // process crashes first.
    std::string spill_dir;
    // Optional shared root for multi-query accounting: the query tracker
    // charges this parent on every reservation, so one global
    // MemoryTracker bounds the sum of all concurrent governed queries
    // (the ecad admission model). Must outlive the context; nullptr for
    // standalone queries.
    MemoryTracker* parent_tracker = nullptr;
  };

  QueryContext() : QueryContext(Limits{}) {}
  explicit QueryContext(Limits limits);
  ~QueryContext();

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // Starts the wall clock: the deadline is now + timeout_ms. Called by
  // the facade on entry; harmless to call with no timeout configured.
  void Arm();

  MemoryTracker* tracker() { return &tracker_; }
  CancelToken* cancel_token() { return &cancel_; }
  // The per-query spill subdirectory (not the configured base); empty when
  // no spill directory was configured.
  const std::string& spill_dir() const { return spill_dir_; }
  int64_t deadline_ms() const { return deadline_ms_; }

  // Remaining wall-clock milliseconds, or <= 0 when the deadline passed;
  // int64 max when no deadline is armed. The enumerator budget takes this
  // so optimizer and executor share one deadline.
  int64_t RemainingMs() const;

  // The chunk-granularity governor probe. Cheap when nothing is armed:
  // two relaxed atomic loads plus the fault-injection branch.
  bool ShouldStop();

  // Why ShouldStop() flipped: the recorded error if any, else kCancelled /
  // kDeadlineExceeded. OK when nothing stopped.
  Status StopStatus() const;

  // First error wins; later reports are dropped. Flips ShouldStop() so
  // sibling chunks stop working. Safe from any thread.
  void RecordError(Status status);

  bool HasError() const {
    return error_set_.load(std::memory_order_acquire);
  }

 private:
  Limits limits_;
  std::string spill_dir_;  // per-query subdir of limits_.spill_dir
  MemoryTracker tracker_;
  CancelToken cancel_;
  int64_t deadline_ms_ = 0;  // absolute governed-clock ms; 0 = none
  std::atomic<bool> deadline_hit_{false};
  std::atomic<bool> error_set_{false};
  mutable std::mutex error_mu_;
  Status error_;
};

// RAII charge against the query tracker with the governor's fault hook:
// every Add() first consults FaultPoint::kExecAllocation (so tests can
// fail any materializing allocation deterministically), then reserves
// against the query's MemoryTracker. All accumulated bytes are released
// on destruction. A null ctx makes every operation a no-op, which is what
// lets ungoverned callers share the governed code paths.
class ExecCharge {
 public:
  explicit ExecCharge(QueryContext* ctx)
      : ctx_(ctx), res_(ctx != nullptr ? ctx->tracker() : nullptr) {}

  ExecCharge(const ExecCharge&) = delete;
  ExecCharge& operator=(const ExecCharge&) = delete;

  // Charges `bytes` more; kResourceExhausted past the hard limit (or at
  // the injected fault), in which case nothing is charged.
  Status Add(int64_t bytes, const char* what);

  // Releases everything charged so far.
  void Reset() { res_.Reset(); }

  // Hands the accumulated charge to the caller (not released on
  // destruction); the executor uses this for durable node outputs.
  int64_t Detach() { return res_.Detach(); }

  int64_t bytes() const { return res_.bytes(); }

 private:
  QueryContext* ctx_;
  ScopedReservation res_;
};

}  // namespace eca

#endif  // ECA_EXEC_QUERY_CONTEXT_H_
