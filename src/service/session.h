#ifndef ECA_SERVICE_SESSION_H_
#define ECA_SERVICE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "common/memory_tracker.h"
#include "eca/policy.h"
#include "enumerate/shared_memo.h"
#include "exec/database.h"
#include "exec/query_context.h"
#include "service/admission.h"
#include "service/wire.h"
#include "storage/cache_store.h"

namespace eca {

// Request execution for the ecad service: ServiceState owns everything the
// concurrent sessions share — the catalog, the global MemoryTracker root,
// the admission controller and the per-query defaults — and Handle() turns
// one decoded request into one response. The transport lives in
// server.cc; keeping Handle() socket-free is what makes every robustness
// behavior unit-testable in process.

// Tracks the CancelTokens of in-flight queries so a drain can fire them
// all. Registering after CancelAll() cancels the token immediately: a
// query that slipped past admission while the drain flag was being set
// still stops at its first governor check.
class CancelRegistry {
 public:
  void Register(CancelToken* token);
  void Unregister(CancelToken* token);
  // Fires every registered token; returns how many were cancelled.
  int64_t CancelAll();
  bool cancelled_all() const;

 private:
  mutable std::mutex mu_;
  std::set<CancelToken*> tokens_;
  bool cancel_all_ = false;
};

struct ServiceOptions {
  AdmissionConfig admission;
  // Per-query hard memory limit: the cap on what a client may request and
  // the default when it requests nothing. <= 0 = unlimited queries (the
  // admission commit ledger then uses admission.default_commit_bytes).
  int64_t client_mem_limit_bytes = 64ll << 20;
  // Deadline applied to queries that send no timeout_ms; <= 0 = none.
  int64_t default_timeout_ms = 0;
  // Spill root shared by all queries (each gets its own crash-sweepable
  // subdirectory via QueryContext); "" = system temp dir.
  std::string spill_dir;
  // Worker threads per query execution (the enumeration is sequential).
  int num_threads = 1;
  // Default plan policy for queries that send no "policy" field (ecad
  // --policy; docs/planner-policies.md). A request-level "policy" field
  // overrides it per query. Either way, an admission verdict that forces
  // degraded planning still downgrades to the sizes-only fallback — the
  // response's degraded/trigger fields record that explicitly.
  PlanPolicy policy = PlanPolicy::kDp;
  // Cross-query plan cache byte budget (ecad --plan-cache-mb). When > 0
  // the service owns a SharedMemo charged to the global tracker root:
  // repeated structurally-identical queries under the same stats epoch
  // reuse proven subplans instead of re-enumerating. 0 disables the
  // cache (every query keeps a private per-query memo).
  int64_t plan_cache_bytes = 0;
  // Crash-safe plan-cache persistence (ecad --plan-cache-file): proven
  // entries are loaded from this snapshot+log pair on startup and written
  // back on drain and on the write-behind flush interval
  // (docs/robustness.md, "Crash safety & persistence"). "" = in-memory
  // only. Setting a file with plan_cache_bytes == 0 enables the cache at
  // a 32 MB default budget.
  std::string plan_cache_file;
  // Write-behind flush period driven by ecad's main loop; <= 0 disables
  // periodic flushing (drain still snapshots).
  int64_t cache_flush_ms = 2000;
};

class ServiceState {
 public:
  // `db` must outlive the state and is shared read-only by all sessions —
  // per-query isolation means no query, failed or cancelled, ever mutates
  // it.
  ServiceState(const Database* db, ServiceOptions options);

  ServiceState(const ServiceState&) = delete;
  ServiceState& operator=(const ServiceState&) = delete;

  // Executes one request end to end (admission included for QUERY).
  // Always returns a well-formed response message; failures become ERROR
  // responses, never exceptions or aborts.
  WireMessage Handle(const WireMessage& request);

  AdmissionController& admission() { return admission_; }
  CancelRegistry& cancels() { return cancels_; }
  MemoryTracker& root_tracker() { return root_; }
  const ServiceOptions& options() const { return options_; }
  const Database& db() const { return *db_; }
  // The cross-query plan cache; nullptr when plan_cache_bytes == 0.
  SharedMemo* plan_cache() { return plan_cache_.get(); }
  // Drain hook (server Stop): drops every cached entry and returns its
  // bytes to the root tracker so the drained-to-zero invariant holds.
  void ClearPlanCache() {
    if (plan_cache_ != nullptr) plan_cache_->Clear();
  }

  // Plan-cache persistence (plan_cache_file). LoadPlanCache imports the
  // on-disk snapshot+log; it degrades (cold cache) on any corruption,
  // never fails. FlushPlanCache writes entries published since the last
  // flush (`snapshot` = full atomic snapshot + log compaction, else an
  // append to the write-behind log). Both are no-ops without a configured
  // file.
  bool has_cache_store() const { return cache_store_ != nullptr; }
  CacheStore::LoadResult LoadPlanCache();
  Status FlushPlanCache(bool snapshot);

 private:
  WireMessage HandleQuery(const WireMessage& request);
  WireMessage HandleMetrics();

  const Database* db_;
  ServiceOptions options_;
  // Global accounting root: every query tracker chains to it, so its
  // usage is the true concurrent footprint and must return to zero when
  // the service drains.
  MemoryTracker root_;
  AdmissionController admission_;
  CancelRegistry cancels_;
  std::unique_ptr<SharedMemo> plan_cache_;
  std::unique_ptr<CacheStore> cache_store_;
  uint64_t catalog_fp_ = 0;
};

}  // namespace eca

#endif  // ECA_SERVICE_SESSION_H_
