#include "service/session.h"

#include <map>
#include <utility>

#include "algebra/plan_parser.h"
#include "algebra/validate.h"
#include "common/metrics.h"
#include "eca/optimizer.h"
#include "enumerate/enumerator.h"
#include "expr/pred_parser.h"
#include "storage/csv.h"
#include "testing/fault_injection.h"

namespace eca {

namespace {

struct SessionCounters {
  Counter* requests;
  Counter* degraded;
  Counter* drained;
};

const SessionCounters& Counters() {
  static const SessionCounters counters = [] {
    auto& reg = MetricsRegistry::Global();
    return SessionCounters{reg.counter("service.requests"),
                           reg.counter("service.degraded"),
                           reg.counter("service.drained")};
  }();
  return counters;
}

}  // namespace

void CancelRegistry::Register(CancelToken* token) {
  bool cancel_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tokens_.insert(token);
    cancel_now = cancel_all_;
  }
  if (cancel_now) {
    // Late arrival of a drain (admitted before CancelAll, registered
    // after): count it like the tokens CancelAll fired itself.
    token->Cancel();
    Counters().drained->Increment();
  }
}

void CancelRegistry::Unregister(CancelToken* token) {
  std::lock_guard<std::mutex> lock(mu_);
  tokens_.erase(token);
}

int64_t CancelRegistry::CancelAll() {
  std::lock_guard<std::mutex> lock(mu_);
  cancel_all_ = true;
  for (CancelToken* token : tokens_) token->Cancel();
  Counters().drained->Add(static_cast<int64_t>(tokens_.size()));
  return static_cast<int64_t>(tokens_.size());
}

bool CancelRegistry::cancelled_all() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancel_all_;
}

ServiceState::ServiceState(const Database* db, ServiceOptions options)
    : db_(db),
      options_(std::move(options)),
      // The global root has no limit of its own: per-query hard limits and
      // the admission commit ledger bound usage; the root is the shared
      // soft-spill signal and the drain-to-zero accounting truth.
      root_(options_.admission.commit_limit_bytes,
            /*hard_bytes=*/0),
      admission_(options_.admission) {
  // Eager metric registration: the first METRICS scrape shows the whole
  // service.* set at zero (the AdmissionController ctor does the same
  // for the admission counters).
  Counters();
  if (!options_.plan_cache_file.empty() && options_.plan_cache_bytes <= 0) {
    options_.plan_cache_bytes = 32ll << 20;
  }
  if (options_.plan_cache_bytes > 0) {
    SharedMemo::Config config;
    config.max_bytes = options_.plan_cache_bytes;
    config.parent = &root_;
    plan_cache_ = std::make_unique<SharedMemo>(config);
  }
  if (plan_cache_ != nullptr && !options_.plan_cache_file.empty()) {
    cache_store_ = std::make_unique<CacheStore>(options_.plan_cache_file);
    // A cache file written against different data must never warm us.
    catalog_fp_ = CatalogFingerprint(*db_);
  }
}

CacheStore::LoadResult ServiceState::LoadPlanCache() {
  if (cache_store_ == nullptr) return CacheStore::LoadResult{};
  return cache_store_->Load(plan_cache_.get(), catalog_fp_);
}

Status ServiceState::FlushPlanCache(bool snapshot) {
  if (cache_store_ == nullptr) return Status::OK();
  return snapshot ? cache_store_->WriteSnapshot(plan_cache_.get(), catalog_fp_)
                  : cache_store_->AppendNew(plan_cache_.get(), catalog_fp_);
}

WireMessage ServiceState::Handle(const WireMessage& request) {
  Counters().requests->Increment();
  if (request.type == "PING") {
    WireMessage pong;
    pong.type = "PONG";
    return pong;
  }
  if (request.type == "METRICS") return HandleMetrics();
  if (request.type == "QUERY") return HandleQuery(request);
  return ErrorResponse(Status::InvalidArgument(
      "unknown request type '" + request.type + "'"));
}

WireMessage ServiceState::HandleMetrics() {
  WireMessage response;
  response.type = "METRICS";
  response.Add("json", MetricsRegistry::Global().Snapshot().ToJson());
  return response;
}

WireMessage ServiceState::HandleQuery(const WireMessage& request) {
  // -- Parse and validate the request before spending any admission slot.
  const std::string* plan_text = request.Find("plan");
  if (plan_text == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("QUERY is missing the 'plan' field"));
  }
  std::map<std::string, PredRef> preds;
  for (const std::string& spec : request.FindAll("pred")) {
    size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      return ErrorResponse(Status::InvalidArgument(
          "bad 'pred' field '" + spec + "' (want name=expr)"));
    }
    std::string name = spec.substr(0, eq);
    std::string error;
    PredRef pred = ParsePredicate(spec.substr(eq + 1), name, &error);
    if (pred == nullptr) {
      return ErrorResponse(Status::InvalidArgument(
          "cannot parse predicate '" + spec + "': " + error));
    }
    preds[name] = std::move(pred);
  }
  std::string error;
  PlanPtr plan = ParsePlan(*plan_text, preds, &error);
  if (plan == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("cannot parse plan: " + error));
  }
  Status valid = ValidatePlanStatus(*plan, db_->BaseSchemas());
  if (!valid.ok()) return ErrorResponse(valid);

  Optimizer::Approach approach = Optimizer::Approach::kECA;
  if (const std::string* name = request.Find("approach")) {
    StatusOr<Optimizer::Approach> parsed = Optimizer::ParseApproach(*name);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    approach = *parsed;
  }
  PlanPolicy plan_policy = options_.policy;
  if (const std::string* name = request.Find("policy")) {
    StatusOr<PlanPolicy> parsed = ParsePlanPolicy(*name);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    plan_policy = *parsed;
  }
  StatusOr<int64_t> timeout_ms =
      request.FindInt("timeout_ms", options_.default_timeout_ms);
  if (!timeout_ms.ok()) return ErrorResponse(timeout_ms.status());
  StatusOr<int64_t> mem_limit_mb = request.FindInt("mem_limit_mb", 0);
  if (!mem_limit_mb.ok()) return ErrorResponse(mem_limit_mb.status());
  StatusOr<int64_t> want_rows = request.FindInt("rows", 0);
  if (!want_rows.ok()) return ErrorResponse(want_rows.status());

  // Per-query hard limit: what the client asked for, clamped to the
  // service cap; the cap itself when it asked for nothing.
  int64_t mem_limit_bytes = *mem_limit_mb > 0 ? (*mem_limit_mb << 20) : 0;
  if (options_.client_mem_limit_bytes > 0 &&
      (mem_limit_bytes <= 0 ||
       mem_limit_bytes > options_.client_mem_limit_bytes)) {
    mem_limit_bytes = options_.client_mem_limit_bytes;
  }

  // -- Admission: may queue; sheds or rejects with a clean error.
  StatusOr<Admission> admitted =
      admission_.Admit(mem_limit_bytes, *timeout_ms);
  if (!admitted.ok()) return ErrorResponse(admitted.status());

  // Chaos-harness crash step: die like kill -9 right after taking an
  // admission slot — the successor process must find a clean slate.
  CrashInjector::MaybeCrash("query-admitted");

  WireMessage response;
  {
    // The query scope: the context (and with it the per-query spill
    // subdirectory and every tracker byte) dies before the admission slot
    // is released, so an admitted successor never sees leftovers.
    QueryContext::Limits limits;
    limits.mem_limit_bytes = mem_limit_bytes;
    limits.timeout_ms = *timeout_ms;
    limits.spill_dir = options_.spill_dir;
    limits.parent_tracker = &root_;
    QueryContext ctx(limits);
    ctx.Arm();
    cancels_.Register(ctx.cancel_token());

    Optimizer::Options opts;
    opts.approach = approach;
    opts.plan_policy = plan_policy;
    opts.num_threads = options_.num_threads;
    opts.sizes_only_fallback_ms = options_.admission.degrade_below_ms;
    opts.plan_cache = plan_cache_.get();
    Optimizer opt{opts};

    // The admission verdict can force degraded planning outright (the
    // queue ate the deadline); otherwise OptimizeGoverned re-checks the
    // remaining time itself.
    Optimizer::Optimized best = admitted->degrade_plan
                                    ? opt.OptimizeSizesOnly(*plan, *db_)
                                    : opt.OptimizeGoverned(*plan, *db_, &ctx);
    if (best.stats.degraded) Counters().degraded->Increment();

    ExecStats exec_stats;
    StatusOr<Relation> result =
        opt.ExecuteGoverned(*best.plan, *db_, &ctx, &exec_stats);
    cancels_.Unregister(ctx.cancel_token());

    // Chaos-harness crash step: die with the result computed but the
    // response unsent and the query scope (spill dir, tracker bytes)
    // still alive — the nastiest point for crash-safety.
    CrashInjector::MaybeCrash("query-executed");

    if (!result.ok()) {
      response = ErrorResponse(result.status());
    } else {
      response.type = "RESULT";
      response.Add("status", StatusCodeName(StatusCode::kOk));
      response.AddInt("rows", result->NumRows());
      if (*want_rows != 0) response.Add("data", RelationToTbl(*result));
    }
    response.AddInt("degraded", best.stats.degraded ? 1 : 0);
    if (best.stats.degraded) {
      response.Add("trigger", BudgetTriggerName(best.stats.trigger));
    }
    // Which planner actually produced the plan ("sizes-only" when the
    // admission verdict or a budget trip displaced the requested policy).
    response.Add("policy", best.provenance.policy);
    response.AddInt("queue_wait_ms", admitted->queue_wait_ms);
    response.AddInt("peak_bytes", exec_stats.peak_bytes);
  }
  admission_.Release(*admitted);
  return response;
}

}  // namespace eca
