// ecatool — command-line front end for the library.
//
//   ecatool gen-tpch <sf> <dir>
//       Generate TPC-H-style .tbl files (supplier, partsupp, part,
//       lineitem, orders) at the given scale factor.
//
//   ecatool orderings "<plan>" --pred name="<expr>" ...
//       List every join ordering of the query and which approach
//       (TBA / CBA / ECA) can realize it.
//
//   ecatool explain "<plan>" --pred name="<expr>" ... [--rows N]
//           [--approach eca|tba|cba] [--data <dir>] [--threads N]
//           [--morsel-rows N] [--chunk-rows N]
//           [--explain-stats] [--timeout-ms N] [--mem-limit-mb N]
//       Optimize the query — with all three approaches, or just the one
//       named by --approach — and print plans, costs and EXPLAIN ANALYZE.
//       Data is random (N rows per relation) unless --data names a
//       directory of R<i>.tbl files (columns k,a,b as written by the
//       generators; see gen-tpch for TPC-H-style tables). --threads runs
//       the executions on a worker pool; results are identical for every
//       thread count
//       (docs/performance.md). --explain-stats additionally prints the
//       full EnumeratorStats of each optimization (search-tree nodes,
//       memo reuses, cost evaluations, cloned nodes, budget
//       trigger, ...) together with its wall-clock time.
//
//       --trace-out=<file.json> (or --trace-out <file.json>) records a
//       Chrome-trace/Perfetto span timeline of the whole run — optimizer
//       phases, waves, operator build/probe/partition/spill phases,
//       governor instants — and writes it when the command finishes.
//       --metrics prints, per approach, the delta of the process metrics
//       registry (docs/observability.md) over that approach's
//       optimize+execute; --metrics-json prints one cumulative JSON
//       snapshot of the registry on the last line instead of tables.
//
//       --timeout-ms and --mem-limit-mb run each approach under the
//       resource governor (docs/robustness.md): the deadline covers
//       enumeration and execution end to end, the memory limit makes hash
//       joins spill (grace join) and best-matches sort externally past the
//       soft threshold, and exhausting either produces a clean diagnostic
//       and exit 1 instead of an abort or OOM kill. Governed runs print
//       the governor counters (peak_bytes, spilled_partitions, ...).
//
//       Governed runs also handle Ctrl-C cleanly: SIGINT/SIGTERM fire the
//       query's CancelToken, the executor unwinds with kCancelled
//       releasing every tracker byte and its spill files, and ecatool
//       exits 130. --spill-dir places spill files under a per-query
//       subdirectory of the given directory; --self-interrupt-ms N raises
//       SIGINT from a timer thread (the deterministic test hook for the
//       Ctrl-C contract).
//
//   ecatool sweep-spill-dir <dir>
//       Reclaim per-query spill subdirectories orphaned by crashed
//       processes (docs/robustness.md, "Crash-safe spilling").
//
// Plan syntax is the library's compact notation, e.g.
//   "(R0 laj[p01] (R1 laj[p12] R2))"
// with predicates like --pred p01="R0.a = R1.a".
//
// Bad arguments, unknown approach names, unreadable or malformed data
// files and invalid plans all produce a diagnostic on stderr and a
// nonzero exit — never an abort.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "algebra/plan_parser.h"
#include "algebra/validate.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "eca/optimizer.h"
#include "enumerate/join_order.h"
#include "exec/explain.h"
#include "expr/pred_parser.h"
#include "storage/csv.h"
#include "storage/spill_file.h"
#include "testing/random_data.h"
#include "tpch/tpch_gen.h"

namespace eca {
namespace {

// Clean Ctrl-C for governed runs (docs/robustness.md, "Service
// hardening"): SIGINT/SIGTERM fire the active query's CancelToken — an
// atomic store, async-signal-safe — so the executor unwinds with
// kCancelled, releases every tracker byte and removes its spill
// subdirectory, and ecatool exits 130 with a diagnostic instead of dying
// mid-spill.
std::atomic<CancelToken*> g_active_cancel{nullptr};
volatile std::sig_atomic_t g_interrupted = 0;

void HandleInterrupt(int) {
  g_interrupted = 1;
  CancelToken* token = g_active_cancel.load(std::memory_order_acquire);
  if (token != nullptr) token->Cancel();
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ecatool gen-tpch <sf> <dir>\n"
               "  ecatool orderings \"<plan>\" --pred name=\"<expr>\"...\n"
               "  ecatool explain \"<plan>\" --pred name=\"<expr>\"... "
               "[--rows N] [--approach eca|tba|cba] "
               "[--policy dp|sizes-only|greedy|semijoin] [--data <dir>] "
               "[--threads N] [--morsel-rows N] [--chunk-rows N] "
               "[--explain-stats] "
               "[--timeout-ms N] [--mem-limit-mb N] [--spill-dir <dir>] "
               "[--trace-out <file.json>] [--metrics] [--metrics-json]\n"
               "  ecatool sweep-spill-dir <dir>\n");
  return 2;
}

// Strict base-10 parse for numeric flags: rejects empty values, trailing
// garbage ("12abc"), out-of-range input and anything below `min`, with a
// diagnostic naming the flag. atoi-style silent truncation turned flag
// typos into surprising-but-valid runs.
bool ParseIntFlag(const char* flag, const char* text, int64_t min,
                  int64_t* out) {
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min) {
    std::fprintf(stderr, "bad %s value '%s' (want an integer >= %lld)\n",
                 flag, text, static_cast<long long>(min));
    return false;
  }
  *out = value;
  return true;
}

// Optional-flag sink for explain: approaches to run and a data directory.
struct ExplainArgs {
  std::vector<Optimizer::Approach> approaches;
  // Plan policy applied to every listed approach
  // (docs/planner-policies.md); provenance records it per plan.
  PlanPolicy policy = PlanPolicy::kDp;
  std::string data_dir;
  int num_threads = 1;
  int64_t morsel_rows = 0;  // 0 = executor default
  int64_t chunk_rows = 0;   // 0 = executor default
  bool explain_stats = false;
  int64_t timeout_ms = 0;     // 0 = no deadline
  int64_t mem_limit_mb = 0;   // 0 = no memory limit
  std::string spill_dir;      // "" = system temp dir
  // Test hook for the Ctrl-C contract: raise SIGINT from a timer thread
  // after N ms, exercising the real signal handler deterministically.
  int64_t self_interrupt_ms = 0;
  std::string trace_out;      // empty = tracing stays disabled
  bool metrics = false;
  bool metrics_json = false;

  bool governed() const { return timeout_ms > 0 || mem_limit_mb > 0; }
};

bool ParsePredArgs(int argc, char** argv, int start,
                   std::map<std::string, PredRef>* preds, int* rows,
                   ExplainArgs* explain = nullptr) {
  for (int i = start; i < argc; ++i) {
    if (explain != nullptr && std::strcmp(argv[i], "--approach") == 0 &&
        i + 1 < argc) {
      auto approach = Optimizer::ParseApproach(argv[++i]);
      if (!approach.ok()) {
        std::fprintf(stderr, "%s\n", approach.status().ToString().c_str());
        return false;
      }
      explain->approaches.push_back(*approach);
    } else if (explain != nullptr && std::strcmp(argv[i], "--policy") == 0 &&
               i + 1 < argc) {
      auto policy = ParsePlanPolicy(argv[++i]);
      if (!policy.ok()) {
        std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
        return false;
      }
      explain->policy = *policy;
    } else if (explain != nullptr && std::strcmp(argv[i], "--data") == 0 &&
               i + 1 < argc) {
      explain->data_dir = argv[++i];
    } else if (explain != nullptr && std::strcmp(argv[i], "--threads") == 0 &&
               i + 1 < argc) {
      int64_t threads = 0;
      if (!ParseIntFlag("--threads", argv[++i], 1, &threads)) return false;
      if (threads > 4096) {
        std::fprintf(stderr, "bad --threads value '%s' (want <= 4096)\n",
                     argv[i]);
        return false;
      }
      explain->num_threads = static_cast<int>(threads);
    } else if (explain != nullptr &&
               std::strcmp(argv[i], "--morsel-rows") == 0 && i + 1 < argc) {
      if (!ParseIntFlag("--morsel-rows", argv[++i], 1,
                        &explain->morsel_rows)) {
        return false;
      }
    } else if (explain != nullptr &&
               std::strcmp(argv[i], "--chunk-rows") == 0 && i + 1 < argc) {
      if (!ParseIntFlag("--chunk-rows", argv[++i], 1, &explain->chunk_rows)) {
        return false;
      }
    } else if (explain != nullptr &&
               std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      if (!ParseIntFlag("--timeout-ms", argv[++i], 1, &explain->timeout_ms)) {
        return false;
      }
    } else if (explain != nullptr &&
               std::strcmp(argv[i], "--mem-limit-mb") == 0 && i + 1 < argc) {
      if (!ParseIntFlag("--mem-limit-mb", argv[++i], 1,
                        &explain->mem_limit_mb)) {
        return false;
      }
    } else if (explain != nullptr &&
               std::strcmp(argv[i], "--spill-dir") == 0 && i + 1 < argc) {
      explain->spill_dir = argv[++i];
    } else if (explain != nullptr &&
               std::strcmp(argv[i], "--self-interrupt-ms") == 0 &&
               i + 1 < argc) {
      if (!ParseIntFlag("--self-interrupt-ms", argv[++i], 1,
                        &explain->self_interrupt_ms)) {
        return false;
      }
    } else if (explain != nullptr &&
               std::strcmp(argv[i], "--explain-stats") == 0) {
      explain->explain_stats = true;
    } else if (explain != nullptr &&
               std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      explain->trace_out = argv[i] + 12;
      if (explain->trace_out.empty()) {
        std::fprintf(stderr, "bad --trace-out value (want a file path)\n");
        return false;
      }
    } else if (explain != nullptr &&
               std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      explain->trace_out = argv[++i];
    } else if (explain != nullptr &&
               std::strcmp(argv[i], "--metrics") == 0) {
      explain->metrics = true;
    } else if (explain != nullptr &&
               std::strcmp(argv[i], "--metrics-json") == 0) {
      explain->metrics_json = true;
    } else if (std::strcmp(argv[i], "--pred") == 0 && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "bad --pred spec '%s'\n", spec.c_str());
        return false;
      }
      std::string name = spec.substr(0, eq);
      std::string expr = spec.substr(eq + 1);
      std::string error;
      PredRef p = ParsePredicate(expr, name, &error);
      if (p == nullptr) {
        std::fprintf(stderr, "cannot parse predicate '%s': %s\n",
                     expr.c_str(), error.c_str());
        return false;
      }
      (*preds)[name] = std::move(p);
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      int64_t parsed = 0;
      if (!ParseIntFlag("--rows", argv[++i], 1, &parsed)) return false;
      if (parsed > (int64_t{1} << 30)) {
        std::fprintf(stderr, "bad --rows value '%s' (want <= 2^30)\n",
                     argv[i]);
        return false;
      }
      *rows = static_cast<int>(parsed);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return false;
    }
  }
  return true;
}

Database RandomDataFor(const Plan& plan, int rows) {
  Rng rng(12345);
  RandomDataOptions opts;
  opts.min_rows = rows;
  opts.max_rows = rows;
  opts.empty_prob = 0;
  int max_rel = 0;
  for (int id : plan.leaves()) max_rel = std::max(max_rel, id);
  Database db;
  for (int i = 0; i <= max_rel; ++i) {
    db.Add(RandomRelation(rng, i, opts));
  }
  return db;
}

// Loads R<i>.tbl from `dir` for every relation the plan touches, in the
// generators' (k, a, b) int64 schema.
StatusOr<Database> DataFromDir(const Plan& plan, const std::string& dir) {
  int max_rel = 0;
  for (int id : plan.leaves()) max_rel = std::max(max_rel, id);
  Database db;
  for (int i = 0; i <= max_rel; ++i) {
    Schema schema({{i, "k", DataType::kInt64},
                   {i, "a", DataType::kInt64},
                   {i, "b", DataType::kInt64}});
    Relation rel{schema};
    ECA_RETURN_IF_ERROR(
        ReadRelationFile(dir + "/R" + std::to_string(i) + ".tbl", schema,
                         &rel));
    db.Add(std::move(rel));
  }
  return db;
}

int GenTpch(int argc, char** argv) {
  if (argc < 4) return Usage();
  char* end = nullptr;
  double sf = std::strtod(argv[2], &end);
  if (end == argv[2] || *end != '\0' || sf <= 0) {
    std::fprintf(stderr, "bad scale factor '%s' (want a positive number)\n",
                 argv[2]);
    return 2;
  }
  std::string dir = argv[3];
  TpchData data = GenerateTpch(TpchScale::OfSF(sf), 42);
  struct {
    const char* name;
    const Relation* rel;
  } tables[] = {
      {"supplier", &data.supplier}, {"partsupp", &data.partsupp},
      {"part", &data.part},         {"lineitem", &data.lineitem},
      {"orders", &data.orders},
  };
  for (const auto& t : tables) {
    std::string path = dir + "/" + t.name + ".tbl";
    if (!WriteRelationFile(path, *t.rel)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("%-10s %8lld rows -> %s\n", t.name,
                static_cast<long long>(t.rel->NumRows()), path.c_str());
  }
  return 0;
}

int Orderings(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::map<std::string, PredRef> preds;
  int rows = 8;
  if (!ParsePredArgs(argc, argv, 3, &preds, &rows)) return 2;
  std::string error;
  PlanPtr plan = ParsePlan(argv[2], preds, &error);
  if (plan == nullptr) {
    std::fprintf(stderr, "cannot parse plan: %s\n", error.c_str());
    return 2;
  }
  // Validate against the synthetic (k, a, b) schemas the data generators
  // use, so a hand-typed plan with duplicate leaves or a typo'd column
  // fails with a diagnostic instead of aborting mid-reorder.
  Status valid =
      ValidatePlanStatus(*plan, RandomDataFor(*plan, 1).BaseSchemas());
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  Optimizer::Options tba_opts;
  tba_opts.approach = Optimizer::Approach::kTBA;
  Optimizer::Options cba_opts;
  cba_opts.approach = Optimizer::Approach::kCBA;
  Optimizer tba{tba_opts};
  Optimizer cba{cba_opts};
  Optimizer eca;
  auto thetas =
      AllJoinOrderingTrees(plan->leaves(), PredicateRefSets(*plan));
  std::printf("JoinOrder(Q): %zu orderings\n", thetas.size());
  for (const OrderingNodePtr& theta : thetas) {
    PlanPtr via_eca = eca.Reorder(*plan, *theta);
    std::printf("%-32s TBA:%s CBA:%s ECA:%s\n", theta->Key().c_str(),
                tba.Reorder(*plan, *theta) ? "yes" : " no",
                cba.Reorder(*plan, *theta) ? "yes" : " no",
                via_eca ? "yes" : " no");
    if (via_eca != nullptr) {
      std::printf("    %s\n", via_eca->ToInlineString().c_str());
    }
  }
  return 0;
}

int Explain(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::map<std::string, PredRef> preds;
  int rows = 64;
  ExplainArgs extra;
  if (!ParsePredArgs(argc, argv, 3, &preds, &rows, &extra)) return 2;
  std::string error;
  PlanPtr plan = ParsePlan(argv[2], preds, &error);
  if (plan == nullptr) {
    std::fprintf(stderr, "cannot parse plan: %s\n", error.c_str());
    return 2;
  }
  Database db;
  if (!extra.data_dir.empty()) {
    StatusOr<Database> loaded = DataFromDir(*plan, extra.data_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load data from '%s': %s\n",
                   extra.data_dir.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    db = std::move(loaded).value();
  } else {
    db = RandomDataFor(*plan, rows);
  }
  if (extra.approaches.empty()) {
    extra.approaches = {Optimizer::Approach::kTBA, Optimizer::Approach::kCBA,
                        Optimizer::Approach::kECA};
  }
  struct JoinOnExit {
    std::thread t;
    ~JoinOnExit() {
      if (t.joinable()) t.join();
    }
  } interrupt_timer;
  if (extra.governed()) {
    // OptimizeGoverned skips the validating front door, so validate the
    // hand-typed plan here once for all approaches.
    Status valid = ValidatePlanStatus(*plan, db.BaseSchemas());
    if (!valid.ok()) {
      std::fprintf(stderr, "%s\n", valid.ToString().c_str());
      return 1;
    }
    std::signal(SIGINT, HandleInterrupt);
    std::signal(SIGTERM, HandleInterrupt);
    if (extra.self_interrupt_ms > 0) {
      interrupt_timer.t = std::thread([ms = extra.self_interrupt_ms] {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        std::raise(SIGINT);
      });
    }
  }
  if (!extra.trace_out.empty()) Tracer::Enable();
  std::printf("query:\n%s\n", plan->ToString().c_str());
  for (auto approach : extra.approaches) {
    MetricsSnapshot metrics_before;
    if (extra.metrics) {
      metrics_before = MetricsRegistry::Global().Snapshot();
    }
    Optimizer::Options opts;
    opts.approach = approach;
    opts.plan_policy = extra.policy;
    opts.num_threads = extra.num_threads;
    if (extra.morsel_rows > 0) {
      opts.exec_tuning.morsel_rows = static_cast<int>(extra.morsel_rows);
    }
    if (extra.chunk_rows > 0) {
      opts.exec_tuning.chunk_rows = static_cast<int>(extra.chunk_rows);
    }
    Optimizer opt{opts};
    // Each approach runs as its own governed query: fresh tracker, fresh
    // deadline, so --timeout-ms bounds every optimize+execute pair.
    QueryContext::Limits limits;
    limits.mem_limit_bytes = extra.mem_limit_mb << 20;
    limits.timeout_ms = extra.timeout_ms;
    limits.spill_dir = extra.spill_dir;
    QueryContext ctx(limits);
    if (extra.governed()) {
      ctx.Arm();
      g_active_cancel.store(ctx.cancel_token(), std::memory_order_release);
    }
    auto opt_start = std::chrono::steady_clock::now();
    StatusOr<Optimizer::Optimized> best =
        extra.governed()
            ? StatusOr<Optimizer::Optimized>(
                  opt.OptimizeGoverned(*plan, db, &ctx))
            : opt.OptimizeChecked(*plan, db);
    double opt_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - opt_start)
                        .count();
    if (!best.ok()) {
      std::fprintf(stderr, "%s\n", best.status().ToString().c_str());
      return 1;
    }
    // One execution of the chosen plan — governed when the flags ask for
    // it — yields the result, the EXPLAIN ANALYZE profile, and the
    // self-check or governor counters below.
    ExecStats xs;
    StatusOr<Relation> res =
        extra.governed()
            ? opt.ExecuteGoverned(*best->plan, db, &ctx, &xs)
            : StatusOr<Relation>(opt.Execute(*best->plan, db, &xs));
    std::printf("---- %s (estimated cost %.1f) ----\n%s",
                Optimizer::ApproachName(approach), best->estimated_cost,
                ExplainAnalyze(*best->plan, xs).c_str());
    std::printf("%s", best->provenance.ToString().c_str());
    if (extra.explain_stats) {
      const EnumeratorStats& s = best->stats;
      std::printf(
          "enumerator stats (optimized in %.2f ms):\n"
          "  subplan_calls=%lld pairs_considered=%lld\n"
          "  swaps_attempted=%lld swaps_failed=%lld "
          "swap_chain_guard_trips=%lld\n"
          "  plans_completed=%lld reuses=%lld cache_entries=%lld "
          "sig_collisions=%lld\n"
          "  cost_evals=%lld cloned_nodes=%lld\n"
          "  degraded=%s trigger=%s\n",
          opt_ms, static_cast<long long>(s.subplan_calls),
          static_cast<long long>(s.pairs_considered),
          static_cast<long long>(s.swaps_attempted),
          static_cast<long long>(s.swaps_failed),
          static_cast<long long>(s.swap_chain_guard_trips),
          static_cast<long long>(s.plans_completed),
          static_cast<long long>(s.reuses),
          static_cast<long long>(s.cache_entries),
          static_cast<long long>(s.sig_collisions),
          static_cast<long long>(s.cost_evals),
          static_cast<long long>(s.cloned_nodes),
          s.degraded ? "yes" : "no", BudgetTriggerName(s.trigger));
    }
    if (extra.governed()) {
      std::printf(
          "governor: degraded=%s peak_bytes=%lld spilled_partitions=%lld "
          "spill_bytes=%lld spill_read_bytes=%lld spilled_sort_runs=%lld\n",
          best->stats.degraded ? "yes" : "no",
          static_cast<long long>(xs.peak_bytes),
          static_cast<long long>(xs.spilled_partitions),
          static_cast<long long>(xs.spill_bytes),
          static_cast<long long>(xs.spill_read_bytes),
          static_cast<long long>(xs.spilled_sort_runs));
      g_active_cancel.store(nullptr, std::memory_order_release);
      if (!res.ok()) {
        if (g_interrupted != 0 &&
            res.status().code() == StatusCode::kCancelled) {
          std::fprintf(stderr,
                       "ecatool: interrupted — query cancelled cleanly "
                       "(tracker=%lld bytes)\n",
                       static_cast<long long>(ctx.tracker()->used()));
          return 130;
        }
        std::fprintf(stderr, "%s\n", res.status().ToString().c_str());
        return 1;
      }
      std::printf("rows: %lld\n\n", static_cast<long long>(res->NumRows()));
    } else {
      Relation a = opt.Execute(*plan, db);
      std::printf("result matches query: %s\n\n",
                  SameMultiset(CanonicalizeColumnOrder(a),
                               CanonicalizeColumnOrder(*res))
                      ? "yes"
                      : "NO!");
    }
    if (extra.metrics) {
      MetricsSnapshot delta =
          MetricsRegistry::Global().Snapshot().DiffSince(metrics_before);
      std::printf("metrics (%s):\n%s\n", Optimizer::ApproachName(approach),
                  delta.ToTable().c_str());
    }
  }
  // A self-interrupt that fired after the last query completed still ends
  // the run as an interruption: wait for the timer, then report.
  if (interrupt_timer.t.joinable()) interrupt_timer.t.join();
  if (g_interrupted != 0) {
    std::fprintf(stderr, "ecatool: interrupted\n");
    return 130;
  }
  if (!extra.trace_out.empty()) {
    Status written = Tracer::WriteJson(extra.trace_out);
    Tracer::Disable();
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("trace: %lld events (%lld dropped) -> %s\n",
                static_cast<long long>(Tracer::EventCount()),
                static_cast<long long>(Tracer::DroppedCount()),
                extra.trace_out.c_str());
  }
  if (extra.metrics_json) {
    std::printf("%s\n", MetricsRegistry::Global().Snapshot().ToJson().c_str());
  }
  return 0;
}

// Crash recovery for standalone runs: reclaim per-query spill
// subdirectories whose owning process is gone (a crashed or killed -9
// ecatool/ecad left them behind). The ecad service runs the same sweep on
// startup; this subcommand covers operator-driven cleanup.
int SweepSpillDir(int argc, char** argv) {
  if (argc < 3) return Usage();
  int64_t swept = SweepOrphanQuerySpillDirs(argv[2]);
  std::printf("swept %lld orphaned spill dirs under %s\n",
              static_cast<long long>(swept), argv[2]);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "gen-tpch") == 0) return GenTpch(argc, argv);
  if (std::strcmp(argv[1], "orderings") == 0) return Orderings(argc, argv);
  if (std::strcmp(argv[1], "explain") == 0) return Explain(argc, argv);
  if (std::strcmp(argv[1], "sweep-spill-dir") == 0 ||
      std::strcmp(argv[1], "--sweep-spill-dir") == 0) {
    return SweepSpillDir(argc, argv);
  }
  return Usage();
}

}  // namespace
}  // namespace eca

int main(int argc, char** argv) { return eca::Main(argc, argv); }
