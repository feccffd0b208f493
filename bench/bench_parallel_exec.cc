// bench_parallel_exec — scaling of the morsel-driven vectorized executor on
// the Figure 6 workload (Q2/Q3 at the largest default scale), at 1/2/4
// threads.
//
//   bench_parallel_exec [--sf X] [--nu V] [--iters N] [--out FILE]
//                       [--morsel-rows N] [--chunk-rows N]
//
// Every multi-threaded result is checked byte-for-byte (rows AND order)
// against the single-threaded run before any timing is reported — a speedup
// on wrong or reordered output would be meaningless. Timings and build
// stats go to FILE (default BENCH_exec.json); the speedup column reports
// t(1 thread) / t(N threads) on this machine, so expect ~1.0x on a
// single-core CI box and real scaling on multi-core hardware. The CI gate
// (tools/bench_check.py) compares these speedup RATIOS against the
// committed baseline — a change that reintroduces cross-thread barriers
// shows up as sub-1.0 ratios on any machine, single-core included (see
// docs/performance.md).
//
// beta_ms (informational, not gated) is the own time of the plan's beta
// and gamma* nodes, read from the executor's per-node profile: the
// best-match work that runs on one thread at every thread count.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "enumerate/realize.h"
#include "exec/executor.h"
#include "tpch/paper_queries.h"

#include "fig6_common.h"

namespace eca {
namespace {

bool ByteIdentical(const Relation& a, const Relation& b) {
  if (!(a.schema() == b.schema()) || a.NumRows() != b.NumRows()) return false;
  for (int64_t r = 0; r < a.NumRows(); ++r) {
    const Tuple& x = a.rows()[static_cast<size_t>(r)];
    const Tuple& y = b.rows()[static_cast<size_t>(r)];
    for (size_t c = 0; c < x.size(); ++c) {
      if (x[c].is_null() != y[c].is_null()) return false;
      if (!x[c].is_null() && x[c].Compare(y[c]) != 0) return false;
    }
  }
  return true;
}

// Own time of `plan`'s beta and gamma* nodes in `stats.profile` (which
// lists the nodes in preorder).
double BetaMs(const Plan& plan, const ExecStats& stats) {
  std::vector<const Plan*> stack = {&plan};
  double ms = 0;
  for (size_t i = 0; !stack.empty() && i < stats.profile.size(); ++i) {
    const Plan* node = stack.back();
    stack.pop_back();
    if (node->kind() == Plan::Kind::kComp) {
      CompOp::Kind k = node->comp().kind;
      if (k == CompOp::Kind::kBeta || k == CompOp::Kind::kGammaStar) {
        ms += stats.profile[i].own_ms;
      }
      stack.push_back(node->child());
    } else if (node->kind() == Plan::Kind::kJoin) {
      stack.push_back(node->right());
      stack.push_back(node->left());
    }
  }
  return ms;
}

struct Run {
  int threads = 1;
  double ms = 0;
  double beta_ms = 0;
  ExecStats stats;
  Relation result{Schema(std::vector<Column>())};
};

Run TimeWithThreads(const Plan& plan, const Database& db, int threads,
                    int iters, const ExecTuning& tuning) {
  Run run;
  run.threads = threads;
  run.ms = 1e300;
  for (int i = 0; i < iters; ++i) {
    Executor ex(
        Executor::Options{Executor::JoinPreference::kHash, threads, tuning});
    auto t0 = std::chrono::steady_clock::now();
    Relation out = ex.Execute(plan, db);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < run.ms) {
      run.ms = ms;
      run.stats = ex.stats();
      run.beta_ms = BetaMs(plan, run.stats);
      run.result = std::move(out);
    }
  }
  return run;
}

struct Workload {
  std::string query;
  std::string plan_kind;  // "direct" or "eca-compensated"
  int64_t rows_out = 0;
  bool identical = true;
  std::vector<Run> runs;
};

void AppendRunJson(std::string* out, const Run& r, double base_ms) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "        {\"threads\": %d, \"ms\": %.3f, \"speedup\": %.3f, "
      "\"join_ms\": %.3f, \"comp_ms\": %.3f, \"beta_ms\": %.3f, "
      "\"hash_build_rows\": %lld}",
      r.threads, r.ms, r.ms > 0 ? base_ms / r.ms : 0.0, r.stats.join_ms,
      r.stats.comp_ms, r.beta_ms,
      static_cast<long long>(r.stats.hash_build_rows));
  *out += buf;
}

int Main(int argc, char** argv) {
  double sf = 0.02;  // the largest default Figure 6 scale ("100GB-analog")
  double nu = 50;
  int iters = 3;
  std::string out_path = "BENCH_exec.json";
  ExecTuning tuning;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sf") == 0 && i + 1 < argc) {
      sf = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--nu") == 0 && i + 1 < argc) {
      nu = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--morsel-rows") == 0 && i + 1 < argc) {
      tuning.morsel_rows = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--chunk-rows") == 0 && i + 1 < argc) {
      tuning.chunk_rows = std::atoll(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_parallel_exec [--sf X] [--nu V] "
                   "[--iters N] [--out FILE] [--morsel-rows N] "
                   "[--chunk-rows N]\n");
      return 2;
    }
  }
  if (tuning.morsel_rows < 1 || tuning.chunk_rows < 1) {
    std::fprintf(stderr, "--morsel-rows/--chunk-rows must be >= 1\n");
    return 2;
  }
  const std::vector<int> kThreads = {1, 2, 4};

  TpchData data = GenerateTpch(TpchScale::OfSF(sf), 42);
  std::printf("==== parallel partitioned execution: Figure 6 workload, "
              "SF %.3f, nu %.0f (best of %d) ====\n",
              sf, nu, iters);
  std::printf("(%lld supplier, %lld partsupp, %lld lineitem rows)\n\n",
              static_cast<long long>(data.supplier.NumRows()),
              static_cast<long long>(data.partsupp.NumRows()),
              static_cast<long long>(data.lineitem.NumRows()));

  std::vector<Workload> workloads;
  bool all_identical = true;
  for (int which : {2, 3}) {
    PaperQuery q = which == 2 ? BuildQ2(data, nu) : BuildQ3(data, nu);
    OrderingNodePtr theta =
        bench::EcaTargetOrdering(q.plan->leaves().Count());
    PlanPtr eca = RealizeOrdering(*q.plan, *theta, SwapPolicy::kECA);
    if (eca == nullptr) {
      std::fprintf(stderr, "ECA reordering unexpectedly infeasible\n");
      return 1;
    }
    struct {
      const char* kind;
      const Plan* plan;
    } plans[] = {{"direct", q.plan.get()}, {"eca-compensated", eca.get()}};
    for (const auto& p : plans) {
      Workload w;
      w.query = q.name;
      w.plan_kind = p.kind;
      std::printf("-- %s, %s plan\n", q.name.c_str(), p.kind);
      std::printf("%8s %10s %8s %10s %10s %10s %12s\n", "threads", "ms",
                  "speedup", "join_ms", "comp_ms", "beta_ms", "build_rows");
      double base_ms = 0;
      for (int t : kThreads) {
        w.runs.push_back(TimeWithThreads(*p.plan, q.db, t, iters, tuning));
        Run& r = w.runs.back();
        if (t == 1) {
          base_ms = r.ms;
          w.rows_out = r.result.NumRows();
        } else if (!ByteIdentical(w.runs.front().result, r.result)) {
          w.identical = false;
          all_identical = false;
        }
        std::printf("%8d %10.2f %7.2fx %10.2f %10.2f %10.2f %12lld\n", t,
                    r.ms, r.ms > 0 ? base_ms / r.ms : 0.0, r.stats.join_ms,
                    r.stats.comp_ms, r.beta_ms,
                    static_cast<long long>(r.stats.hash_build_rows));
      }
      std::printf("rows out: %lld, results byte-identical: %s\n\n",
                  static_cast<long long>(w.rows_out),
                  w.identical ? "yes" : "NO!");
      workloads.push_back(std::move(w));
    }
  }

  std::string json = "{\n  \"bench\": \"parallel_exec\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"sf\": %.4f,\n  \"nu\": %.1f,\n  \"iters\": %d,\n"
                "  \"morsel_rows\": %lld,\n  \"chunk_rows\": %lld,\n",
                sf, nu, iters, static_cast<long long>(tuning.morsel_rows),
                static_cast<long long>(tuning.chunk_rows));
  json += buf;
  json += "  \"workloads\": [\n";
  for (size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"query\": \"%s\", \"plan\": \"%s\", "
                  "\"rows_out\": %lld, \"identical\": %s,\n      \"runs\": [\n",
                  w.query.c_str(), w.plan_kind.c_str(),
                  static_cast<long long>(w.rows_out),
                  w.identical ? "true" : "false");
    json += buf;
    for (size_t r = 0; r < w.runs.size(); ++r) {
      AppendRunJson(&json, w.runs[r], w.runs[0].ms);
      json += r + 1 < w.runs.size() ? ",\n" : "\n";
    }
    json += "      ]}";
    json += i + 1 < workloads.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Exit status reflects correctness only, never machine-dependent timing.
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace eca

int main(int argc, char** argv) { return eca::Main(argc, argv); }
