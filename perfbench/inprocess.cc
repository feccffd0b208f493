// The in-process workloads, tpch-fig6 and job-dp. Each query goes through
// the library's front door (Optimizer::Optimize, then Execute, with the
// default options: ECA, dp, one thread) and is checked against the result
// of the query as written. The traced run replays the same queries through
// the public call of each layer in turn: CostModel::FromDatabase,
// TopDownEnumerator::Optimize, SimplifyCompensations and Executor.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "eca/optimizer.h"
#include "enumerate/enumerator.h"
#include "exec/query_context.h"
#include "harness.h"
#include "rewrite/comp_simplify.h"
#include "sqlgen/workload.h"
#include "storage/csv.h"
#include "testing/random_data.h"
#include "tpch/paper_queries.h"

namespace eca {
namespace perfbench {
namespace {

constexpr int kJobDraws = 32;         // databases per job-dp query shape
constexpr int64_t kJobMaxRows = 256;  // result cap of a job-dp database
constexpr int kSpillReps = 3;         // governed runs in the spill leg
constexpr uint64_t kTpchDataSeed = 42;  // the Figure 6 benches' SF seed

struct Query {
  std::string name;
  PlanPtr plan;  // the query as written
  const Database* db = nullptr;
  Oracle oracle;
  double written_exec_ms = 0;  // Execute of the query as written, set-up
};

// One in-process workload after set-up.
struct Suite {
  std::vector<std::unique_ptr<Database>> dbs;
  std::vector<Query> queries;
  double round_s = 1;  // nominal time of one round on a 4-core x86 box
};

void AddQuery(Suite* suite, std::string name, PlanPtr plan,
              const Database* db) {
  Query q;
  q.name = std::move(name);
  q.db = db;
  Clock::time_point t0 = Clock::now();
  Relation out = Executor().Execute(*plan, *db);
  q.written_exec_ms = MsSince(t0);
  q.oracle = Oracle(out);
  q.plan = std::move(plan);
  suite->queries.push_back(std::move(q));
}

// The three plan shapes of paper_queries.h, rebuilt per nu so that one
// database serves the whole sweep.
PlanPtr PaperPlan(int which, double nu) {
  PlanPtr inner = Plan::Leaf(kPartsupp);
  if (which >= 2) {
    inner = Plan::Join(JoinOp::kInner, PredP24(), std::move(inner),
                       Plan::Leaf(kLineitem));
  }
  if (which >= 3) {
    inner = Plan::Join(JoinOp::kInner, PredP45(), std::move(inner),
                       Plan::Leaf(kOrders));
  }
  return Plan::Join(JoinOp::kLeftAnti, PredP12(nu), Plan::Leaf(kSupplier),
                    Plan::Join(JoinOp::kLeftAnti, PredP23(),
                               std::move(inner), Plan::Leaf(kPart)));
}

Suite SetupTpchFig6(const Args& /*args*/) {
  Suite suite;
  suite.round_s = 6;  // five rounds, so five samples per query, at 30 s
  // One database per scale factor, as dbgen's is: at SF 0.02 the data
  // decides whether ECA picks the slow plan for Q2 at one nu or at two, so
  // data drawn per seed would make the tail a property of the seed. The
  // seed orders the queries.
  TpchData data = GenerateTpch(TpchScale::OfSF(0.02), kTpchDataSeed);
  // Figure 6's sweep plus nu=20: an odd number of queries puts the median
  // on one query's latency instead of halfway across the gap between two.
  const double kNus[] = {0, 5, 20, 50, 200, 1000, 5000};
  for (int which = 1; which <= 3; ++which) {
    PaperQuery base = which == 1   ? BuildQ1(data, 0)
                      : which == 2 ? BuildQ2(data, 0)
                                   : BuildQ3(data, 0);
    suite.dbs.push_back(std::make_unique<Database>(std::move(base.db)));
    for (double nu : kNus) {
      char name[32];
      std::snprintf(name, sizeof(name), "Q%d/nu=%g", which, nu);
      AddQuery(&suite, name, PaperPlan(which, nu), suite.dbs.back().get());
    }
  }
  return suite;
}

Suite SetupJobDp(const Args& args) {
  Suite suite;
  suite.round_s = 1.5;  // twenty rounds at 30 s
  Rng data_rng(args.seed);
  for (int rels = 8; rels <= 10; ++rels) {
    // Three chain shapes and two star shapes per size: fifteen in all, so
    // the median lands inside the chain-10 group rather than on the gap
    // between the chain and the (dearer) star queries.
    for (int shape = 0; shape < 5; ++shape) {
      Topology topology = shape < 3 ? Topology::kChain : Topology::kStar;
      // The query shapes are a fixed pool: a star's DP cost swings by 100x
      // with its predicates, so shapes drawn per seed would make the
      // medians a property of the seed. The seed draws the data, many
      // databases per shape, since the search's pruning (and so its cost)
      // also moves with the statistics.
      WorkloadOptions wopts;
      wopts.topology = topology;
      wopts.num_rels = rels;
      wopts.seed = static_cast<uint64_t>(rels) * 31 +
                   static_cast<uint64_t>(shape);
      // bench_policy's calibration: tiny relations over a tight domain, so
      // execution is negligible and planning is the whole query. No
      // relation is empty: an empty input moves the search cost more than
      // anything else the seed could draw.
      wopts.data.min_rows = 2;
      wopts.data.max_rows = 6;
      wopts.data.domain = 3;
      wopts.data.empty_prob = 0;
      Workload w = GenerateWorkload(wopts);
      for (int draw = 0; draw < kJobDraws; ++draw) {
        // Redraw the rare database on which the query as written blows up
        // (a hub value every spoke matches): execution stays negligible,
        // and one huge result would set peak_rss_mb.
        Database db;
        do {
          db = RandomDatabase(data_rng, rels, wopts.data);
        } while (Executor().Execute(*w.query, db).NumRows() > kJobMaxRows);
        suite.dbs.push_back(std::make_unique<Database>(std::move(db)));
        char name[48];
        std::snprintf(name, sizeof(name), "%s%d/%d/%d",
                      TopologyName(topology), rels, shape, draw);
        AddQuery(&suite, name, w.query->Clone(), suite.dbs.back().get());
      }
    }
  }
  return suite;
}

// Sets up `reps` times, timing each, and keeps the last suite.
Suite TimedSetup(Suite (*setup)(const Args&), int reps, const Args& args,
                 std::vector<double>* setup_s) {
  Suite suite;
  for (int rep = 0; rep < reps; ++rep) {
    suite = Suite();
    Clock::time_point t0 = Clock::now();
    suite = setup(args);
    setup_s->push_back(MsSince(t0) / 1000);
  }
  return suite;
}

// Runs whole rounds (every query once, in a seeded order), calling fn with
// each query's index, and returns the number of rounds. The round count is
// `seconds` over the suite's nominal round time, not a deadline: every run
// of a given length then takes the same number of samples from every
// query, whether the machine is a little faster or slower.
template <typename Fn>
long RunRounds(const Suite& suite, double seconds, Rng* rng, Fn&& fn) {
  std::vector<size_t> order(suite.queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  long rounds = std::max(1L, std::lround(seconds / suite.round_s));
  for (long r = 0; r < rounds; ++r) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(rng->Uniform(0, i - 1))]);
    }
    for (size_t i : order) fn(i);
  }
  return rounds;
}

void Mismatch(RunReport* report, const std::string& what) {
  report->correct = false;
  report->notes.push_back("MISMATCH: " + what +
                          " differs from the query as written");
}

// One query through the front door, timed from the Optimize call until
// the result has been verified. Each query keeps its best latency and its
// best Optimize call over the rounds: on a host shared with other tenants
// the same query's time swings by 15% or more with their load, and the
// best of several rounds spread over the run swings far less. The
// end-to-end metrics are taken over these per-query figures, and
// throughput is the rate one thread sustains at them.
void MeasureEndToEnd(const Suite& suite, double seconds, Rng* rng,
                     EndToEnd* e2e, RunReport* report) {
  Optimizer opt;
  const double kUnset = std::numeric_limits<double>::infinity();
  std::vector<double> latency(suite.queries.size(), kUnset);
  std::vector<double> plan(suite.queries.size(), kUnset);
  long rounds = RunRounds(suite, seconds, rng, [&](size_t i) {
    const Query& q = suite.queries[i];
    Clock::time_point t0 = Clock::now();
    Optimizer::Optimized best = opt.Optimize(*q.plan, *q.db);
    double plan_ms = MsSince(t0);
    Relation out = opt.Execute(*best.plan, *q.db);
    bool correct = q.oracle.Matches(out);
    latency[i] = std::min(latency[i], MsSince(t0));
    plan[i] = std::min(plan[i], plan_ms);
    ++report->attempted;
    if (!correct) Mismatch(report, q.name);
  });
  e2e->latency_ms = latency;
  e2e->plan_ms = plan;
  e2e->measured_s = 0;
  for (double ms : latency) e2e->measured_s += ms / 1000;
  report->notes.push_back("per query: the best of " + std::to_string(rounds) +
                          " rounds");
}

// The traced replay of one query: each layer's public call in turn, with
// a span and the counters the call returns. Returns the traced latency.
double TraceQuery(const Query& q, int64_t qid, SpanLog* log,
                  LayerSamples* layers, RunReport* report) {
  static Counter* const memo_probes =
      MetricsRegistry::Global().counter("memo.probes");
  static Counter* const memo_hits =
      MetricsRegistry::Global().counter("memo.hits");
  auto span = [&](const char* name, Clock::time_point a,
                  Clock::time_point b) {
    log->Add(name, qid, 0, a, b);
    return std::chrono::duration<double, std::milli>(b - a).count();
  };

  Clock::time_point t0 = Clock::now();
  CostModel cost = CostModel::FromDatabase(*q.db);
  Clock::time_point t1 = Clock::now();
  layers->Add("cost.build_ms", span("cost.build", t0, t1));

  int64_t probes0 = memo_probes->value(), hits0 = memo_hits->value();
  TopDownEnumerator enumerator(&cost, EnumeratorOptions{});
  TopDownEnumerator::Result found = enumerator.Optimize(*q.plan);
  Clock::time_point t2 = Clock::now();
  layers->Add("enumerate.ms", span("enumerate", t1, t2));
  AddEnumeratorStats(found.stats, layers);
  layers->Add("memo.probes",
              static_cast<double>(memo_probes->value() - probes0));
  layers->Add("memo.hits", static_cast<double>(memo_hits->value() - hits0));

  PlanPtr plan = std::move(found.plan);
  SimplifyCompensations(&plan);
  Clock::time_point t3 = Clock::now();
  layers->Add("rewrite.cleanup_ms", span("rewrite.cleanup", t2, t3));
  layers->Add("best_cost", cost.Cost(*plan));

  Executor ex;
  Clock::time_point t4 = Clock::now();
  Relation out = ex.Execute(*plan, *q.db);
  Clock::time_point t5 = Clock::now();
  double exec_ms = span("exec", t4, t5);
  AddExecStats(exec_ms, ex.stats(), layers);
  layers->Add("regret", exec_ms / q.written_exec_ms);

  bool correct = q.oracle.Matches(out);
  Clock::time_point t6 = Clock::now();
  layers->Add("oracle.verify_ms", span("verify", t5, t6));
  log->Add("query", qid, 1, t0, t6);
  ++report->attempted;
  if (!correct) Mismatch(report, q.name + " (traced)");

  // Off the in-process query path, measured on the same result and plan:
  // what ecad would spend serializing it and on the request's wire codec
  // and parser.
  Clock::time_point t7 = Clock::now();
  std::string tbl = RelationToTbl(out);
  layers->Add("storage.serialize_ms", MsSince(t7));
  layers->Add("service.response_bytes", static_cast<double>(tbl.size()));
  WireMessage response;
  response.type = "RESULT";
  response.Add("data", std::move(tbl));
  WireMessage request = QueryRequest(*q.plan, true);
  layers->Add("service.wire_us", WireMicros(request, response));
  layers->Add("algebra.parse_us", ParseMicros(request));
  return std::chrono::duration<double, std::milli>(t6 - t0).count();
}

// The storage layer's write/read path, on tpch-fig6's Q2 at nu=200:
// planned and executed under a QueryContext whose 64 KiB soft limit sends
// every hash join through the grace join and every best-match through the
// external sort (no hard limit). Spill time on a shared disk swings by 3x
// between runs, so the leg reports per-layer metrics only. Afterwards the
// root tracker must be back at zero and the spill directory empty.
void TraceSpillLeg(const Suite& suite, const Args& args, LayerSamples* layers,
                   RunReport* report) {
  const Query* q = nullptr;
  for (const Query& candidate : suite.queries) {
    if (candidate.name == "Q2/nu=200") q = &candidate;
  }
  if (q == nullptr) return;
  MemoryTracker root;
  QueryContext::Limits limits;
  limits.mem_soft_bytes = 64 << 10;
  limits.spill_dir = args.run_dir + "/spill";
  limits.parent_tracker = &root;
  std::filesystem::create_directories(limits.spill_dir);
  Optimizer opt;
  for (int rep = 0; rep < kSpillReps; ++rep) {
    ExecStats st;
    bool ok = false, correct = false;
    Clock::time_point t0 = Clock::now();
    {
      QueryContext ctx(limits);
      ctx.Arm();
      Optimizer::Optimized best = opt.OptimizeGoverned(*q->plan, *q->db, &ctx);
      StatusOr<Relation> out =
          opt.ExecuteGoverned(*best.plan, *q->db, &ctx, &st);
      ok = out.ok();
      correct = ok && q->oracle.Matches(*out);
    }
    layers->Add("storage.spilled_query_ms", MsSince(t0));
    constexpr double kMiB = 1 << 20;
    layers->Add("exec.peak_mb", static_cast<double>(st.peak_bytes) / kMiB);
    layers->Add("storage.spill_write_mb",
                static_cast<double>(st.spill_bytes) / kMiB);
    layers->Add("storage.spill_read_mb",
                static_cast<double>(st.spill_read_bytes) / kMiB);
    layers->Add("storage.spilled_partitions",
                static_cast<double>(st.spilled_partitions));
    layers->Add("storage.spilled_sort_runs",
                static_cast<double>(st.spilled_sort_runs));
    ++report->attempted;
    if (!ok) ++report->failed;
    if (ok && !correct) Mismatch(report, q->name + " (spilled)");
  }
  if (root.used() != 0) {
    report->correct = false;
    report->notes.push_back("LEAK: root MemoryTracker holds " +
                            std::to_string(root.used()) + " bytes");
  }
  if (!std::filesystem::is_empty(limits.spill_dir)) {
    report->correct = false;
    report->notes.push_back("LEAK: spill directory not empty");
  }
}

void ReportLayers(const LayerSamples& layers, const EndToEnd& untraced,
                  const std::vector<double>& traced_latency,
                  RunReport* report) {
  ReportLayerMedians(layers, report);
  double probes = layers.SumOf("memo.probes");
  SetLayer(report, "memo.hit_rate",
           probes > 0 ? layers.SumOf("memo.hits") / probes : 0);
  SetLayer(report, "cost.regret", layers.GeomeanOf("regret"));

  Reconciliation r;
  r.untraced_latency_p50_ms = Median(untraced.latency_ms);
  r.untraced_plan_p50_ms = Median(untraced.plan_ms);
  r.traced_latency_p50_ms = Median(traced_latency);
  r.cost_build_ms = layers.MedianOf("cost.build_ms");
  r.enumerate_ms = layers.MedianOf("enumerate.ms");
  r.exec_ms = layers.MedianOf("exec.ms");
  r.layer_sum_ms = r.cost_build_ms + r.enumerate_ms +
                   layers.MedianOf("rewrite.cleanup_ms") + r.exec_ms +
                   layers.MedianOf("oracle.verify_ms");
  ReportReconciliation(r, report);
}

void RunSuite(Suite (*setup)(const Args&), int setup_reps, const Args& args,
              RunReport* report) {
  EndToEnd e2e;
  Suite suite = TimedSetup(setup, setup_reps, args, &e2e.setup_s);
  Rng rng(args.seed ^ 0x0bde5eedULL);
  if (!args.trace) {
    MeasureEndToEnd(suite, args.seconds, &rng, &e2e, report);
    ReportEndToEnd(e2e, report);
    return;
  }
  // Untraced half first (the reference for the tracing overhead), then
  // the traced replay over the same queries, each again keeping its best
  // over the rounds.
  MeasureEndToEnd(suite, args.seconds / 2, &rng, &e2e, report);
  SpanLog log;
  std::vector<LayerSamples> per_query(suite.queries.size());
  std::vector<double> traced_latency(suite.queries.size(),
                                     std::numeric_limits<double>::infinity());
  int64_t qid = 0;
  RunRounds(suite, args.seconds / 2, &rng, [&](size_t i) {
    traced_latency[i] = std::min(
        traced_latency[i],
        TraceQuery(suite.queries[i], ++qid, &log, &per_query[i], report));
  });
  LayerSamples layers;
  for (const LayerSamples& q : per_query) layers.AddBestOf(q);
  TraceSpillLeg(suite, args, &layers, report);
  ReportLayers(layers, e2e, traced_latency, report);
  report->notes.push_back(log.WriteChromeJson(args.trace_path)
                              ? "spans written to " + args.trace_path
                              : "cannot write " + args.trace_path);
}

}  // namespace

// Set-up takes about 2 s on tpch-fig6 and 0.035 s on job-dp.
void RunTpchFig6(const Args& args, RunReport* report) {
  RunSuite(SetupTpchFig6, 3, args, report);
}

void RunJobDp(const Args& args, RunReport* report) {
  RunSuite(SetupJobDp, 27, args, report);
}

}  // namespace perfbench
}  // namespace eca
