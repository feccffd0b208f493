// The ecad-serve workload: an in-process EcadServer on a unix socket,
// driven by a closed loop of client threads, each with one connection,
// that draw from a fixed set of query templates with Zipf(1.0)
// popularity. Latency runs from the request write until the RESULT frame
// is decoded (RoundTrip); every result is checked against the template's
// result as written, computed at set-up.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "cost/cost_model.h"
#include "eca/optimizer.h"
#include "enumerate/enumerator.h"
#include "exec/query_context.h"
#include "expr/pred_parser.h"
#include "harness.h"
#include "rewrite/comp_simplify.h"
#include "service/server.h"
#include "storage/csv.h"
#include "testing/random_data.h"

namespace eca {
namespace perfbench {
namespace {

constexpr int kRels = 6;
constexpr int kRows = 20000;
constexpr int kTemplates = 24;
constexpr int kClients = 4;
constexpr int kWorkerThreads = 2;
constexpr int kSlices = 5;  // of the measured phase, see RunEcadServe
constexpr int kSetupReps = 5;  // each about 0.5 s
constexpr uint64_t kTemplateSeed = 2018;

struct Template {
  PlanPtr plan;  // as written
  WireMessage request;       // rows=0: the client wants the row count
  WireMessage request_rows;  // rows=1: the client wants the data
  Oracle oracle;
};

// A template of 3-6 relations joined on the unique key k with join, loj,
// laj or lsj; about a third of the joins add an inequality conjunct.
PlanPtr MakeTemplate(Rng* rng) {
  int n = static_cast<int>(rng->Uniform(3, kRels));
  std::vector<int> rels(kRels);
  for (int i = 0; i < kRels; ++i) rels[static_cast<size_t>(i)] = i;
  for (int i = kRels; i > 1; --i) {
    std::swap(rels[static_cast<size_t>(i - 1)],
              rels[static_cast<size_t>(rng->Uniform(0, i - 1))]);
  }
  const JoinOp kOps[] = {JoinOp::kInner, JoinOp::kInner, JoinOp::kLeftOuter,
                         JoinOp::kLeftAnti, JoinOp::kLeftSemi};
  const char* kIneq[] = {"<", "<=", "<>", ">"};
  PlanPtr plan = Plan::Leaf(rels[0]);
  std::vector<int> visible = {rels[0]};
  for (int j = 1; j < n; ++j) {
    int r = rels[static_cast<size_t>(j)];
    int l = visible[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(visible.size()) - 1))];
    JoinOp op = kOps[rng->Uniform(0, 4)];
    std::string text = "R" + std::to_string(l) + ".k = R" +
                       std::to_string(r) + ".k";
    if (rng->Bernoulli(0.35)) {
      text += " AND R" + std::to_string(l) + ".a " + kIneq[rng->Uniform(0, 3)] +
              " R" + std::to_string(r) + ".b";
    }
    PredRef pred = ParsePredicate(text, "p" + std::to_string(j));
    plan = Plan::Join(op, std::move(pred), std::move(plan), Plan::Leaf(r));
    // Semi- and antijoins hide their right side from later predicates.
    if (op == JoinOp::kInner || op == JoinOp::kLeftOuter) visible.push_back(r);
  }
  return plan;
}

// Everything set-up builds. The server borrows the catalog, so it is
// declared after it and destroyed (stopped) before it.
struct Service {
  std::unique_ptr<Database> db;
  std::vector<Template> templates;
  std::vector<double> zipf_cdf;
  std::string spill_dir;
  std::unique_ptr<EcadServer> server;
};

std::unique_ptr<Service> SetupService(const Args& args, std::string* error) {
  auto svc = std::make_unique<Service>();
  Rng rng(args.seed);
  // The templates are a fixed pool (Zipf puts a quarter of the traffic on
  // the first one, so templates drawn per seed would make the medians a
  // property of the seed); the seed draws the catalog and the requests.
  Rng template_rng(kTemplateSeed);
  RandomDataOptions data;
  data.min_rows = kRows;
  data.max_rows = kRows;
  data.empty_prob = 0;
  svc->db = std::make_unique<Database>();
  for (int i = 0; i < kRels; ++i) svc->db->Add(RandomRelation(rng, i, data));

  double total = 0;
  for (int t = 0; t < kTemplates; ++t) {
    Template tpl;
    tpl.plan = MakeTemplate(&template_rng);
    tpl.request = QueryRequest(*tpl.plan, false);
    tpl.request_rows = QueryRequest(*tpl.plan, true);
    tpl.oracle = Oracle(Executor().Execute(*tpl.plan, *svc->db), true);
    svc->templates.push_back(std::move(tpl));
    total += 1.0 / (t + 1);
    svc->zipf_cdf.push_back(total);
  }
  for (double& c : svc->zipf_cdf) c /= total;

  ServerConfig config;
  config.socket_path = args.run_dir + "/ecad.sock";
  svc->spill_dir = args.run_dir + "/spill";
  std::filesystem::create_directories(svc->spill_dir);
  config.service.spill_dir = svc->spill_dir;
  config.service.admission.max_concurrent = 2;
  config.service.admission.max_queue = 16;
  config.service.num_threads = kWorkerThreads;
  config.service.plan_cache_bytes = 32ll << 20;
  // Room for the largest 6-way intermediate, so no query spills or trips
  // its hard limit: this workload measures serving, not the spill path.
  config.service.client_mem_limit_bytes = 1ll << 30;
  svc->server = std::make_unique<EcadServer>(svc->db.get(), config);
  Status started = svc->server->Start();
  if (!started.ok()) {
    *error = started.ToString();
    return nullptr;
  }
  return svc;
}

struct Request {
  size_t tpl = 0;
  bool rows = false;
  Clock::time_point start, end;
  int64_t queue_wait_ms = 0;
};

struct ClientResult {
  std::vector<Request> done;  // RESULT responses, verified
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // mismatches fail the run
};

// Checks one response against the template's oracle; "" when it matches.
std::string CheckResult(const Template& tpl, bool rows,
                        const WireMessage& response) {
  StatusOr<int64_t> got_rows = response.FindInt("rows", -1);
  if (!got_rows.ok() || *got_rows != tpl.oracle.rows()) {
    return "MISMATCH: " + *tpl.request.Find("plan") + " rows=" +
           (got_rows.ok() ? std::to_string(*got_rows) : "?") + ", want " +
           std::to_string(tpl.oracle.rows());
  }
  if (rows) {
    const std::string* data = response.Find("data");
    if (data == nullptr || !tpl.oracle.MatchesTbl(*data)) {
      return "MISMATCH: " + *tpl.request.Find("plan") +
             " data differs from the query as written";
    }
  }
  return "";
}

void ClientLoop(const Service& svc, uint64_t seed, Clock::time_point deadline,
                ClientResult* out) {
  StatusOr<int> fd = ConnectUnixSocket(svc.server->socket_path());
  if (!fd.ok()) {
    ++out->attempted;
    ++out->failed;
    return;
  }
  Rng rng(seed);
  while (Clock::now() < deadline) {
    Request req;
    double u = rng.NextDouble();
    while (req.tpl + 1 < svc.zipf_cdf.size() && svc.zipf_cdf[req.tpl] <= u) {
      ++req.tpl;
    }
    req.rows = rng.Uniform(0, 3) == 0;
    const Template& tpl = svc.templates[req.tpl];
    ++out->attempted;
    req.start = Clock::now();
    StatusOr<WireMessage> response =
        RoundTrip(*fd, req.rows ? tpl.request_rows : tpl.request);
    req.end = Clock::now();
    if (!response.ok()) {  // the connection is gone
      ++out->failed;
      break;
    }
    if (response->type != "RESULT") {  // ERROR: shed, failed or cancelled
      ++out->failed;
      continue;
    }
    std::string mismatch = CheckResult(tpl, req.rows, *response);
    if (!mismatch.empty()) out->errors.push_back(mismatch);
    StatusOr<int64_t> wait = response->FindInt("queue_wait_ms", 0);
    req.queue_wait_ms = wait.ok() ? *wait : 0;
    out->done.push_back(req);
  }
  ::close(*fd);
}

// The closed loop: kClients threads until `seconds` have passed.
struct LoadResult {
  std::vector<Request> done;
  double measured_s = 0;
};

LoadResult RunLoad(const Service& svc, double seconds, uint64_t seed,
                   RunReport* report) {
  std::vector<ClientResult> results(kClients);
  Clock::time_point t0 = Clock::now();
  Clock::time_point deadline =
      t0 + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(ClientLoop, std::cref(svc),
                           seed * 7919 + static_cast<uint64_t>(c), deadline,
                           &results[static_cast<size_t>(c)]);
    }
    for (std::thread& t : clients) t.join();
  }
  LoadResult load;
  load.measured_s = MsSince(t0) / 1000;
  for (ClientResult& r : results) {
    report->attempted += r.attempted;
    report->failed += r.failed;
    for (std::string& e : r.errors) {
      report->correct = false;
      report->notes.push_back(std::move(e));
    }
    load.done.insert(load.done.end(), r.done.begin(), r.done.end());
  }
  return load;
}

double Ms(const Request& r) {
  return std::chrono::duration<double, std::milli>(r.end - r.start).count();
}

// One request per template, unmeasured: the plan cache is warm before the
// timed load starts.
void WarmUp(const Service& svc, RunReport* report) {
  StatusOr<int> fd = ConnectUnixSocket(svc.server->socket_path());
  if (!fd.ok()) {
    report->correct = false;
    report->notes.push_back("cannot connect: " + fd.status().ToString());
    return;
  }
  for (const Template& tpl : svc.templates) {
    StatusOr<WireMessage> response = RoundTrip(*fd, tpl.request_rows);
    std::string mismatch =
        !response.ok() ? response.status().ToString()
        : response->type != "RESULT"
            ? "warm-up got " + response->type
            : CheckResult(tpl, true, *response);
    if (!mismatch.empty()) {
      report->correct = false;
      report->notes.push_back(mismatch);
    }
  }
  ::close(*fd);
}

// The session's planning call (OptimizeGoverned on the service's warm plan
// cache, same options), replayed in process for every template: the
// client cannot see planning time inside a RESULT.
std::vector<double> ReplayPlanning(Service* svc) {
  Optimizer::Options opts;
  opts.num_threads = kWorkerThreads;
  opts.plan_cache = svc->server->state().plan_cache();
  Optimizer opt(opts);
  std::vector<double> plan_ms;
  for (const Template& tpl : svc->templates) {
    QueryContext ctx;
    ctx.Arm();
    Clock::time_point t0 = Clock::now();
    Optimizer::Optimized best = opt.OptimizeGoverned(*tpl.plan, *svc->db, &ctx);
    plan_ms.push_back(MsSince(t0));
  }
  return plan_ms;
}

// memo.hits / memo.probes from a METRICS scrape over the wire.
bool ScrapeMemo(const Service& svc, int64_t* hits, int64_t* probes) {
  StatusOr<int> fd = ConnectUnixSocket(svc.server->socket_path());
  if (!fd.ok()) return false;
  WireMessage request;
  request.type = "METRICS";
  StatusOr<WireMessage> response = RoundTrip(*fd, request);
  ::close(*fd);
  const std::string* json = response.ok() ? response->Find("json") : nullptr;
  if (json == nullptr) return false;
  auto counter = [&](const std::string& name) -> int64_t {
    size_t at = json->find("\"" + name + "\":");
    if (at == std::string::npos) return -1;
    return std::strtoll(json->c_str() + at + name.size() + 3, nullptr, 10);
  };
  *hits = counter("memo.hits");
  *probes = counter("memo.probes");
  return *hits >= 0 && *probes >= 0;
}

// The traced replay of one template through the layers the session
// calls, with the service's warm plan cache and worker count.
void TraceTemplate(Service* svc, const Template& tpl, int64_t qid,
                   SpanLog* log, LayerSamples* layers, RunReport* report) {
  const Database& db = *svc->db;
  auto span = [&](const char* name, Clock::time_point a,
                  Clock::time_point b) {
    log->Add(name, qid, 0, a, b);
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  Clock::time_point t0 = Clock::now();
  ParseMicros(tpl.request_rows);
  Clock::time_point t1 = Clock::now();
  layers->Add("algebra.parse_us", span("parse", t0, t1) * 1000);
  CostModel cost = CostModel::FromDatabase(db);
  Clock::time_point t2 = Clock::now();
  layers->Add("cost.build_ms", span("cost.build", t1, t2));
  EnumeratorOptions eopts;
  eopts.num_threads = kWorkerThreads;
  eopts.shared_memo = svc->server->state().plan_cache();
  TopDownEnumerator enumerator(&cost, eopts);
  TopDownEnumerator::Result found = enumerator.Optimize(*tpl.plan);
  Clock::time_point t3 = Clock::now();
  layers->Add("enumerate.ms", span("enumerate", t2, t3));
  AddEnumeratorStats(found.stats, layers);
  PlanPtr plan = std::move(found.plan);
  SimplifyCompensations(&plan);
  Clock::time_point t4 = Clock::now();
  layers->Add("rewrite.cleanup_ms", span("rewrite.cleanup", t3, t4));
  layers->Add("best_cost", cost.Cost(*plan));

  Executor::Options exec_opts{Executor::JoinPreference::kHash,
                              kWorkerThreads, ExecTuning{}};
  Executor ex(exec_opts);
  Clock::time_point t5 = Clock::now();
  StatusOr<Relation> out = Status::Internal("not run");
  {
    QueryContext ctx;
    ctx.Arm();
    out = ex.ExecuteWithContext(*plan, db, &ctx);
  }
  Clock::time_point t6 = Clock::now();
  double exec_ms = span("exec", t5, t6);
  AddExecStats(exec_ms, ex.stats(), layers);
  layers->Add("exec.peak_mb",
              static_cast<double>(ex.stats().peak_bytes) / (1 << 20));
  ++report->attempted;
  if (!out.ok()) {
    ++report->failed;
    return;
  }
  std::string tbl = RelationToTbl(*out);
  Clock::time_point t7 = Clock::now();
  layers->Add("storage.serialize_ms", span("serialize", t6, t7));
  layers->Add("service.response_bytes", static_cast<double>(tbl.size()));
  if (!tpl.oracle.Matches(*out)) {
    report->correct = false;
    report->notes.push_back("MISMATCH (traced): " +
                            *tpl.request.Find("plan"));
  }
  layers->Add("oracle.verify_ms", MsSince(t7));
  WireMessage response;
  response.type = "RESULT";
  response.AddInt("rows", out->NumRows());
  response.Add("data", std::move(tbl));
  layers->Add("service.wire_us", WireMicros(tpl.request_rows, response));
  Clock::time_point w0 = Clock::now();
  Executor(exec_opts).Execute(*tpl.plan, db);
  layers->Add("regret", exec_ms / MsSince(w0));
}

// kSlices traced replays of every template, each template keeping its
// best, as plan_p50_ms does.
void TraceLayers(Service* svc, SpanLog* log, LayerSamples* layers,
                 RunReport* report) {
  std::vector<LayerSamples> per_template(svc->templates.size());
  int64_t qid = 1000000;
  for (int rep = 0; rep < kSlices; ++rep) {
    for (size_t t = 0; t < svc->templates.size(); ++t) {
      TraceTemplate(svc, svc->templates[t], ++qid, log, &per_template[t],
                    report);
    }
  }
  for (const LayerSamples& samples : per_template) {
    layers->AddBestOf(samples);
  }
}

void ReportTrace(Service* svc, const Args& args, const EndToEnd& untraced,
                 RunReport* report) {
  SpanLog log;
  LayerSamples layers;
  int64_t hits0 = 0, probes0 = 0, hits1 = 0, probes1 = 0;
  bool scraped = ScrapeMemo(*svc, &hits0, &probes0);
  LoadResult traced = RunLoad(*svc, args.seconds / 2, args.seed + 1, report);
  scraped = ScrapeMemo(*svc, &hits1, &probes1) && scraped;
  if (!scraped) {
    report->correct = false;
    report->notes.push_back("METRICS scrape failed");
  }
  std::vector<double> traced_ms, queue_wait;
  int64_t qid = 0;
  for (const Request& r : traced.done) {
    traced_ms.push_back(Ms(r));
    queue_wait.push_back(static_cast<double>(r.queue_wait_ms));
    log.Add("roundtrip", ++qid, 0, r.start, r.end);
  }
  TraceLayers(svc, &log, &layers, report);

  ReportLayerMedians(layers, report);
  SetLayer(report, "cost.regret", layers.GeomeanOf("regret"));
  SetLayer(report, "memo.hit_rate",
           probes1 > probes0 ? static_cast<double>(hits1 - hits0) /
                                   static_cast<double>(probes1 - probes0)
                             : 0);
  SetLayer(report, "service.roundtrip_ms", Median(traced_ms));
  SetLayer(report, "service.queue_wait_p50_ms", Median(queue_wait));
  SetLayer(report, "service.queue_wait_tail_ms", TailOf(queue_wait).value);

  Reconciliation rec;
  rec.untraced_latency_p50_ms = Median(untraced.latency_ms);
  rec.untraced_plan_p50_ms = Median(untraced.plan_ms);
  rec.traced_latency_p50_ms = Median(traced_ms);
  rec.cost_build_ms = layers.MedianOf("cost.build_ms");
  rec.enumerate_ms = layers.MedianOf("enumerate.ms");
  rec.exec_ms = layers.MedianOf("exec.ms");
  rec.layer_sum_ms = Median(queue_wait) +
                     layers.MedianOf("algebra.parse_us") / 1000 +
                     rec.cost_build_ms + rec.enumerate_ms +
                     layers.MedianOf("rewrite.cleanup_ms") + rec.exec_ms +
                     layers.MedianOf("service.wire_us") / 1000;
  ReportReconciliation(rec, report);
  report->notes.push_back(log.WriteChromeJson(args.trace_path)
                              ? "spans written to " + args.trace_path
                              : "cannot write " + args.trace_path);
}

}  // namespace

void RunEcadServe(const Args& args, RunReport* report) {
  EndToEnd e2e;
  std::unique_ptr<Service> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();  // stops the previous repetition's server
    Clock::time_point t0 = Clock::now();
    std::string error;
    svc = SetupService(args, &error);
    if (svc == nullptr) {
      report->correct = false;
      report->notes.push_back("cannot start ecad: " + error);
      return;
    }
    e2e.setup_s.push_back(MsSince(t0) / 1000);
  }
  WarmUp(*svc, report);

  // The measured phase comes in slices, each followed by one in-process
  // replay of every template's planning call, so that latency and planning
  // samples both span the whole run rather than one window of it.
  // Each template keeps its best planning call over the slices, as the
  // in-process workloads keep each query's best (see inprocess.cc).
  LoadResult load;
  double load_s = args.trace ? args.seconds / 2 : args.seconds;
  for (int slice = 0; slice < kSlices; ++slice) {
    LoadResult part = RunLoad(*svc, load_s / kSlices,
                              args.seed * 31 + static_cast<uint64_t>(slice),
                              report);
    load.measured_s += part.measured_s;
    load.done.insert(load.done.end(), part.done.begin(), part.done.end());
    std::vector<double> plan_ms = ReplayPlanning(svc.get());
    if (e2e.plan_ms.empty()) e2e.plan_ms = plan_ms;
    for (size_t t = 0; t < plan_ms.size(); ++t) {
      e2e.plan_ms[t] = std::min(e2e.plan_ms[t], plan_ms[t]);
    }
  }
  for (const Request& r : load.done) e2e.latency_ms.push_back(Ms(r));
  e2e.measured_s = load.measured_s;
  if (!args.trace) {
    ReportEndToEnd(e2e, report);
  } else {
    ReportTrace(svc.get(), args, e2e, report);
  }

  // Drain, then the leak checks: the root tracker back at zero and no
  // per-query spill directory left behind.
  svc->server->Stop();
  int64_t leftover = svc->server->state().root_tracker().used();
  if (leftover != 0) {
    report->correct = false;
    report->notes.push_back("LEAK: root MemoryTracker holds " +
                            std::to_string(leftover) + " bytes after drain");
  }
  if (!std::filesystem::is_empty(svc->spill_dir)) {
    report->correct = false;
    report->notes.push_back("LEAK: spill directory not empty after drain");
  }
}

}  // namespace perfbench
}  // namespace eca
