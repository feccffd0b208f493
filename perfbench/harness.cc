#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "algebra/plan_parser.h"
#include "exec/executor.h"
#include "expr/pred_parser.h"
#include "storage/csv.h"

namespace eca {
namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Tail TailOf(std::vector<double> v, int64_t min_beyond) {
  Tail t;
  t.samples = static_cast<int64_t>(v.size());
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  // Rank r (0-based) leaves n-1-r samples above it; take the highest rank
  // that still leaves min_beyond, or a tenth of the samples when there are
  // fewer than ten times that (never below the median).
  int64_t n = t.samples;
  min_beyond = std::min(min_beyond, n / 10);
  int64_t rank = std::max<int64_t>(n - 1 - min_beyond, (n - 1) / 2);
  t.value = v[static_cast<size_t>(rank)];
  t.beyond = n - 1 - rank;
  t.pct = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return t;
}

namespace {

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::vector<uint64_t> RowDigests(const Relation& canonical) {
  std::vector<uint64_t> digests;
  digests.reserve(static_cast<size_t>(canonical.NumRows()));
  for (const Tuple& row : canonical.rows()) {
    uint64_t h = 0;
    for (const Value& v : row) h = Mix(h, v.is_null() ? 0x5bd1e995 : v.Hash());
    digests.push_back(h);
  }
  std::sort(digests.begin(), digests.end());
  return digests;
}

std::vector<uint64_t> TblDigests(const std::string& tbl) {
  std::vector<uint64_t> digests;
  std::istringstream in(tbl);
  std::string line;
  std::vector<std::string> cells;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    cells.clear();
    size_t start = 0;
    for (;;) {
      size_t bar = line.find('|', start);
      cells.push_back(line.substr(start, bar - start));
      if (bar == std::string::npos) break;
      start = bar + 1;
    }
    std::sort(cells.begin(), cells.end());
    uint64_t h = 0;
    for (const std::string& c : cells) h = Mix(h, std::hash<std::string>()(c));
    digests.push_back(h);
  }
  std::sort(digests.begin(), digests.end());
  return digests;
}

}  // namespace

Oracle::Oracle(const Relation& as_written, bool for_tbl) {
  Relation canonical = CanonicalizeColumnOrder(as_written);
  schema_ = canonical.schema().ToString();
  row_digests_ = RowDigests(canonical);
  if (for_tbl) tbl_digests_ = TblDigests(RelationToTbl(canonical));
}

bool Oracle::Matches(const Relation& got) const {
  if (got.NumRows() != rows()) return false;
  Relation canonical = CanonicalizeColumnOrder(got);
  return canonical.schema().ToString() == schema_ &&
         RowDigests(canonical) == row_digests_;
}

bool Oracle::MatchesTbl(const std::string& tbl) const {
  return TblDigests(tbl) == tbl_digests_;
}

bool OracleSelfTest() {
  Relation rel(Schema({{0, "k", DataType::kInt64},
                       {0, "a", DataType::kInt64},
                       {1, "k", DataType::kInt64}}));
  for (int64_t i = 0; i < 8; ++i) {
    rel.Add({Value::Int(i), Value::Int(i % 3), Value::Int(7 - i)});
  }
  Oracle oracle(rel, true);
  Relation dropped(rel.schema());
  for (int64_t i = 1; i < rel.NumRows(); ++i) dropped.Add(rel.rows()[i]);
  std::string tbl = RelationToTbl(rel);
  std::string tbl_dropped = tbl.substr(tbl.find('\n') + 1);
  return oracle.Matches(rel) && oracle.MatchesTbl(tbl) &&
         !oracle.Matches(dropped) && !oracle.MatchesTbl(tbl_dropped);
}

void SpanLog::Add(const std::string& name, int64_t query_id, int64_t thread,
                  Clock::time_point start, Clock::time_point end) {
  using Us = std::chrono::duration<double, std::micro>;
  spans_.push_back({name, query_id, thread, Us(start - origin_).count(),
                    Us(end - start).count()});
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%lld}}%s\n",
                  s.name.c_str(), static_cast<long long>(s.thread),
                  s.start_us, s.dur_us, static_cast<long long>(s.query_id),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void LayerSamples::AddBestOf(const LayerSamples& one_query) {
  for (const auto& [name, values] : one_query.samples_) {
    if (!values.empty()) {
      Add(name, *std::min_element(values.begin(), values.end()));
    }
  }
}

double LayerSamples::MedianOf(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : Median(it->second);
}

double LayerSamples::SumOf(const std::string& name) const {
  auto it = samples_.find(name);
  double sum = 0;
  if (it != samples_.end()) {
    for (double x : it->second) sum += x;
  }
  return sum;
}

double LayerSamples::MaxOf(const std::string& name) const {
  auto it = samples_.find(name);
  if (it == samples_.end() || it->second.empty()) return 0;
  return *std::max_element(it->second.begin(), it->second.end());
}

double LayerSamples::GeomeanOf(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : Geomean(it->second);
}

void PrintReport(const RunReport& report) {
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ReportEndToEnd(const EndToEnd& e2e, RunReport* report) {
  Tail tail = TailOf(e2e.latency_ms);
  report->Set("setup_s", Median(e2e.setup_s), "s");
  report->Set("latency_p50_ms", Median(e2e.latency_ms), "ms");
  report->Set("latency_tail_ms", tail.value, "ms");
  report->Set("throughput_qps",
              e2e.measured_s > 0
                  ? static_cast<double>(e2e.latency_ms.size()) / e2e.measured_s
                  : 0,
              "1/s");
  report->Set("plan_p50_ms", Median(e2e.plan_ms), "ms");
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
  char note[160];
  std::snprintf(note, sizeof(note),
                "latency_tail_ms is p%.1f over %lld samples (%lld beyond); "
                "set-up repeated %zu times",
                tail.pct, static_cast<long long>(tail.samples),
                static_cast<long long>(tail.beyond), e2e.setup_s.size());
  report->notes.push_back(note);
}

namespace {

struct LayerDef {
  const char* name;
  const char* unit;
};

// Same order and units as "per_layer" in BENCHMARK.json.
constexpr LayerDef kLayers[] = {
    {"cost.build_ms", "ms"},
    {"cost.regret", "ratio"},
    {"enumerate.ms", "ms"},
    {"enumerate.subplan_calls", "count"},
    {"enumerate.cost_evals", "count"},
    {"enumerate.cloned_nodes", "count"},
    {"enumerate.reuses", "count"},
    {"enumerate.prunes", "count"},
    {"enumerate.best_cost_geomean", "cost"},
    {"memo.hit_rate", "fraction"},
    {"rewrite.cleanup_ms", "ms"},
    {"exec.ms", "ms"},
    {"exec.join_ms", "ms"},
    {"exec.comp_ms", "ms"},
    {"exec.other_ms", "ms"},
    {"exec.rows_produced", "count"},
    {"exec.hash_build_rows", "count"},
    {"exec.peak_mb", "MiB"},
    {"storage.spill_write_mb", "MiB"},
    {"storage.spill_read_mb", "MiB"},
    {"storage.spilled_partitions", "count"},
    {"storage.spilled_sort_runs", "count"},
    {"storage.spilled_query_ms", "ms"},
    {"storage.serialize_ms", "ms"},
    {"service.response_bytes", "bytes"},
    {"service.roundtrip_ms", "ms"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_tail_ms", "ms"},
    {"service.wire_us", "us"},
    {"algebra.parse_us", "us"},
    {"oracle.verify_ms", "ms"},
    {"trace.latency_p50_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
    {"trace.unaccounted_frac", "fraction"},
    {"share.cost_build_of_plan", "fraction"},
    {"share.enumerate_of_latency", "fraction"},
    {"share.exec_of_latency", "fraction"},
};

}  // namespace

void SetLayer(RunReport* report, const std::string& name, double value) {
  report->metrics.push_back({name, value, ""});
}

bool CompletePerLayer(RunReport* report) {
  std::map<std::string, double> set;
  for (const Metric& m : report->metrics) set[m.name] = m.value;
  report->metrics.clear();
  size_t found = 0;
  for (const LayerDef& def : kLayers) {
    auto it = set.find(def.name);
    found += it != set.end() ? 1 : 0;
    report->Set(def.name, it == set.end() ? 0 : it->second, def.unit);
  }
  return found == set.size();
}

namespace {

void CollectPreds(const Plan& plan, std::vector<PredRef>* out) {
  if (plan.is_join() && plan.pred() != nullptr) out->push_back(plan.pred());
  if (plan.left() != nullptr) CollectPreds(*plan.left(), out);
  if (plan.right() != nullptr) CollectPreds(*plan.right(), out);
}

// The predicate-parser notation: top-level conjuncts joined by " AND "
// without the enclosing parentheses Predicate::ToString adds.
std::string PredText(const Predicate& pred) {
  if (pred.kind() != Predicate::Kind::kAnd) return pred.ToString();
  std::string text;
  for (const PredRef& c : pred.children()) {
    text += (text.empty() ? "" : " AND ") + c->ToString();
  }
  return text;
}

}  // namespace

WireMessage QueryRequest(const Plan& plan, bool want_rows) {
  WireMessage request;
  request.type = "QUERY";
  request.Add("plan", plan.ToInlineString());
  std::vector<PredRef> preds;
  CollectPreds(plan, &preds);
  for (const PredRef& p : preds) {
    request.Add("pred", p->label() + "=" + PredText(*p));
  }
  if (want_rows) request.AddInt("rows", 1);
  return request;
}

double WireMicros(const WireMessage& request, const WireMessage& response) {
  std::string response_payload = EncodeMessage(response);
  Clock::time_point t0 = Clock::now();
  (void)EncodeMessage(request);
  (void)DecodeMessage(response_payload);
  return MsSince(t0) * 1000;
}

double ParseMicros(const WireMessage& request) {
  Clock::time_point t0 = Clock::now();
  std::map<std::string, PredRef> preds;
  for (const std::string& spec : request.FindAll("pred")) {
    size_t eq = spec.find('=');
    std::string name = spec.substr(0, eq);
    PredRef pred = ParsePredicate(spec.substr(eq + 1), name);
    // Expressions outside the parser's grammar (the paper queries'
    // arithmetic) still cost their failed parse; the plan then resolves
    // the label to a constant so it parses all the same.
    preds[name] = pred != nullptr ? pred : Predicate::ConstBool(true);
  }
  (void)ParsePlan(*request.Find("plan"), preds);
  return MsSince(t0) * 1000;
}

void AddEnumeratorStats(const EnumeratorStats& stats, LayerSamples* layers) {
  layers->Add("enumerate.subplan_calls",
              static_cast<double>(stats.subplan_calls));
  layers->Add("enumerate.cost_evals", static_cast<double>(stats.cost_evals));
  layers->Add("enumerate.cloned_nodes",
              static_cast<double>(stats.cloned_nodes));
  layers->Add("enumerate.reuses", static_cast<double>(stats.reuses));
  layers->Add("enumerate.prunes", static_cast<double>(stats.prunes));
}

void AddExecStats(double exec_ms, const ExecStats& stats,
                  LayerSamples* layers) {
  layers->Add("exec.ms", exec_ms);
  layers->Add("exec.join_ms", stats.join_ms);
  layers->Add("exec.comp_ms", stats.comp_ms);
  layers->Add("exec.other_ms", exec_ms - stats.join_ms - stats.comp_ms);
  layers->Add("exec.rows_produced", static_cast<double>(stats.rows_produced));
  layers->Add("exec.hash_build_rows",
              static_cast<double>(stats.hash_build_rows));
}

void ReportLayerMedians(const LayerSamples& layers, RunReport* report) {
  const char* kMedians[] = {
      "cost.build_ms",          "enumerate.ms",
      "enumerate.subplan_calls", "enumerate.cost_evals",
      "enumerate.cloned_nodes", "enumerate.reuses",
      "enumerate.prunes",       "rewrite.cleanup_ms",
      "exec.ms",                "exec.join_ms",
      "exec.comp_ms",           "exec.other_ms",
      "exec.rows_produced",     "exec.hash_build_rows",
      "storage.spill_write_mb", "storage.spill_read_mb",
      "storage.spilled_partitions", "storage.spilled_sort_runs",
      "storage.spilled_query_ms", "storage.serialize_ms",
      "service.response_bytes", "service.wire_us",
      "algebra.parse_us",       "oracle.verify_ms"};
  for (const char* name : kMedians) {
    SetLayer(report, name, layers.MedianOf(name));
  }
  SetLayer(report, "exec.peak_mb", layers.MaxOf("exec.peak_mb"));
  SetLayer(report, "enumerate.best_cost_geomean",
           layers.GeomeanOf("best_cost"));
}

void ReportReconciliation(const Reconciliation& r, RunReport* report) {
  auto frac = [](double part, double whole) {
    return whole > 0 ? part / whole : 0;
  };
  SetLayer(report, "trace.latency_p50_ms", r.traced_latency_p50_ms);
  SetLayer(report, "trace.overhead_frac",
           frac(r.traced_latency_p50_ms, r.untraced_latency_p50_ms) - 1);
  SetLayer(report, "trace.unaccounted_frac",
           1 - frac(r.layer_sum_ms, r.untraced_latency_p50_ms));
  SetLayer(report, "share.cost_build_of_plan",
           frac(r.cost_build_ms, r.untraced_plan_p50_ms));
  SetLayer(report, "share.enumerate_of_latency",
           frac(r.enumerate_ms, r.untraced_latency_p50_ms));
  SetLayer(report, "share.exec_of_latency",
           frac(r.exec_ms, r.untraced_latency_p50_ms));
  char note[200];
  std::snprintf(note, sizeof(note),
                "untraced latency_p50_ms %.3f, traced %.3f, layer medians "
                "sum to %.3f ms",
                r.untraced_latency_p50_ms, r.traced_latency_p50_ms,
                r.layer_sum_ms);
  report->notes.push_back(note);
}

}  // namespace perfbench
}  // namespace eca
