#ifndef ECA_PERFBENCH_HARNESS_H_
#define ECA_PERFBENCH_HARNESS_H_

// Shared pieces of the end-to-end benchmark: clocks, percentiles, the
// result oracle, the in-memory span log of the traced run, and the one
// JSON line every run ends with. Each workload lives in its own file
// (inprocess.cc, serve.cc) and reports through RunReport.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "enumerate/enumerator.h"
#include "exec/executor.h"
#include "service/wire.h"
#include "storage/relation.h"

namespace eca {
namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory (inside the checkout) for the unix socket and the
  // per-query spill files; created by main and removed at exit.
  std::string run_dir;
  // Where the traced run writes its spans (Chrome trace JSON).
  std::string trace_path;
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Sample statistics over one run's measurements.
double Median(std::vector<double> v);
double Geomean(const std::vector<double>& v);

// The highest percentile that still has at least `min_beyond` samples
// above it, or a tenth of the samples when there are fewer than
// 10 * min_beyond ("p<pct> over <n> samples, <beyond> beyond"); the value
// is the sample at that rank.
struct Tail {
  double pct = 0;
  double value = 0;
  int64_t samples = 0;
  int64_t beyond = 0;
};
Tail TailOf(std::vector<double> v, int64_t min_beyond = 10);

// The result oracle: a query's canonical result multiset, computed from
// the query as written during set-up. Every timed result is checked
// against it; one mismatch fails the run. The multiset is kept as the
// sorted 64-bit digests of its canonical rows, so a pool of thousands of
// queries does not hold thousands of results.
class Oracle {
 public:
  Oracle() = default;
  // `for_tbl` also keeps what MatchesTbl needs.
  explicit Oracle(const Relation& as_written, bool for_tbl = false);

  // CanonicalizeColumnOrder + multiset compare.
  bool Matches(const Relation& got) const;
  // For results that crossed the wire as .tbl text without a schema: every
  // row is compared as the sorted list of its cells, so the check does not
  // depend on the column order of the plan the server chose.
  bool MatchesTbl(const std::string& tbl) const;

  int64_t rows() const { return static_cast<int64_t>(row_digests_.size()); }

 private:
  std::string schema_;                 // canonical schema, rendered
  std::vector<uint64_t> row_digests_;  // sorted
  std::vector<uint64_t> tbl_digests_;  // sorted, for MatchesTbl
};

// Feeds the oracle a result with one row dropped (and the same for the
// .tbl path); false when either is accepted.
bool OracleSelfTest();

// Spans of the traced run, kept in memory and written out at exit as a
// Chrome trace (chrome://tracing, Perfetto). A query's spans share its id.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t query_id = 0;
    int64_t thread = 0;
    double start_us = 0;
    double dur_us = 0;
  };

  SpanLog() : origin_(Clock::now()) {}

  void Add(const std::string& name, int64_t query_id, int64_t thread,
           Clock::time_point start, Clock::time_point end);
  bool WriteChromeJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Per-layer samples of the traced run, by metric name.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  // Adds, for every name, the smallest of one query's samples over the
  // rounds: its best time (its counts repeat exactly from round to round).
  void AddBestOf(const LayerSamples& one_query);
  double MedianOf(const std::string& name) const;
  double SumOf(const std::string& name) const;
  double MaxOf(const std::string& name) const;
  double GeomeanOf(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the JSON line.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Prints the notes, then every metric by name and unit, then the JSON
// result as the last line of stdout.
void PrintReport(const RunReport& report);

// getrusage max resident set size of this process, in MiB.
double PeakRssMb();

// The end-to-end metrics every workload reports (--trace 0).
// In process, latency_ms and plan_ms hold each query's best over the
// rounds, and measured_s is the sum of those best latencies; on ecad,
// plan_ms holds each template's best replayed planning call.
struct EndToEnd {
  std::vector<double> latency_ms;  // one per completed query
  std::vector<double> plan_ms;     // one per Optimize call
  double measured_s = 0;           // wall clock of the measured phase
  // One per repeated set-up; setup_s is their median. Each workload sets up
  // a fixed number of times, enough to cover about a second or more, so
  // that the median spans more than one burst of the host's other load; a
  // fixed count keeps peak_rss_mb independent of the machine's speed.
  std::vector<double> setup_s;
};
void ReportEndToEnd(const EndToEnd& e2e, RunReport* report);

// Per-layer metrics (--trace 1): workloads Set them by name with
// SetLayer; CompletePerLayer orders them as BENCHMARK.json lists them and
// reports 0 for a layer that is not on the workload's path (the service
// metrics on the in-process workloads, the spill counters where nothing
// spills). Returns false when a workload set a name the table lacks.
void SetLayer(RunReport* report, const std::string& name, double value);
bool CompletePerLayer(RunReport* report);

// Samples of one TopDownEnumerator::Optimize / Executor call's counters.
void AddEnumeratorStats(const EnumeratorStats& stats, LayerSamples* layers);
void AddExecStats(double exec_ms, const ExecStats& stats,
                  LayerSamples* layers);
// Sets the per-query medians of the layer samples (the max for
// exec.peak_mb, the geomean of the chosen plans' estimated cost).
void ReportLayerMedians(const LayerSamples& layers, RunReport* report);

// Fills the trace.* reconciliation and share.* metrics: the tracing
// overhead (traced vs untraced latency_p50_ms), the share of untraced
// latency that no layer median accounts for, and the layer shares later
// perf changes cite.
struct Reconciliation {
  double untraced_latency_p50_ms = 0;
  double untraced_plan_p50_ms = 0;
  double traced_latency_p50_ms = 0;
  double layer_sum_ms = 0;  // sum of the layer medians on the query path
  double cost_build_ms = 0;
  double enumerate_ms = 0;
  double exec_ms = 0;
};
void ReportReconciliation(const Reconciliation& r, RunReport* report);

// The QUERY request ecad receives for `plan`: its inline text, one "pred"
// field (label=expression) per join predicate, and rows=1 when the client
// wants the result data back.
WireMessage QueryRequest(const Plan& plan, bool want_rows);
// Client-side wire cost of one exchange: EncodeMessage(request) plus
// DecodeMessage of the encoded response, in microseconds.
double WireMicros(const WireMessage& request, const WireMessage& response);
// ParsePlan + ParsePredicate over the request's text, in microseconds.
double ParseMicros(const WireMessage& request);

// Workload entry points: each sets up (timing every repetition), runs the
// measured phase for args.seconds and fills the report; a result mismatch
// or a leak sets report->correct = false.
void RunTpchFig6(const Args& args, RunReport* report);
void RunJobDp(const Args& args, RunReport* report);
void RunEcadServe(const Args& args, RunReport* report);

}  // namespace perfbench
}  // namespace eca

#endif  // ECA_PERFBENCH_HARNESS_H_
