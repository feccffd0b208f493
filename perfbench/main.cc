// perfbench — the repository's end-to-end benchmark (BENCHMARK.json).
//
//   perfbench --workload <tpch-fig6|job-dp|ecad-serve>
//             --seed N --seconds S --trace 0|1
//
// Generates the workload's inputs from the seed, sets up (repeated, so
// setup_s is a median), measures for S seconds and checks every result
// against the query as written. --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer ones. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A wrong result or
// a memory/spill leak exits 1 without that line.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"

namespace eca {
namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tpch-fig6|job-dp|ecad-serve> "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args->workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  void (*run)(const Args&, RunReport*) =
      args.workload == "tpch-fig6"    ? RunTpchFig6
      : args.workload == "job-dp"     ? RunJobDp
      : args.workload == "ecad-serve" ? RunEcadServe
                                      : nullptr;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return Usage();
  }
  if (!OracleSelfTest()) {
    std::fprintf(stderr, "oracle self-test failed: a result with one "
                         "dropped row was accepted\n");
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);

  // Relative paths keep every file inside the checkout the benchmark runs
  // from (and the unix socket path short).
  args.run_dir = ".bench_run/p" + std::to_string(::getpid());
  args.trace_path = ".bench_run/trace-" + args.workload + ".json";
  std::filesystem::create_directories(args.run_dir);

  RunReport report;
  run(args, &report);
  std::filesystem::remove_all(args.run_dir);
  if (args.trace && !CompletePerLayer(&report)) report.correct = false;

  char rate[96];
  std::snprintf(rate, sizeof(rate), "error_rate %.6f (%lld of %lld failed)",
                report.attempted > 0 ? static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted)
                                     : 0.0,
                static_cast<long long>(report.failed),
                static_cast<long long>(report.attempted));
  report.notes.push_back(rate);
  if (!report.correct || report.attempted == 0) {
    for (const std::string& note : report.notes) {
      std::fprintf(stderr, "%s\n", note.c_str());
    }
    std::fprintf(stderr, "perfbench: %s failed its checks; no metrics\n",
                 args.workload.c_str());
    return 1;
  }
  PrintReport(report);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace eca

int main(int argc, char** argv) { return eca::perfbench::Main(argc, argv); }
