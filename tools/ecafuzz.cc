// ecafuzz — fault-injected differential fuzzer for the optimizer pipeline.
//
//   ecafuzz [--queries N] [--seed S] [--max-rels N] [--threads N]
//           [--smoke] [--verbose] [--enum-diff] [--mem-limit-mb N]
//
// Each iteration derives everything from one seed: a random database, a
// random query, a random approach (ECA / TBA / CBA), a random enumeration
// budget and randomly armed fault-injection points. The optimized plan,
// run on the executor, is checked against the unoptimized query run on
// ExecuteNaive — the reference interpreter written from the paper's
// operator definitions, which shares no hash, sort-merge, morsel or fused
// code with the executor, so even a bug that corrupts every plan alike is
// caught. Any divergence is a bug, budget or no budget, fault or no
// fault. Fuzz databases hold at most 8 rows per table, which keeps the
// quadratic oracle cheap. Every fourth iteration additionally mutates the
// query's plan notation and feeds it through the parse -> validate ->
// optimize pipeline, which must reject garbage with a Status, never abort.
//
// On divergence the failing configuration is minimized (faults dropped,
// then budgets dropped) and a single-seed repro command is printed.
//
//   --smoke   deterministic CI profile: 200 queries, fixed seed, no
//             wall-clock budgets (those are timing-dependent).
//   --threads runs the optimized plan on a worker pool, so the
//             differential check also proves parallel execution matches
//             the reference.
//   --enum-diff  enumerator-differential mode: no budgets and no faults;
//             each seeded query is enumerated with subplan reuse on and
//             off, asserting an identical plan cost.
//   --plan-cache  (with --enum-diff) routes every trial through one
//             shared cross-query SharedMemo, advancing its stats epoch
//             between trials (each trial has its own database). A cold
//             cached run, then 4 concurrent sessions warm against it,
//             then 4 concurrent sessions racing cold under a fresh epoch
//             must all reproduce the private-memo plan cost bitwise; each
//             concurrent plan must stay semantically equivalent to the
//             query (naive oracle), and the cache must drain to zero
//             tracked bytes at the end.
//   --cache-file <path>  plan-cache corruption fuzz: the persistent-cache
//             loader (storage/cache_store.h) must load-or-degrade — never
//             crash, never fail the caller, never unbalance the memory
//             tracker — for the file truncated at EVERY byte offset and
//             for --queries seeded single-bit flips. A missing file is
//             first synthesized from seeded random plans through the real
//             snapshot writer, so the CI lane is self-contained;
//             tools/chaos_smoke.sh points this mode at cache files a real
//             daemon wrote and was SIGKILLed over.
//   --policy <p>  plan-policy differential over seeded JOB-style workloads
//             (src/sqlgen/workload.h): chain, star and clique topologies
//             of 8+ relations, each optimized under the named policy (dp /
//             sizes-only / greedy / semijoin — "all" runs every policy on
//             every workload) and executed against the unoptimized query
//             as the multiset-identity oracle; both sides run on the
//             executor, since these queries are too large for the naive
//             interpreter. dp runs under a fixed deterministic node
//             budget (large join graphs are the whole point), so its
//             degraded fallback path is exercised too; a semijoin run
//             must apply the Yannakakis pass on at least one acyclic
//             workload or the run fails.
//   --mem-limit-mb  spilled-vs-in-memory differential: after the oracle
//             comparison, the optimized plan is re-executed under a
//             resource governor with the given hard limit and a
//             deliberately tiny soft threshold, forcing hash joins onto
//             the grace (spill-to-disk) path and best-matches onto
//             external merge sort. The governed result must be
//             value-identical, row for row, to the in-memory result;
//             kResourceExhausted / kDeadlineExceeded are accepted as
//             clean outcomes (docs/robustness.md).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algebra/plan.h"
#include "algebra/plan_parser.h"
#include "algebra/validate.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "eca/optimizer.h"
#include "enumerate/shared_memo.h"
#include "exec/executor.h"
#include "exec/query_context.h"
#include "sqlgen/workload.h"
#include "storage/cache_store.h"
#include "testing/fault_injection.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

namespace eca {
namespace {

struct FuzzConfig {
  int64_t queries = 500;
  uint64_t seed = 1;
  int max_rels = 5;
  int threads = 1;
  bool smoke = false;
  bool verbose = false;
  bool enum_diff = false;
  bool plan_cache = false;  // --enum-diff through a shared cross-query memo
  // --cache-file: corruption-fuzz a persistent plan-cache file instead of
  // running query differentials (empty = off).
  std::string cache_file;
  // --policy: plan-policy differential over generated JOB-style workloads
  // ("dp" / "sizes-only" / "greedy" / "semijoin" smoke one policy, "all"
  // runs the cross-policy multiset-identity differential; "" = off).
  std::string policy;
  int64_t mem_limit_mb = 0;  // > 0: governed re-execution differential
  // Executor morsel/chunk granularity for the optimized side (0 = engine
  // default). Results must be byte-identical for every legal value, so
  // these knobs widen the parallel-vs-sequential differential the same
  // way --threads does.
  int morsel_rows = 0;
  int chunk_rows = 0;
};

// One iteration's randomized setup, minus the data/query (regenerated
// from the seed on demand so minimization can replay exactly).
struct TrialSetup {
  Optimizer::Approach approach = Optimizer::Approach::kECA;
  bool reuse_subplans = true;
  EnumeratorBudget budget;
  // Thread count for executing the optimized plan (--threads).
  int exec_threads = 1;
  // Hard memory limit (MB) for the governed re-execution differential;
  // 0 disables it.
  int64_t mem_limit_mb = 0;
  // Morsel/chunk granularity for the optimized side (0 = default).
  int morsel_rows = 0;
  int chunk_rows = 0;
  // skip counts per fault point; -1 = disarmed. Filled in the constructor
  // so every point starts disarmed however many FaultPoints exist.
  int64_t fault_skip[static_cast<int>(FaultPoint::kNumPoints)];

  TrialSetup() {
    for (int64_t& s : fault_skip) s = -1;
  }

  bool AnyFault() const {
    for (int64_t s : fault_skip) {
      if (s >= 0) return true;
    }
    return false;
  }
  std::string ToString() const {
    std::string out = std::string("approach=") +
                      Optimizer::ApproachName(approach) +
                      (reuse_subplans ? " reuse" : " no-reuse");
    if (budget.max_enumerated_nodes > 0) {
      out += " nodes=" + std::to_string(budget.max_enumerated_nodes);
    }
    if (budget.max_memo_entries > 0) {
      out += " memo=" + std::to_string(budget.max_memo_entries);
    }
    if (budget.wall_clock_ms > 0) {
      out += " wall_ms=" + std::to_string(budget.wall_clock_ms);
    }
    if (exec_threads != 1) {
      out += " threads=" + std::to_string(exec_threads);
    }
    if (mem_limit_mb > 0) {
      out += " mem_limit_mb=" + std::to_string(mem_limit_mb);
    }
    if (morsel_rows > 0) {
      out += " morsel_rows=" + std::to_string(morsel_rows);
    }
    if (chunk_rows > 0) {
      out += " chunk_rows=" + std::to_string(chunk_rows);
    }
    for (int p = 0; p < static_cast<int>(FaultPoint::kNumPoints); ++p) {
      if (fault_skip[p] >= 0) {
        out += std::string(" fault:") +
               FaultPointName(static_cast<FaultPoint>(p)) + "+" +
               std::to_string(fault_skip[p]);
      }
    }
    return out;
  }
};

struct Trial {
  Database db;
  PlanPtr query;
  TrialSetup setup;
};

// Deterministically rebuilds iteration `seed`'s world. The data/query
// stream and the setup stream are drawn from one Rng in a fixed order, so
// the same seed always means the same trial.
Trial MakeTrial(uint64_t seed, const FuzzConfig& cfg) {
  Rng rng(seed * 0x9e3779b9u + 17);
  Trial t;
  RandomDataOptions dopts;
  RandomQueryOptions qopts;
  qopts.num_rels = static_cast<int>(rng.Uniform(2, cfg.max_rels));
  qopts.allow_full_outer = rng.Bernoulli(0.15);
  qopts.tolerant_pred_prob = rng.Bernoulli(0.2) ? 0.3 : 0.0;
  t.db = RandomDatabase(rng, qopts.num_rels, dopts);
  t.query = RandomQuery(rng, qopts, dopts);

  TrialSetup& s = t.setup;
  s.exec_threads = cfg.threads;
  s.mem_limit_mb = cfg.mem_limit_mb;
  s.morsel_rows = cfg.morsel_rows;
  s.chunk_rows = cfg.chunk_rows;
  s.approach = static_cast<Optimizer::Approach>(rng.Uniform(0, 2));
  s.reuse_subplans = rng.Bernoulli(0.7);
  if (rng.Bernoulli(0.5)) {
    // Biased low so the cap actually bites: small queries only enumerate
    // a handful of nodes, and the nodes=1 extreme is the acceptance case.
    s.budget.max_enumerated_nodes =
        rng.Bernoulli(0.4) ? rng.Uniform(1, 8) : rng.Uniform(1, 300);
  }
  if (rng.Bernoulli(0.3)) {
    s.budget.max_memo_entries = rng.Uniform(1, 32);
  }
  if (!cfg.smoke && rng.Bernoulli(0.15)) {
    s.budget.wall_clock_ms = rng.Uniform(1, 4);
  }
  for (int p = 0; p < static_cast<int>(FaultPoint::kNumPoints); ++p) {
    if (rng.Bernoulli(0.25)) {
      s.fault_skip[p] =
          rng.Bernoulli(0.5) ? rng.Uniform(0, 8) : rng.Uniform(0, 200);
    }
  }
  return t;
}

// Value-identity including row order — the contract the spill paths make
// (byte-identical output), strictly stronger than SameMultiset.
bool IdenticalRelations(const Relation& a, const Relation& b) {
  if (a.NumRows() != b.NumRows()) return false;
  if (a.schema().NumColumns() != b.schema().NumColumns()) return false;
  for (size_t r = 0; r < a.rows().size(); ++r) {
    if (CompareTuples(a.rows()[r], b.rows()[r]) != 0) return false;
  }
  return true;
}

// Runs one optimize-and-compare round. Returns an empty string on
// success, else a description of the failure.
std::string RunTrial(const Trial& t, const TrialSetup& setup,
                     EnumeratorStats* stats_out = nullptr) {
  FaultInjector::Reset();
  for (int p = 0; p < static_cast<int>(FaultPoint::kNumPoints); ++p) {
    if (setup.fault_skip[p] >= 0) {
      FaultInjector::Arm(static_cast<FaultPoint>(p), setup.fault_skip[p]);
    }
  }
  Optimizer::Options opts;
  opts.approach = setup.approach;
  opts.reuse_subplans = setup.reuse_subplans;
  opts.budget = setup.budget;
  Optimizer opt(opts);
  StatusOr<Optimizer::Optimized> best = opt.OptimizeChecked(*t.query, t.db);
  FaultInjector::Reset();
  if (!best.ok()) {
    return "OptimizeChecked failed on a valid query: " +
           best.status().ToString();
  }
  if (best->plan == nullptr) return "Optimize returned a null plan";
  if (stats_out != nullptr) *stats_out = best->stats;

  Status valid = ValidatePlanStatus(*best->plan, t.db.BaseSchemas());
  if (!valid.ok()) {
    return "optimized plan fails validation: " + valid.ToString();
  }
  // A one-node budget leaves no room to complete any enumeration: the
  // result must be flagged degraded.
  if (setup.budget.max_enumerated_nodes == 1 && !best->stats.degraded) {
    return "nodes=1 budget did not set stats.degraded";
  }

  Relation expect = ExecuteNaive(*t.query, t.db);
  Optimizer::Options exec_opts;
  exec_opts.num_threads = setup.exec_threads;
  if (setup.morsel_rows > 0) exec_opts.exec_tuning.morsel_rows = setup.morsel_rows;
  if (setup.chunk_rows > 0) exec_opts.exec_tuning.chunk_rows = setup.chunk_rows;
  Optimizer threaded{exec_opts};
  Relation got = threaded.Execute(*best->plan, t.db);
  if (!SameMultiset(CanonicalizeColumnOrder(expect),
                    CanonicalizeColumnOrder(got))) {
    return "DIVERGENCE: optimized plan result differs from the query\n" +
           best->plan->ToString();
  }

  if (setup.mem_limit_mb > 0) {
    // Spilled-vs-in-memory differential: re-execute the optimized plan
    // under the governor with a tiny soft threshold so every hash join
    // takes the grace path and best-matches sort externally. With the
    // trial's faults re-armed, any Status is a clean outcome; a success
    // must be value-identical, row for row, to the ungoverned run.
    for (int p = 0; p < static_cast<int>(FaultPoint::kNumPoints); ++p) {
      if (setup.fault_skip[p] >= 0) {
        FaultInjector::Arm(static_cast<FaultPoint>(p), setup.fault_skip[p]);
      }
    }
    QueryContext::Limits limits;
    limits.mem_limit_bytes = setup.mem_limit_mb << 20;
    limits.mem_soft_bytes = 16 << 10;
    QueryContext ctx(limits);
    ctx.Arm();
    Executor::Options xopts;
    xopts.num_threads = setup.exec_threads;
    if (setup.morsel_rows > 0) xopts.tuning.morsel_rows = setup.morsel_rows;
    if (setup.chunk_rows > 0) xopts.tuning.chunk_rows = setup.chunk_rows;
    Executor ex(xopts);
    StatusOr<Relation> governed = ex.ExecuteWithContext(*best->plan, t.db,
                                                        &ctx);
    FaultInjector::Reset();
    if (governed.ok()) {
      if (!IdenticalRelations(*governed, got)) {
        return "SPILL DIVERGENCE: governed (spilled) execution differs "
               "from the in-memory result\n" +
               best->plan->ToString();
      }
      if (ctx.tracker()->used() != 0) {
        return "governed execution leaked " +
               std::to_string(ctx.tracker()->used()) +
               " tracked bytes (reservation imbalance)";
      }
    }
  }
  return "";
}

// Enumerator-differential round: the same query enumerated with subplan
// reuse on and off, with no budgets and no faults. Reuse promises an
// identical plan cost (Theorem 5.4 guards its soundness, and in practice
// it is plan-identical too — but the cost is the contract). Any difference
// is a bug.
std::string RunEnumDiff(const Trial& t, SharedMemo* cache) {
  CostModel cost = CostModel::FromDatabase(t.db);
  SwapPolicy policy = SwapPolicy::kECA;
  if (t.setup.approach == Optimizer::Approach::kTBA) policy = SwapPolicy::kTBA;
  if (t.setup.approach == Optimizer::Approach::kCBA) policy = SwapPolicy::kCBA;
  auto run = [&](bool reuse, SharedMemo* memo = nullptr) {
    EnumeratorOptions o;
    o.policy = policy;
    o.reuse_subplans = reuse;
    o.shared_memo = memo;
    TopDownEnumerator e(&cost, o);
    return e.Optimize(*t.query);
  };
  TopDownEnumerator::Result base = run(true);
  if (base.plan == nullptr) return "enum-diff: null plan from the baseline";
  TopDownEnumerator::Result no_reuse = run(false);
  if (no_reuse.plan == nullptr) return "enum-diff: null plan from no-reuse";
  if (no_reuse.cost != base.cost) {
    return "enum-diff: no-reuse changed the plan cost";
  }

  if (cache != nullptr) {
    // Cross-query plan-cache differential: a cold cached run must land on
    // the private-memo cost bitwise. Then come concurrent sessions sharing
    // the cache, as in ecad: 4 threads enumerate the query at the same
    // time, first warm against the entries the cold run published, then
    // again cold under a fresh stats epoch, where the racing searches
    // publish and probe each other's entries mid-flight. Every cached
    // entry is a true optimum for its full key, so reuse can never change
    // the chosen cost — only skip re-derivation. Plan bytes are NOT
    // promised identical to the private run, so each concurrent plan is
    // checked semantically against the query instead.
    TopDownEnumerator::Result cached_cold = run(true, cache);
    if (cached_cold.plan == nullptr) {
      return "plan-cache: null plan from the cold cached run";
    }
    if (cached_cold.cost != base.cost) {
      return "plan-cache: cold cached run changed the plan cost";
    }
    Relation expect = CanonicalizeColumnOrder(ExecuteNaive(*t.query, t.db));
    for (bool racing : {false, true}) {
      if (racing) cache->AdvanceEpoch();
      const std::string what =
          racing ? "plan-cache: racing cold" : "plan-cache: warm";
      std::vector<TopDownEnumerator::Result> sessions(4);
      std::vector<std::thread> threads;
      for (TopDownEnumerator::Result& r : sessions) {
        threads.emplace_back([&run, &r, cache] {
          r = run(true, cache);
        });
      }
      for (std::thread& th : threads) th.join();
      for (const TopDownEnumerator::Result& r : sessions) {
        if (r.plan == nullptr) return what + " session returned a null plan";
        if (r.cost != base.cost) return what + " session changed the plan cost";
        Status valid = ValidatePlanStatus(*r.plan, t.db.BaseSchemas());
        if (!valid.ok()) {
          return what + " plan fails validation: " + valid.ToString();
        }
        Relation got = Optimizer().Execute(*r.plan, t.db);
        if (!SameMultiset(expect, CanonicalizeColumnOrder(got))) {
          return what + " DIVERGENCE: plan result differs from the query\n" +
                 r.plan->ToString();
        }
      }
    }
  }
  return "";
}

// Shrinks a failing setup: drop the faults, then each budget knob, and
// keep any reduction that still fails. The result is the smallest
// configuration (for this seed) that reproduces the bug.
TrialSetup Minimize(const Trial& t, TrialSetup setup) {
  TrialSetup no_faults = setup;
  for (int64_t& s : no_faults.fault_skip) s = -1;
  if (!RunTrial(t, no_faults).empty()) setup = no_faults;

  TrialSetup no_nodes = setup;
  no_nodes.budget.max_enumerated_nodes = 0;
  if (!RunTrial(t, no_nodes).empty()) setup = no_nodes;

  TrialSetup no_memo = setup;
  no_memo.budget.max_memo_entries = 0;
  if (!RunTrial(t, no_memo).empty()) setup = no_memo;

  TrialSetup no_wall = setup;
  no_wall.budget.wall_clock_ms = 0;
  if (!RunTrial(t, no_wall).empty()) setup = no_wall;

  TrialSetup no_spill = setup;
  no_spill.mem_limit_mb = 0;
  if (!RunTrial(t, no_spill).empty()) setup = no_spill;

  return setup;
}

// Feeds a mutated copy of the query's plan notation through the
// parse -> validate -> optimize pipeline. Nothing here may abort; a
// mutated plan that still parses and validates must stay semantically
// consistent under optimization.
std::string RunMutatedNotation(const Trial& t, uint64_t seed) {
  Rng rng(seed ^ 0xf00dULL);
  std::string text = t.query->ToInlineString();
  int edits = static_cast<int>(rng.Uniform(1, 3));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(text.size()) - 1));
    switch (rng.Uniform(0, 2)) {
      case 0:  // truncate
        text = text.substr(0, pos);
        break;
      case 1:  // overwrite with a random structural character
        text[pos] = "()[]R0123 joxl"[rng.Uniform(0, 13)];
        break;
      default:  // duplicate a chunk
        text = text + text.substr(pos);
        break;
    }
  }
  std::map<std::string, PredRef> preds;
  std::vector<Plan*> joins;
  CollectJoins(t.query.get(), &joins);
  for (const Plan* j : joins) {
    if (j->pred() != nullptr && !j->pred()->label().empty()) {
      preds[j->pred()->label()] = j->pred();
    }
  }
  std::string error;
  PlanPtr mutated = ParsePlan(text, preds, &error);
  if (mutated == nullptr) return "";  // rejected at the parser: fine
  Optimizer opt;
  StatusOr<Optimizer::Optimized> best = opt.OptimizeChecked(*mutated, t.db);
  if (!best.ok()) return "";  // rejected at validation: fine
  Relation expect = ExecuteNaive(*mutated, t.db);
  Relation got = opt.Execute(*best->plan, t.db);
  if (!SameMultiset(CanonicalizeColumnOrder(expect),
                    CanonicalizeColumnOrder(got))) {
    return "DIVERGENCE on mutated notation '" + text + "'";
  }
  return "";
}

// --- plan-cache corruption fuzz (--cache-file) -----------------------------

std::vector<unsigned char> ReadCacheBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteCacheBytes(const std::string& path,
                     const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Synthesizes a snapshot at `path` from seeded random plans through the
// real writer, so the CI lane needs no daemon run first. Returns false on
// a write failure.
bool SynthesizeCacheFile(const std::string& path, uint64_t seed,
                         int max_rels, uint64_t catalog_fp) {
  MemoryTracker root(0, 0);
  SharedMemo::Config mc;
  mc.parent = &root;
  SharedMemo memo(mc);
  Rng rng(seed ^ 0x5eedcafeULL);
  for (int i = 0; i < 12; ++i) {
    RandomDataOptions dopts;
    RandomQueryOptions qopts;
    qopts.num_rels = static_cast<int>(rng.Uniform(2, max_rels));
    qopts.allow_full_outer = rng.Bernoulli(0.25);
    qopts.tolerant_pred_prob = rng.Bernoulli(0.3) ? 0.3 : 0.0;
    auto payload = std::make_shared<MemoPayload>();
    payload->subtree = RandomQuery(rng, qopts, dopts);
    payload->s = payload->subtree->leaves();
    payload->query_fp = rng.Next();
    payload->policy = static_cast<int>(rng.Uniform(0, 2));
    payload->epoch = 0;
    payload->cost = static_cast<double>(rng.Uniform(1, 1 << 20));
    payload->bytes = 64 + static_cast<int64_t>(rng.Uniform(0, 4096));
    memo.Import(rng.Next(), std::move(payload));
  }
  CacheStore store(path);
  Status written = store.WriteSnapshot(&memo, catalog_fp);
  memo.Clear();
  return written.ok();
}

// Corruption fuzz for the persistent plan cache: every mutation of the
// input file must load-or-degrade — Load never fails, never crashes, and
// the memory tracker balances to zero after Clear. Returns the process
// exit code.
int RunCacheFileFuzz(const FuzzConfig& cfg) {
  namespace fs = std::filesystem;
  const std::string& path = cfg.cache_file;
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    // Missing file: self-contained profile. The fingerprint constant is
    // arbitrary — PeekCacheFileHeader reads it back below like it would
    // from a daemon-written file.
    if (!SynthesizeCacheFile(path, cfg.seed, cfg.max_rels,
                             0x5eedecafc0ffee01ull)) {
      std::fprintf(stderr, "cache-file: cannot synthesize %s\n",
                   path.c_str());
      return 2;
    }
  }
  std::vector<unsigned char> pristine = ReadCacheBytes(path);
  if (pristine.empty()) {
    std::fprintf(stderr, "cache-file: %s is unreadable or empty\n",
                 path.c_str());
    return 2;
  }
  // Fuzz under the file's own epoch/fingerprint so entry decoding is
  // actually reached; a garbage header just means every load degrades at
  // the header, which is still a valid (if shallow) run.
  uint64_t epoch = 0;
  uint64_t catalog_fp = 0;
  if (!PeekCacheFileHeader(path, &epoch, &catalog_fp)) {
    std::fprintf(stderr,
                 "cache-file: %s has no readable header; fuzzing under a "
                 "zero fingerprint\n",
                 path.c_str());
  }

  const std::string victim = path + ".fuzz-victim";
  int64_t failures = 0;
  int64_t baseline_loaded = 0;

  // One load of whatever currently sits at `victim` (+ possibly a log the
  // loader itself truncates), with every invariant checked.
  auto check_load = [&](const std::string& what,
                        CacheStore::LoadResult* out) {
    MemoryTracker root(0, 0);
    SharedMemo::Config mc;
    mc.parent = &root;
    SharedMemo memo(mc);
    for (uint64_t e = 0; e < epoch && e < (1u << 16); ++e) {
      memo.AdvanceEpoch();
    }
    CacheStore store(victim);
    CacheStore::LoadResult result = store.Load(&memo, catalog_fp);
    bool ok = true;
    if (root.used() != memo.used_bytes()) {
      std::fprintf(stderr,
                   "cache-file %s: tracker (%lld) != memo bytes (%lld) "
                   "after load\n",
                   what.c_str(), static_cast<long long>(root.used()),
                   static_cast<long long>(memo.used_bytes()));
      ok = false;
    }
    memo.Clear();
    if (memo.used_bytes() != 0 || root.used() != 0) {
      std::fprintf(stderr,
                   "cache-file %s: %lld memo / %lld tracked bytes left "
                   "after Clear\n",
                   what.c_str(), static_cast<long long>(memo.used_bytes()),
                   static_cast<long long>(root.used()));
      ok = false;
    }
    if (out != nullptr) *out = result;
    return ok;
  };

  // Baseline: the pristine bytes must satisfy the same invariants. A
  // degraded baseline is reported but allowed — chaos_smoke.sh hands this
  // mode files a SIGKILLed daemon left torn on purpose.
  WriteCacheBytes(victim, pristine);
  CacheStore::LoadResult baseline;
  if (!check_load("baseline", &baseline)) ++failures;
  baseline_loaded = baseline.loaded;
  if (baseline.degraded) {
    std::fprintf(stderr, "cache-file: baseline is degraded (%s)\n",
                 baseline.detail.c_str());
  }

  // Truncation sweep: every byte offset for small files, a seeded sample
  // for big ones. Offsets that land on a record boundary legitimately
  // load clean with fewer entries (a record stream carries no trailer);
  // the invariant is only load-or-degrade, never more entries than the
  // baseline.
  std::vector<size_t> cuts;
  if (pristine.size() <= (64u << 10)) {
    for (size_t c = 0; c <= pristine.size(); ++c) cuts.push_back(c);
  } else {
    Rng cut_rng(cfg.seed ^ 0x7277cafeULL);
    for (int64_t i = 0; i < cfg.queries; ++i) {
      cuts.push_back(static_cast<size_t>(cut_rng.Next() %
                                         (pristine.size() + 1)));
    }
  }
  for (size_t cut : cuts) {
    std::vector<unsigned char> torn(pristine.begin(),
                                    pristine.begin() + cut);
    WriteCacheBytes(victim, torn);
    CacheStore::LoadResult r;
    if (!check_load("truncate@" + std::to_string(cut), &r)) ++failures;
    if (r.loaded > baseline_loaded) {
      std::fprintf(stderr,
                   "cache-file truncate@%zu: loaded %lld entries from a "
                   "prefix of a file that held %lld\n",
                   cut, static_cast<long long>(r.loaded),
                   static_cast<long long>(baseline_loaded));
      ++failures;
    }
    // (Skipped for an already-degraded baseline: cutting off a torn tail
    // can legitimately yield a clean file with the same entries.)
    if (cut < pristine.size() && !baseline.degraded &&
        baseline_loaded > 0 && !r.degraded && r.loaded == baseline_loaded) {
      std::fprintf(stderr,
                   "cache-file truncate@%zu: a shortened file claims the "
                   "full %lld entries without degrading\n",
                   cut, static_cast<long long>(baseline_loaded));
      ++failures;
    }
  }

  // Single-bit flips: --queries seeded mutations, each one bit somewhere
  // in the file. The checksum catches nearly all; the rest must decode to
  // either a clean rejection or a valid entry — never an abort.
  Rng flip_rng(cfg.seed ^ 0xb17f11bULL);
  for (int64_t i = 0; i < cfg.queries; ++i) {
    std::vector<unsigned char> mutated = pristine;
    size_t pos = static_cast<size_t>(flip_rng.Next() % mutated.size());
    int bit = static_cast<int>(flip_rng.Next() % 8);
    mutated[pos] ^= static_cast<unsigned char>(1u << bit);
    WriteCacheBytes(victim, mutated);
    std::string what = "bitflip@" + std::to_string(pos) + "." +
                       std::to_string(bit);
    if (!check_load(what, nullptr)) ++failures;
  }

  fs::remove(victim, ec);
  fs::remove(victim + ".log", ec);
  std::printf(
      "ecafuzz --cache-file: %s (%zu bytes, %lld entries%s), %zu "
      "truncations, %lld bit flips, %lld failure(s)\n",
      path.c_str(), pristine.size(),
      static_cast<long long>(baseline_loaded),
      baseline.degraded ? ", degraded" : "", cuts.size(),
      static_cast<long long>(cfg.queries),
      static_cast<long long>(failures));
  return failures == 0 ? 0 : 1;
}

// --policy mode: the cross-policy differential over JOB-style workloads.
// Every iteration generates a seeded (database, query) pair in a rotating
// topology (chain / star / clique) with 8+ relations, optimizes it under
// each requested policy, validates the plan (relaxed: Yannakakis reducers
// hide duplicate leaves in pruning sides) and compares execution against
// the unoptimized query. The node budget given to dp is deterministic, so
// the runs where dp trips its budget — and reroutes through the
// sizes-only fallback — replay exactly from the printed seed.
int RunPolicyFuzz(const FuzzConfig& cfg, const std::string& repro_suffix) {
  std::vector<PlanPolicy> policies;
  if (cfg.policy == "all") {
    policies = {PlanPolicy::kDp, PlanPolicy::kSizesOnly, PlanPolicy::kGreedy,
                PlanPolicy::kSemijoin};
  } else {
    StatusOr<PlanPolicy> parsed = ParsePlanPolicy(cfg.policy);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    policies = {*parsed};
  }
  const Topology topologies[] = {Topology::kChain, Topology::kStar,
                                 Topology::kClique};

  int64_t failures = 0, degraded = 0, semijoin_applied = 0;
  bool semijoin_ran = false;
  for (int64_t i = 0; i < cfg.queries; ++i) {
    uint64_t seed = cfg.seed + static_cast<uint64_t>(i);
    Rng rng(seed * 0x51f15eedULL + 3);
    WorkloadOptions wopts;
    wopts.topology = topologies[i % 3];
    wopts.num_rels = static_cast<int>(
        rng.Uniform(8, cfg.max_rels > 8 ? cfg.max_rels : 12));
    wopts.seed = seed;
    // Small rows and a tight domain keep chains of 8+ inner joins
    // executable: the expected per-join growth factor stays near 1.
    wopts.data.min_rows = 2;
    wopts.data.max_rows = 6;
    wopts.data.domain = 3;
    Workload w = GenerateWorkload(wopts);

    Optimizer plain;  // the oracle executes the query as written
    Relation expect = plain.Execute(*w.query, w.db);

    for (PlanPolicy policy : policies) {
      Optimizer::Options opts;
      opts.plan_policy = policy;
      if (policy == PlanPolicy::kDp) {
        // Large join graphs are the point of this mode; an unbudgeted DP
        // enumeration over 8-20 relations would dominate the run. The
        // node cap is deterministic (unlike wall clock), so every
        // degraded trial replays bit-for-bit from its seed.
        opts.budget.max_enumerated_nodes = 20000;
      }
      Optimizer opt(opts);
      Optimizer::Optimized best = opt.Optimize(*w.query, w.db);
      std::string failure;
      ValidateOptions vopts;
      vopts.allow_hidden_duplicates = true;
      Status valid =
          ValidatePlanStatus(*best.plan, w.db.BaseSchemas(), vopts);
      if (!valid.ok()) {
        failure = "optimized plan fails validation: " + valid.ToString();
      } else if ((policy == PlanPolicy::kSizesOnly ||
                  policy == PlanPolicy::kGreedy) &&
                 best.stats.degraded) {
        // Deliberate policy choices are not degradations; only budget or
        // deadline fallbacks may set the flag.
        failure = "policy-selected planner flagged stats.degraded";
      } else {
        Relation got = opt.Execute(*best.plan, w.db);
        if (!SameMultiset(CanonicalizeColumnOrder(expect),
                          CanonicalizeColumnOrder(got))) {
          failure =
              "POLICY DIVERGENCE: optimized plan result differs from the "
              "query\n" +
              best.plan->ToString();
        }
      }
      if (best.stats.degraded) ++degraded;
      if (policy == PlanPolicy::kSemijoin) {
        semijoin_ran = true;
        if (best.provenance.policy_note.rfind("yannakakis", 0) == 0) {
          ++semijoin_applied;
        }
      }
      if (!failure.empty()) {
        std::fprintf(
            stderr,
            "seed %llu [%s, %d rels, policy %s]: %s\n"
            "  repro: ecafuzz --seed %llu --queries 1%s\n",
            static_cast<unsigned long long>(seed),
            TopologyName(wopts.topology), wopts.num_rels,
            PlanPolicyName(policy), failure.c_str(),
            static_cast<unsigned long long>(seed), repro_suffix.c_str());
        ++failures;
      } else if (cfg.verbose) {
        std::printf("seed %llu [%s, %d rels] policy %s ok%s\n",
                    static_cast<unsigned long long>(seed),
                    TopologyName(wopts.topology), wopts.num_rels,
                    PlanPolicyName(policy),
                    best.stats.degraded ? " [degraded]" : "");
      }
    }
  }
  if (semijoin_ran && semijoin_applied == 0) {
    std::fprintf(stderr,
                 "semijoin policy never applied the Yannakakis pass — the "
                 "chain/star workloads should be GYO-acyclic\n");
    ++failures;
  }
  std::printf(
      "ecafuzz --policy %s: %lld workloads x %zu policies, %lld degraded "
      "gracefully, %lld yannakakis plans, %lld failure(s)\n",
      cfg.policy.c_str(), static_cast<long long>(cfg.queries),
      policies.size(), static_cast<long long>(degraded),
      static_cast<long long>(semijoin_applied),
      static_cast<long long>(failures));
  return failures == 0 ? 0 : 1;
}

// Parses command-line flags into `cfg`. Returns false (after printing
// usage) on an unknown flag. `queries_set` reports whether --queries was
// given explicitly (smoke mode lowers the default).
bool ParseArgs(int argc, char** argv, FuzzConfig* cfg, bool* queries_set) {
  *queries_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      cfg->queries = std::atoll(argv[++i]);
      *queries_set = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cfg->seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-rels") == 0 && i + 1 < argc) {
      cfg->max_rels = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      cfg->threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg->smoke = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      cfg->verbose = true;
    } else if (std::strcmp(argv[i], "--enum-diff") == 0) {
      cfg->enum_diff = true;
    } else if (std::strcmp(argv[i], "--plan-cache") == 0) {
      cfg->plan_cache = true;
    } else if (std::strcmp(argv[i], "--cache-file") == 0 && i + 1 < argc) {
      cfg->cache_file = argv[++i];
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      cfg->policy = argv[++i];
    } else if (std::strcmp(argv[i], "--mem-limit-mb") == 0 && i + 1 < argc) {
      cfg->mem_limit_mb = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--morsel-rows") == 0 && i + 1 < argc) {
      cfg->morsel_rows = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--chunk-rows") == 0 && i + 1 < argc) {
      cfg->chunk_rows = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: ecafuzz [--queries N] "
                   "[--seed S] [--max-rels N] [--threads N] [--smoke] "
                   "[--verbose] [--enum-diff] [--plan-cache] "
                   "[--cache-file PATH] "
                   "[--policy dp|sizes-only|greedy|semijoin|all] "
                   "[--mem-limit-mb N] "
                   "[--morsel-rows N] [--chunk-rows N]\n",
                   argv[i]);
      return false;
    }
  }
  return true;
}

// Every flag that changes what MakeTrial / RunTrial does for a given
// seed must appear in the printed repro command, or replaying it runs a
// different trial: --smoke changes the query-shape distribution,
// --max-rels seeds different relation counts, --threads picks the
// parallel execution path, --mem-limit-mb arms the governor, and
// --morsel-rows/--chunk-rows move the executor's work-claim granularity.
std::string ReproSuffix(const FuzzConfig& cfg) {
  std::string repro_suffix = cfg.smoke ? " --smoke" : "";
  if (cfg.max_rels != FuzzConfig{}.max_rels) {
    repro_suffix += " --max-rels " + std::to_string(cfg.max_rels);
  }
  if (cfg.threads != 1) {
    repro_suffix += " --threads " + std::to_string(cfg.threads);
  }
  if (cfg.plan_cache) {
    repro_suffix += " --plan-cache";
  }
  if (!cfg.cache_file.empty()) {
    repro_suffix += " --cache-file " + cfg.cache_file;
  }
  if (!cfg.policy.empty()) {
    repro_suffix += " --policy " + cfg.policy;
  }
  if (cfg.mem_limit_mb > 0) {
    repro_suffix += " --mem-limit-mb " + std::to_string(cfg.mem_limit_mb);
  }
  if (cfg.morsel_rows > 0) {
    repro_suffix += " --morsel-rows " + std::to_string(cfg.morsel_rows);
  }
  if (cfg.chunk_rows > 0) {
    repro_suffix += " --chunk-rows " + std::to_string(cfg.chunk_rows);
  }
  return repro_suffix;
}

// Self-check: re-parsing "--seed S --queries 1<ReproSuffix(cfg)>" must
// reproduce every trial-relevant field of `cfg`. This is the property the
// printed repro lines rely on; a flag added to FuzzConfig but forgotten
// in ReproSuffix fails here (in --smoke CI) instead of producing repro
// commands that silently replay a different trial.
bool ReproSuffixRoundTrips(const FuzzConfig& cfg) {
  std::string cmd = "--seed " + std::to_string(cfg.seed) + " --queries 1" +
                    ReproSuffix(cfg);
  std::vector<std::string> tokens;
  for (size_t pos = 0; pos < cmd.size();) {
    size_t space = cmd.find(' ', pos);
    if (space == std::string::npos) space = cmd.size();
    if (space > pos) tokens.push_back(cmd.substr(pos, space - pos));
    pos = space + 1;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("ecafuzz"));
  for (std::string& t : tokens) argv.push_back(t.data());
  FuzzConfig replay;
  bool queries_set = false;
  if (!ParseArgs(static_cast<int>(argv.size()), argv.data(), &replay,
                 &queries_set)) {
    return false;
  }
  return replay.seed == cfg.seed && replay.smoke == cfg.smoke &&
         replay.max_rels == cfg.max_rels && replay.threads == cfg.threads &&
         replay.plan_cache == cfg.plan_cache &&
         replay.cache_file == cfg.cache_file &&
         replay.policy == cfg.policy &&
         replay.mem_limit_mb == cfg.mem_limit_mb &&
         replay.morsel_rows == cfg.morsel_rows &&
         replay.chunk_rows == cfg.chunk_rows && queries_set &&
         replay.queries == 1;
}

int Main(int argc, char** argv) {
  FuzzConfig cfg;
  bool queries_set = false;
  if (!ParseArgs(argc, argv, &cfg, &queries_set)) return 2;
  if (cfg.smoke && !queries_set) {
    // Policy trials optimize and execute 8+-relation workloads per policy,
    // an order of magnitude heavier than a default trial.
    cfg.queries = cfg.policy.empty() ? 200 : 24;
  }
  if (cfg.max_rels < 2 || cfg.queries <= 0 || cfg.threads < 1 ||
      cfg.mem_limit_mb < 0 || cfg.morsel_rows < 0 || cfg.chunk_rows < 0) {
    std::fprintf(stderr,
                 "need --max-rels >= 2, --queries > 0, --threads >= 1 and "
                 "non-negative --mem-limit-mb/--morsel-rows/--chunk-rows\n");
    return 2;
  }
  if (cfg.smoke && !ReproSuffixRoundTrips(cfg)) {
    std::fprintf(stderr,
                 "repro-suffix round-trip failed: a printed repro command "
                 "would not replay this configuration\n");
    return 2;
  }

  std::string repro_suffix = ReproSuffix(cfg);

  if (!cfg.cache_file.empty()) return RunCacheFileFuzz(cfg);

  if (!cfg.policy.empty()) return RunPolicyFuzz(cfg, repro_suffix);

  if (cfg.enum_diff) {
    // --plan-cache: one shared memo for the whole run, tracked so the
    // final drain check can prove byte balance.
    MemoryTracker cache_root(0, 0);
    std::unique_ptr<SharedMemo> cache;
    if (cfg.plan_cache) {
      SharedMemo::Config cache_config;
      cache_config.max_bytes = 8ll << 20;
      cache_config.parent = &cache_root;
      cache = std::make_unique<SharedMemo>(cache_config);
    }
    int64_t failures = 0;
    for (int64_t i = 0; i < cfg.queries; ++i) {
      uint64_t seed = cfg.seed + static_cast<uint64_t>(i);
      Trial t = MakeTrial(seed, cfg);
      if (cache != nullptr) {
        // Every trial has its own database, i.e. new base-relation
        // statistics: the epoch advance is what keeps entries costed
        // under trial i's stats unreachable from trial i+1.
        cache->AdvanceEpoch();
      }
      std::string failure = RunEnumDiff(t, cache.get());
      if (!failure.empty()) {
        std::fprintf(stderr, "seed %llu: %s\n",
                     static_cast<unsigned long long>(seed), failure.c_str());
        std::fprintf(
            stderr,
            "  query: %s\n"
            "  repro: ecafuzz --enum-diff --seed %llu --queries 1%s\n",
            t.query->ToInlineString().c_str(),
            static_cast<unsigned long long>(seed), repro_suffix.c_str());
        ++failures;
      } else if (cfg.verbose) {
        std::printf("seed %llu ok\n", static_cast<unsigned long long>(seed));
      }
    }
    if (cache != nullptr) {
      cache->Clear();
      if (cache->used_bytes() != 0 || cache_root.used() != 0) {
        std::fprintf(stderr,
                     "plan-cache: %lld cached / %lld tracked bytes left "
                     "after Clear (accounting imbalance)\n",
                     static_cast<long long>(cache->used_bytes()),
                     static_cast<long long>(cache_root.used()));
        ++failures;
      }
    }
    std::printf("ecafuzz --enum-diff: %lld queries, %lld failure(s)\n",
                static_cast<long long>(cfg.queries),
                static_cast<long long>(failures));
    return failures == 0 ? 0 : 1;
  }

  int64_t failures = 0, degraded = 0, mutants_parsed = 0;
  for (int64_t i = 0; i < cfg.queries; ++i) {
    uint64_t seed = cfg.seed + static_cast<uint64_t>(i);
    Trial t = MakeTrial(seed, cfg);
    EnumeratorStats stats;
    std::string failure = RunTrial(t, t.setup, &stats);
    if (stats.degraded) ++degraded;
    if (failure.empty() && i % 4 == 0) {
      failure = RunMutatedNotation(t, seed);
      if (!failure.empty()) {
        std::fprintf(stderr, "seed %llu: %s\n",
                     static_cast<unsigned long long>(seed), failure.c_str());
        std::fprintf(stderr,
                     "repro: ecafuzz --seed %llu --queries 1%s\n",
                     static_cast<unsigned long long>(seed),
                     repro_suffix.c_str());
        ++failures;
        continue;
      }
      ++mutants_parsed;
    }
    if (!failure.empty()) {
      TrialSetup minimal = Minimize(t, t.setup);
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed), failure.c_str());
      std::fprintf(stderr, "  query: %s\n",
                   t.query->ToInlineString().c_str());
      std::fprintf(stderr, "  minimized config: %s\n",
                   minimal.ToString().c_str());
      std::fprintf(stderr, "  repro: ecafuzz --seed %llu --queries 1%s\n",
                   static_cast<unsigned long long>(seed),
                   repro_suffix.c_str());
      ++failures;
    } else if (cfg.verbose) {
      std::printf("seed %llu ok: %s%s\n",
                  static_cast<unsigned long long>(seed),
                  t.setup.ToString().c_str(),
                  stats.degraded ? " [degraded]" : "");
    }
  }
  std::printf(
      "ecafuzz: %lld queries, %lld degraded gracefully, %lld mutated-"
      "notation probes, %lld failure(s)\n",
      static_cast<long long>(cfg.queries), static_cast<long long>(degraded),
      static_cast<long long>(mutants_parsed),
      static_cast<long long>(failures));
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace eca

int main(int argc, char** argv) { return eca::Main(argc, argv); }
