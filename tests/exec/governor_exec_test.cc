// Resource governor end-to-end: spilled execution must be byte-identical
// to in-memory execution (every join operator and every compensation
// operator, NULL keys included), limits/deadlines/cancellation must unwind
// with a clean Status, spill I/O faults must not leave temp files behind,
// and the query tracker must balance to zero on success.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "eca/optimizer.h"
#include "exec/executor.h"
#include "exec/query_context.h"
#include "storage/relation.h"
#include "storage/spill_file.h"
#include "testing/fault_injection.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

#include "../test_util.h"

namespace eca {
namespace {

// The spill paths promise byte-identical output — same rows in the same
// order — which is strictly stronger than ExpectSameRelation's multiset
// equality.
void ExpectIdentical(const Relation& expected, const Relation& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.NumRows(), actual.NumRows()) << context;
  ASSERT_EQ(expected.schema().NumColumns(), actual.schema().NumColumns())
      << context;
  for (size_t r = 0; r < expected.rows().size(); ++r) {
    ASSERT_EQ(CompareTuples(expected.rows()[r], actual.rows()[r]), 0)
        << context << ": first difference at row " << r;
  }
}

// A relation big enough that its hash-join build estimate dwarfs any soft
// threshold: unique key k, a skewed join column with NULLs, a payload
// column with NULLs.
Relation BigRel(int rel_id, int rows, uint64_t seed, int64_t key_domain) {
  Rng rng(seed);
  std::vector<Tuple> data;
  data.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    Value join_key = rng.Bernoulli(0.15)
                         ? N()
                         : I(static_cast<int64_t>(rng.Uniform(0, key_domain)));
    Value payload =
        rng.Bernoulli(0.2) ? N() : I(static_cast<int64_t>(rng.Uniform(0, 5)));
    data.push_back({I(i), join_key, payload});
  }
  return MakeRelation({{rel_id, "k", DataType::kInt64},
                       {rel_id, "a", DataType::kInt64},
                       {rel_id, "b", DataType::kInt64}},
                      std::move(data));
}

constexpr JoinOp kAllJoinOps[] = {
    JoinOp::kInner,    JoinOp::kLeftOuter, JoinOp::kRightOuter,
    JoinOp::kFullOuter, JoinOp::kLeftSemi, JoinOp::kRightSemi,
    JoinOp::kLeftAnti, JoinOp::kRightAnti,
};

TEST(GovernorSpillTest, AllJoinOpsSpilledByteIdentical) {
  Relation left = BigRel(0, 400, 7, /*key_domain=*/25);
  Relation right = BigRel(1, 300, 11, /*key_domain=*/25);
  PredRef pred = EquiJoin(0, "a", 1, "a", "p01");
  for (JoinOp op : kAllJoinOps) {
    Relation in_memory = EvalJoin(op, pred, left, right);
    QueryContext ctx(SpillEverythingLimits());
    ExecStats stats;
    Relation spilled = EvalJoin(op, pred, left, right,
                                Executor::JoinPreference::kHash, &stats,
                                /*pool=*/nullptr, &ctx);
    ASSERT_FALSE(ctx.HasError())
        << JoinOpName(op) << ": " << ctx.StopStatus().ToString();
    ExpectIdentical(in_memory, spilled,
                    std::string("grace join, op ") + JoinOpName(op));
    EXPECT_GT(stats.spilled_partitions, 0) << JoinOpName(op);
    EXPECT_GT(stats.spill_bytes, 0) << JoinOpName(op);
    EXPECT_EQ(ctx.tracker()->used(), 0)
        << JoinOpName(op) << ": scratch charges must all release";
  }
}

// Heavy skew: nearly all rows share one join key, so one grace partition
// keeps exceeding its budget and the join recurses through repartitioning
// levels. Output must still be byte-identical.
TEST(GovernorSpillTest, SkewedGraceJoinRecursesAndStaysIdentical) {
  Relation left = BigRel(0, 1500, 3, /*key_domain=*/2);
  Relation right = BigRel(1, 1200, 5, /*key_domain=*/2);
  PredRef pred = EquiJoin(0, "a", 1, "a", "p01");
  Relation in_memory = EvalJoin(JoinOp::kFullOuter, pred, left, right);
  QueryContext ctx(SpillEverythingLimits());
  ExecStats stats;
  Relation spilled = EvalJoin(JoinOp::kFullOuter, pred, left, right,
                              Executor::JoinPreference::kHash, &stats,
                              /*pool=*/nullptr, &ctx);
  ASSERT_FALSE(ctx.HasError()) << ctx.StopStatus().ToString();
  ExpectIdentical(in_memory, spilled, "skewed grace join");
  EXPECT_GT(stats.spilled_partitions, 0);
}

TEST(GovernorSpillTest, CompensationOpsSpilledByteIdentical) {
  // A left outerjoin output has relation-block NULL patterns — exactly the
  // input shape the compensation operators see in rewritten plans.
  Relation left = BigRel(0, 300, 13, /*key_domain=*/20);
  Relation right = BigRel(1, 250, 17, /*key_domain=*/20);
  Relation joined = EvalJoin(JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a"),
                             left, right);
  ASSERT_GT(joined.NumRows(), 0);

  {
    QueryContext ctx(SpillEverythingLimits());
    ExecStats stats;
    Relation spilled = EvalBeta(joined, &ctx, &stats);
    ASSERT_FALSE(ctx.HasError()) << ctx.StopStatus().ToString();
    ExpectIdentical(EvalBeta(joined), spilled, "external-sort beta");
    EXPECT_GT(stats.spilled_sort_runs, 0);
    EXPECT_EQ(ctx.tracker()->used(), 0);
  }
  // lambda, gamma and gamma* as the executor runs them (a one-step fused
  // chain, plus EvalBeta for gamma*), governed at 1 and 4 threads against
  // the ungoverned sequential run.
  const PredRef lambda_pred = EquiJoin(0, "b", 1, "b");
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string at = p == nullptr ? " threads=1" : " threads=4";
    {
      QueryContext ctx(SpillEverythingLimits());
      Relation governed =
          RunLambda(lambda_pred, RelSet::Single(1), joined, p, &ctx);
      ASSERT_FALSE(ctx.HasError());
      ExpectIdentical(RunLambda(lambda_pred, RelSet::Single(1), joined),
                      governed, "governed lambda" + at);
      EXPECT_EQ(ctx.tracker()->used(), 0);
    }
    {
      QueryContext ctx(SpillEverythingLimits());
      Relation governed = RunGamma(RelSet::Single(1), joined, p, &ctx);
      ASSERT_FALSE(ctx.HasError());
      ExpectIdentical(RunGamma(RelSet::Single(1), joined), governed,
                      "governed gamma" + at);
      EXPECT_EQ(ctx.tracker()->used(), 0);
    }
    {
      QueryContext ctx(SpillEverythingLimits());
      ExecStats stats;
      Relation governed = RunGammaStar(RelSet::Single(1), RelSet::Single(0),
                                       joined, p, &ctx, &stats);
      ASSERT_FALSE(ctx.HasError()) << ctx.StopStatus().ToString();
      ExpectIdentical(
          RunGammaStar(RelSet::Single(1), RelSet::Single(0), joined),
          governed, "governed gamma*" + at);
      EXPECT_GT(stats.spilled_sort_runs, 0);  // gamma*'s best-match spilled
      EXPECT_EQ(ctx.tracker()->used(), 0);
    }
  }
}

// Whole optimized plans, spilled vs in-memory, across random queries: the
// materializing engine's governed run must match its ungoverned run
// byte for byte, and the tracker must balance to zero.
TEST(GovernorSpillTest, GovernedPlansMatchUngovernedAndBalance) {
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 977 + 5);
    RandomDataOptions dopts;
    dopts.max_rows = 16;
    RandomQueryOptions qopts;
    qopts.num_rels = 4;
    Database db = RandomDatabase(rng, qopts.num_rels, dopts);
    PlanPtr query = RandomQuery(rng, qopts, dopts);
    auto best = Optimizer().Optimize(*query, db);
    ASSERT_NE(best.plan, nullptr);

    Executor plain;
    Relation expected = plain.Execute(*best.plan, db);

    QueryContext ctx(SpillEverythingLimits());
    Executor governed;
    StatusOr<Relation> got = governed.ExecuteWithContext(*best.plan, db,
                                                         &ctx);
    ASSERT_TRUE(got.ok()) << "seed " << seed << ": "
                          << got.status().ToString();
    ExpectIdentical(expected, *got, "seed " + std::to_string(seed));
    EXPECT_EQ(ctx.tracker()->used(), 0) << "seed " << seed;
    EXPECT_GT(governed.stats().peak_bytes, 0) << "seed " << seed;
  }
}

TEST(GovernorLimitTest, HardLimitUnwindsWithResourceExhausted) {
  Relation left = BigRel(0, 500, 19, /*key_domain=*/4);
  Relation right = BigRel(1, 500, 23, /*key_domain=*/4);
  Database db;
  db.Add(std::move(left));
  db.Add(std::move(right));
  PlanPtr plan = Plan::Join(JoinOp::kInner, EquiJoin(0, "a", 1, "a"),
                            Plan::Leaf(0), Plan::Leaf(1));
  QueryContext::Limits limits;
  limits.mem_limit_bytes = 64 << 10;  // far below the join's output
  QueryContext ctx(limits);
  Executor ex;
  StatusOr<Relation> got = ex.ExecuteWithContext(*plan, db, &ctx);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
      << got.status().ToString();
}

TEST(GovernorLimitTest, DeadlineUnwindsWithDeadlineExceeded) {
  Rng rng(41);
  RandomDataOptions dopts;
  dopts.max_rows = 24;
  Database db = RandomDatabase(rng, 3, dopts);
  RandomQueryOptions qopts;
  qopts.num_rels = 3;
  PlanPtr query = RandomQuery(rng, qopts, dopts);
  // Every governed clock observation advances fake time 1ms past a 2ms
  // budget, so the deadline fires at the executor's first few checks.
  ScopedFaultClock clock(/*now_ms=*/100, /*step_ms=*/1);
  QueryContext::Limits limits;
  limits.timeout_ms = 2;
  QueryContext ctx(limits);
  ctx.Arm();
  Executor ex;
  StatusOr<Relation> got = ex.ExecuteWithContext(*query, db, &ctx);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
      << got.status().ToString();
}

// Regression for deadline granularity inside fused pipelines: the old
// executor only observed the clock between operator phases, so a fused
// probe+compensation pipeline over a large input could overrun its
// deadline by the whole pipeline's runtime. Checks now happen at morsel
// boundaries: with single-row morsels and a fake clock that advances 1ms
// per governed observation, a 2ms budget must fire within the first few
// morsels of a long join — deterministically, no sleeps involved.
TEST(GovernorLimitTest, DeadlineObservedAtMorselBoundariesInFusedPipeline) {
  Relation left = BigRel(0, 2000, 53, /*key_domain=*/30);
  Relation right = BigRel(1, 2000, 59, /*key_domain=*/30);
  Database db;
  db.Add(std::move(left));
  db.Add(std::move(right));
  // Lambda over a full outer join fuses into the probe pipeline; the
  // deadline must still be observed inside the fused loop.
  PlanPtr plan = Plan::Comp(
      CompOp::Lambda(EquiJoin(0, "b", 1, "b", "pb"), RelSet::Single(1)),
      Plan::Join(JoinOp::kFullOuter, EquiJoin(0, "a", 1, "a", "p01"),
                 Plan::Leaf(0), Plan::Leaf(1)));
  ScopedFaultClock clock(/*now_ms=*/100, /*step_ms=*/1);
  QueryContext::Limits limits;
  limits.timeout_ms = 2;
  QueryContext ctx(limits);
  ctx.Arm();
  Executor::Options opts;
  opts.tuning.morsel_rows = 1;  // a check per row: the tightest granularity
  Executor ex(opts);
  StatusOr<Relation> got = ex.ExecuteWithContext(*plan, db, &ctx);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
      << got.status().ToString();
}

// Cancellation mid-morsel-stream: kCancelRace flips the token from inside
// a governor probe once a few morsels are already done; the fused
// pipeline must unwind with a clean kCancelled at the next boundary.
TEST(GovernorLimitTest, CancelMidMorselUnwindsCleanly) {
  Relation left = BigRel(0, 600, 61, /*key_domain=*/12);
  Relation right = BigRel(1, 600, 67, /*key_domain=*/12);
  Database db;
  db.Add(std::move(left));
  db.Add(std::move(right));
  PlanPtr plan = Plan::Comp(
      CompOp::Gamma(RelSet::Single(1)),
      Plan::Join(JoinOp::kFullOuter, EquiJoin(0, "a", 1, "a", "p01"),
                 Plan::Leaf(0), Plan::Leaf(1)));
  for (int64_t skip : {int64_t{2}, int64_t{10}}) {
    FaultInjector::Reset();
    ScopedFault fault(FaultPoint::kCancelRace, skip);
    QueryContext ctx;
    Executor::Options opts;
    opts.tuning.morsel_rows = 8;
    Executor ex(opts);
    StatusOr<Relation> got = ex.ExecuteWithContext(*plan, db, &ctx);
    ASSERT_FALSE(got.ok()) << "skip " << skip;
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << "skip " << skip;
  }
  FaultInjector::Reset();
}

TEST(GovernorLimitTest, CancellationUnwindsWithCancelled) {
  Rng rng(43);
  RandomDataOptions dopts;
  Database db = RandomDatabase(rng, 3, dopts);
  RandomQueryOptions qopts;
  qopts.num_rels = 3;
  PlanPtr query = RandomQuery(rng, qopts, dopts);
  QueryContext ctx;
  ctx.cancel_token()->Cancel();
  Executor ex;
  StatusOr<Relation> got = ex.ExecuteWithContext(*query, db, &ctx);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
}

// kCancelRace flips the token from inside a governor probe mid-execution —
// the unwind must still be a clean kCancelled, wherever it lands.
TEST(GovernorLimitTest, InjectedCancelRaceUnwindsCleanly) {
  Relation left = BigRel(0, 200, 29, /*key_domain=*/10);
  Relation right = BigRel(1, 200, 31, /*key_domain=*/10);
  Database db;
  db.Add(std::move(left));
  db.Add(std::move(right));
  PlanPtr plan = Plan::Join(JoinOp::kFullOuter, EquiJoin(0, "a", 1, "a"),
                            Plan::Leaf(0), Plan::Leaf(1));
  for (int64_t skip : {int64_t{0}, int64_t{1}, int64_t{3}}) {
    FaultInjector::Reset();
    ScopedFault fault(FaultPoint::kCancelRace, skip);
    QueryContext ctx(SpillEverythingLimits());
    Executor ex;
    StatusOr<Relation> got = ex.ExecuteWithContext(*plan, db, &ctx);
    ASSERT_FALSE(got.ok()) << "skip " << skip;
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << "skip " << skip;
  }
  FaultInjector::Reset();
}

TEST(GovernorLimitTest, InjectedAllocationFaultUnwindsCleanly) {
  Relation left = BigRel(0, 200, 37, /*key_domain=*/10);
  Relation right = BigRel(1, 200, 41, /*key_domain=*/10);
  Database db;
  db.Add(std::move(left));
  db.Add(std::move(right));
  PlanPtr plan = Plan::Join(JoinOp::kInner, EquiJoin(0, "a", 1, "a"),
                            Plan::Leaf(0), Plan::Leaf(1));
  for (int64_t skip : {int64_t{0}, int64_t{1}, int64_t{2}}) {
    FaultInjector::Reset();
    ScopedFault fault(FaultPoint::kExecAllocation, skip);
    QueryContext::Limits limits;
    limits.mem_limit_bytes = int64_t{1} << 30;
    QueryContext ctx(limits);
    Executor ex;
    StatusOr<Relation> got = ex.ExecuteWithContext(*plan, db, &ctx);
    ASSERT_FALSE(got.ok()) << "skip " << skip;
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
        << "skip " << skip << ": " << got.status().ToString();
  }
  FaultInjector::Reset();
}

// Spill I/O faults at every early stage (mkdir, open, first writes): the
// query must fail with a Status — never abort — and the spill directory
// must hold zero orphaned files afterwards.
TEST(GovernorLimitTest, SpillIoFaultFailsCleanlyWithoutOrphanFiles) {
  namespace fs = std::filesystem;
  Relation left = BigRel(0, 300, 43, /*key_domain=*/10);
  Relation right = BigRel(1, 300, 47, /*key_domain=*/10);
  Database db;
  db.Add(std::move(left));
  db.Add(std::move(right));
  PlanPtr plan = Plan::Join(JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a"),
                            Plan::Leaf(0), Plan::Leaf(1));
  const std::string base =
      (fs::temp_directory_path() / "eca-governor-test-spill").string();
  for (int64_t skip = 0; skip < 6; ++skip) {
    FaultInjector::Reset();
    ScopedFault fault(FaultPoint::kSpillIo, skip);
    {
      // Inner scope: the context owns a per-query subdirectory of `base`
      // that its destructor removes; the orphan count below must run
      // after that removal, like the startup sweep would.
      QueryContext::Limits limits = SpillEverythingLimits();
      limits.spill_dir = base;
      QueryContext ctx(limits);
      Executor ex;
      StatusOr<Relation> got = ex.ExecuteWithContext(*plan, db, &ctx);
      ASSERT_FALSE(got.ok()) << "skip " << skip;
      EXPECT_EQ(got.status().code(), StatusCode::kDataLoss)
          << "skip " << skip << ": " << got.status().ToString();
    }
    // SpillDir's RAII cleanup must have removed every temp file even on
    // the error path, and ~QueryContext the per-query subdirectory.
    int64_t orphans = 0;
    if (fs::exists(base)) {
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        (void)entry;
        ++orphans;
      }
    }
    EXPECT_EQ(orphans, 0) << "skip " << skip;
  }
  FaultInjector::Reset();
  std::error_code ec;
  fs::remove_all(base, ec);
}

// The nastier spill-write failure shapes: a partial write() return that
// physically tears the record on disk, and ENOSPC refusing the write or
// the flush. Both must unwind with a clean kDataLoss and leave zero
// orphaned files — exactly like the plain fault above.
TEST(GovernorLimitTest, SpillIoVariantFaultsFailCleanlyWithoutOrphans) {
  namespace fs = std::filesystem;
  Relation left = BigRel(0, 300, 43, /*key_domain=*/10);
  Relation right = BigRel(1, 300, 47, /*key_domain=*/10);
  Database db;
  db.Add(std::move(left));
  db.Add(std::move(right));
  PlanPtr plan = Plan::Join(JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a"),
                            Plan::Leaf(0), Plan::Leaf(1));
  const std::string base =
      (fs::temp_directory_path() / "eca-governor-variant-spill").string();
  for (FaultVariant variant :
       {FaultVariant::kShortWrite, FaultVariant::kEnospc}) {
    for (int64_t skip = 0; skip < 6; ++skip) {
      FaultInjector::Reset();
      ScopedFault fault(FaultPoint::kSpillIo, skip, variant);
      {
        QueryContext::Limits limits = SpillEverythingLimits();
        limits.spill_dir = base;
        QueryContext ctx(limits);
        Executor ex;
        StatusOr<Relation> got = ex.ExecuteWithContext(*plan, db, &ctx);
        ASSERT_FALSE(got.ok())
            << FaultVariantName(variant) << " skip " << skip;
        EXPECT_EQ(got.status().code(), StatusCode::kDataLoss)
            << FaultVariantName(variant) << " skip " << skip << ": "
            << got.status().ToString();
      }
      // Even with a torn record physically on disk, RAII cleanup must
      // remove every temp file and the per-query subdirectory.
      int64_t orphans = 0;
      if (fs::exists(base)) {
        for (const auto& entry : fs::recursive_directory_iterator(base)) {
          (void)entry;
          ++orphans;
        }
      }
      EXPECT_EQ(orphans, 0) << FaultVariantName(variant) << " skip " << skip;
    }
  }
  FaultInjector::Reset();
  std::error_code ec;
  fs::remove_all(base, ec);
}

// The short-write variant must actually tear the file — a prefix of the
// failed record lands on disk — and the reader must keep every record
// before the tear while rejecting the torn tail with a checksum error,
// never a crash.
TEST(GovernorLimitTest, SpillShortWritePhysicallyTearsTheRecord) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "eca-governor-shortwrite").string();
  fs::create_directories(dir);
  const std::string path = dir + "/torn.spill";

  Tuple row = {I(7), S("payload"), N()};

  // Control file: one clean record, to learn the encoded record size.
  const std::string control = dir + "/control.spill";
  {
    SpillWriter cw;
    ASSERT_TRUE(cw.Open(control, nullptr).ok());
    ASSERT_TRUE(cw.Append(/*tag=*/1, row).ok());
    ASSERT_TRUE(cw.Finish().ok());
  }
  const uintmax_t record_size = fs::file_size(control);
  ASSERT_GT(record_size, 0u);

  SpillWriter w;
  ASSERT_TRUE(w.Open(path, nullptr).ok());
  ASSERT_TRUE(w.Append(/*tag=*/1, row).ok());
  {
    FaultInjector::Reset();
    ScopedFault fault(FaultPoint::kSpillIo, /*skip=*/0,
                      FaultVariant::kShortWrite);
    Status torn = w.Append(/*tag=*/2, row);
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.code(), StatusCode::kDataLoss);
    EXPECT_NE(torn.message().find("short write"), std::string::npos)
        << torn.ToString();
  }
  FaultInjector::Reset();
  (void)w.Finish();

  // The tear is physical: more bytes than one full record (a prefix of
  // the failed record landed), fewer than two (it did not all land).
  const uintmax_t final_size = fs::file_size(path);
  EXPECT_GT(final_size, record_size);
  EXPECT_LT(final_size, 2 * record_size);

  // Read back: record 1 intact, then the torn tail must fail (truncated
  // or checksum mismatch — both are kDataLoss), not parse as a record.
  SpillReader r;
  ASSERT_TRUE(r.Open(path, nullptr).ok());
  uint64_t tag = 0;
  Tuple got;
  bool eof = false;
  ASSERT_TRUE(r.Next(&tag, &got, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(tag, 1u);
  EXPECT_EQ(CompareTuples(row, got), 0);
  Status tail = r.Next(&tag, &got, &eof);
  ASSERT_FALSE(tail.ok());
  EXPECT_EQ(tail.code(), StatusCode::kDataLoss) << tail.ToString();
  r.Close();

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Parallel governed execution must stay byte-identical to sequential
// governed execution (the PR 2 invariant extended to the spill paths).
TEST(GovernorSpillTest, ThreadedGovernedExecutionIdentical) {
  Rng rng(61);
  RandomDataOptions dopts;
  dopts.max_rows = 16;
  Database db = RandomDatabase(rng, 4, dopts);
  RandomQueryOptions qopts;
  qopts.num_rels = 4;
  PlanPtr query = RandomQuery(rng, qopts, dopts);
  auto best = Optimizer().Optimize(*query, db);
  ASSERT_NE(best.plan, nullptr);

  QueryContext seq_ctx(SpillEverythingLimits());
  Executor seq;
  StatusOr<Relation> seq_out = seq.ExecuteWithContext(*best.plan, db,
                                                      &seq_ctx);
  ASSERT_TRUE(seq_out.ok()) << seq_out.status().ToString();
  for (int threads : {2, 4}) {
    QueryContext ctx(SpillEverythingLimits());
    Executor::Options opts;
    opts.num_threads = threads;
    Executor ex(opts);
    StatusOr<Relation> got = ex.ExecuteWithContext(*best.plan, db, &ctx);
    ASSERT_TRUE(got.ok()) << "threads " << threads << ": "
                          << got.status().ToString();
    ExpectIdentical(*seq_out, *got,
                    "threads " + std::to_string(threads));
    EXPECT_EQ(ctx.tracker()->used(), 0) << "threads " << threads;
  }
}

// Multi-query accounting (the ecad admission model): N concurrent
// governed queries all chain their trackers to one shared root whose soft
// threshold is so tight that every query runs under cross-query spill
// pressure. Each result must still be byte-identical to that query's solo
// ungoverned run — concurrency may change *when* queries spill, never
// *what* they produce — and the root must balance to zero afterwards.
TEST(GovernorSharedRootTest, ConcurrentQueriesUnderOneRootStayIdentical) {
  constexpr int kQueries = 6;
  std::vector<Database> dbs(kQueries);
  std::vector<PlanPtr> plans(kQueries);
  std::vector<Relation> expected;
  for (int q = 0; q < kQueries; ++q) {
    Rng rng(static_cast<uint64_t>(q) * 131 + 7);
    RandomDataOptions dopts;
    dopts.max_rows = 16 + 8 * (q % 3);  // mixed workload sizes
    RandomQueryOptions qopts;
    qopts.num_rels = 3 + q % 2;
    dbs[q] = RandomDatabase(rng, qopts.num_rels, dopts);
    PlanPtr query = RandomQuery(rng, qopts, dopts);
    auto best = Optimizer().Optimize(*query, dbs[q]);
    ASSERT_NE(best.plan, nullptr) << "query " << q;
    plans[q] = std::move(best.plan);
    Executor plain;
    expected.push_back(plain.Execute(*plans[q], dbs[q]));
  }

  // Soft threshold of one byte at the root: every child reservation sees
  // SoftExceeded through the parent chain. Hard limit high enough that
  // all queries succeed — the point is contention, not rejection.
  MemoryTracker root(/*soft_bytes=*/1, /*hard_bytes=*/int64_t{1} << 30);
  std::vector<StatusOr<Relation>> results(
      kQueries, StatusOr<Relation>(Status::Internal("not run")));
  std::vector<int64_t> leftover(kQueries, -1);
  {
    std::vector<std::thread> workers;
    workers.reserve(kQueries);
    for (int q = 0; q < kQueries; ++q) {
      workers.emplace_back([&, q] {
        QueryContext::Limits limits;
        limits.mem_limit_bytes = int64_t{1} << 30;
        limits.parent_tracker = &root;
        QueryContext ctx(limits);
        Executor ex;
        results[q] = ex.ExecuteWithContext(*plans[q], dbs[q], &ctx);
        leftover[q] = ctx.tracker()->used();
      });
    }
    for (std::thread& t : workers) t.join();
  }
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(results[q].ok())
        << "query " << q << ": " << results[q].status().ToString();
    ExpectIdentical(expected[q], *results[q],
                    "shared-root query " + std::to_string(q));
    EXPECT_EQ(leftover[q], 0) << "query " << q;
  }
  EXPECT_EQ(root.used(), 0);
  EXPECT_GT(root.peak(), 0);
}

}  // namespace
}  // namespace eca
