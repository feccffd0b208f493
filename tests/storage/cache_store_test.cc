// Crash-safe plan-cache persistence (storage/cache_store.h): the binary
// entry codec round-trips every plan/predicate/scalar shape, snapshots
// and append logs warm a fresh memo byte-for-byte, and — the robustness
// contract — a cache file truncated at EVERY byte offset or flipped at
// arbitrary bits loads-or-degrades but never crashes, never fails the
// daemon, and never unbalances the memory tracker.

#include "storage/cache_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "algebra/comp_op.h"
#include "algebra/plan.h"
#include "common/memory_tracker.h"
#include "enumerate/shared_memo.h"
#include "exec/database.h"
#include "rewrite/rules.h"
#include "testing/fault_injection.h"

#include "../test_util.h"

namespace eca {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const char* tag) {
  std::string dir = (fs::temp_directory_path() /
                     (std::string("eca-cache-store-") + tag))
                        .string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

MemoExtKey ExtKey(const std::string& src, const std::string& a,
                  const std::string& b) {
  MemoExtKey key;
  key.src = src;
  key.a = a;
  key.b = b;
  key.src_hash = PredNameInterner::NameHash(src);
  key.a_hash = PredNameInterner::NameHash(a);
  key.b_hash = PredNameInterner::NameHash(b);
  return key;
}

// A plan exercising every codec branch: all three node kinds, every
// predicate kind (compare, and, or, not, const-bool, is-null,
// all-null-block), labeled predicates, and scalars with arithmetic and
// constants of every type including NULLs.
PlanPtr RichPlan() {
  ScalarRef col0 = Scalar::Column(0, "a");
  ScalarRef col1 = Scalar::Column(1, "b");
  ScalarRef sum = Scalar::Arith(Scalar::ArithOp::kAdd, col0,
                                Scalar::Const(Value::Int(41)));
  PredRef cmp = Predicate::WithLabel(
      Predicate::Compare(Predicate::CmpOp::kLe, sum, col1), "p01");
  PredRef ors = Predicate::Or(
      {Predicate::IsNull(Scalar::Column(1, "b")),
       Predicate::Compare(
           Predicate::CmpOp::kNe,
           Scalar::Arith(Scalar::ArithOp::kMul, col1,
                         Scalar::Const(Value::Real(2.5))),
           Scalar::Const(Value::Str("x"))),
       Predicate::Not(Predicate::ConstBool(false))});
  PredRef with_null_const = Predicate::And(
      {cmp, ors,
       Predicate::Compare(Predicate::CmpOp::kEq,
                          Scalar::Const(Value::Null(DataType::kString)),
                          Scalar::Const(Value::Null(DataType::kDouble)))});
  PlanPtr join01 = Plan::Join(JoinOp::kFullOuter, with_null_const,
                              Plan::Leaf(0), Plan::Leaf(1));
  PlanPtr lambda = Plan::Comp(
      CompOp::Lambda(Predicate::WithLabel(Predicate::AllNull(RelSet::Single(1)),
                                          "allnull1"),
                     RelSet::Single(1)),
      std::move(join01));
  PlanPtr gs = Plan::Comp(
      CompOp::GammaStar(RelSet::Single(0), RelSet::Single(1)),
      std::move(lambda));
  PlanPtr beta = Plan::Comp(CompOp::Beta(), std::move(gs));
  PlanPtr join2 =
      Plan::Join(JoinOp::kLeftAnti,
                 Predicate::WithLabel(
                     Predicate::Compare(Predicate::CmpOp::kGt,
                                        Scalar::Column(2, "c"),
                                        Scalar::Column(0, "a")),
                     "p02"),
                 std::move(beta), Plan::Leaf(2));
  CompOp gamma = CompOp::Gamma(RelSet::Single(2));
  gamma.vnode = 3;
  PlanPtr g = Plan::Comp(std::move(gamma), std::move(join2));
  return Plan::Comp(
      CompOp::Project(RelSet::FirstN(3)),
      std::move(g));
}

std::shared_ptr<const MemoPayload> RichPayload() {
  auto payload = std::make_shared<MemoPayload>();
  payload->subtree = RichPlan();
  payload->s = payload->subtree->leaves();
  payload->query_fp = 0xdeadbeefcafef00dull;
  payload->policy = 2;
  payload->epoch = 0;
  payload->ext_keys = {ExtKey("p01", "la", "lb"), ExtKey("p02", "x", "y")};
  std::sort(payload->ext_keys.begin(), payload->ext_keys.end());
  payload->cost = 123.5;
  payload->dedges = {{"p01", "la", "lb", 2}, {"p02", "", "z", -1}};
  payload->next_vnode = 4;
  payload->bytes = 512;
  return payload;
}

// A small payload over a single leaf, distinguishable by `which`.
std::shared_ptr<const MemoPayload> LeafPayload(int which, double cost,
                                               uint64_t epoch = 0) {
  auto payload = std::make_shared<MemoPayload>();
  payload->subtree = Plan::Leaf(which);
  payload->s = RelSet::Single(which);
  payload->query_fp = 0x1000u + static_cast<uint64_t>(which);
  payload->epoch = epoch;
  payload->cost = cost;
  payload->bytes = 64;
  return payload;
}

MemoProbe ProbeFor(const MemoPayload& payload, uint64_t map_key) {
  MemoProbe probe;
  probe.map_key = map_key;
  probe.query_fp = payload.query_fp;
  probe.s = payload.s;
  probe.policy = payload.policy;
  probe.epoch = payload.epoch;
  probe.ext_keys = &payload.ext_keys;
  return probe;
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(CacheEntryCodecTest, RoundTripsEveryPlanAndPredicateShape) {
  auto payload = RichPayload();
  std::vector<unsigned char> bytes;
  EncodeCacheEntry(0xabcdef01u, *payload, &bytes);
  ASSERT_FALSE(bytes.empty());

  uint64_t map_key = 0;
  std::shared_ptr<const MemoPayload> decoded;
  Status s = DecodeCacheEntry(bytes.data(), bytes.size(), &map_key, &decoded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(map_key, 0xabcdef01u);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->query_fp, payload->query_fp);
  EXPECT_EQ(decoded->s, payload->s);
  EXPECT_EQ(decoded->policy, payload->policy);
  EXPECT_EQ(decoded->epoch, payload->epoch);
  EXPECT_EQ(decoded->cost, payload->cost);
  EXPECT_EQ(decoded->next_vnode, payload->next_vnode);
  EXPECT_EQ(decoded->bytes, payload->bytes);
  ASSERT_EQ(decoded->ext_keys.size(), payload->ext_keys.size());
  for (size_t i = 0; i < payload->ext_keys.size(); ++i) {
    EXPECT_TRUE(decoded->ext_keys[i] == payload->ext_keys[i]) << i;
  }
  ASSERT_EQ(decoded->dedges.size(), payload->dedges.size());
  for (size_t i = 0; i < payload->dedges.size(); ++i) {
    EXPECT_EQ(decoded->dedges[i].src_pred, payload->dedges[i].src_pred);
    EXPECT_EQ(decoded->dedges[i].label_a, payload->dedges[i].label_a);
    EXPECT_EQ(decoded->dedges[i].label_b, payload->dedges[i].label_b);
    EXPECT_EQ(decoded->dedges[i].vnode, payload->dedges[i].vnode);
  }
  ASSERT_NE(decoded->subtree, nullptr);
  // The printed tree covers node kinds, operators, predicate labels and
  // structure — a byte-identical rendering is the round-trip proof.
  EXPECT_EQ(decoded->subtree->ToString(), payload->subtree->ToString());

  // The codec must also be a fixed point: re-encoding the decoded entry
  // yields the identical byte string (no drift across save/load cycles).
  std::vector<unsigned char> again;
  EncodeCacheEntry(map_key, *decoded, &again);
  EXPECT_EQ(again, bytes);
}

TEST(CacheEntryCodecTest, TruncatedOrFlippedEntriesNeverCrash) {
  auto payload = RichPayload();
  std::vector<unsigned char> bytes;
  EncodeCacheEntry(0x42u, *payload, &bytes);

  // Every truncation length: decode returns a Status (usually kDataLoss,
  // never a crash or unbounded allocation).
  for (size_t len = 0; len < bytes.size(); ++len) {
    uint64_t map_key = 0;
    std::shared_ptr<const MemoPayload> decoded;
    Status s = DecodeCacheEntry(bytes.data(), len, &map_key, &decoded);
    EXPECT_FALSE(s.ok()) << "truncation at " << len
                         << " decoded a partial entry";
  }
  // Single-bit flips at a byte stride: decode either fails cleanly or —
  // when the flip lands in a value that any bit pattern satisfies, like
  // a cost double — produces a structurally valid entry.
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit : {0, 7}) {
      std::vector<unsigned char> mutated = bytes;
      mutated[pos] ^= static_cast<unsigned char>(1u << bit);
      uint64_t map_key = 0;
      std::shared_ptr<const MemoPayload> decoded;
      Status s =
          DecodeCacheEntry(mutated.data(), mutated.size(), &map_key, &decoded);
      if (s.ok()) {
        ASSERT_NE(decoded, nullptr);
        ASSERT_NE(decoded->subtree, nullptr);
        EXPECT_TRUE(decoded->subtree->leaves() == decoded->s);
      }
    }
  }
}

// The plan-cache file format is pinned: ecad reloads files that earlier
// builds wrote, so the bytes of one fixed snapshot must never drift. A
// failure here is a format change, which needs a kVersion bump and a
// loader for the old version — not a new digest.
TEST(CacheStoreTest, SnapshotBytesArePinned) {
  std::string dir = TestDir("golden");
  std::string path = dir + "/plan.cache";
  MemoryTracker root(0, 0);
  SharedMemo::Config config;
  config.parent = &root;
  SharedMemo memo(config);
  memo.Publish(101, RichPayload());
  Status s = CacheStore(path).WriteSnapshot(&memo, 0x5eedu);
  ASSERT_TRUE(s.ok()) << s.ToString();
  memo.Clear();

  std::vector<unsigned char> bytes = ReadFileBytes(path);
  uint64_t digest = 14695981039346656037ULL;  // FNV-1a, 64-bit
  for (unsigned char b : bytes) {
    digest ^= b;
    digest *= 1099511628211ULL;
  }
  EXPECT_EQ(bytes.size(), 559u);
  EXPECT_EQ(digest, 0xf5ea3fddda33c8a4ULL);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheStoreTest, SnapshotRoundTripWarmsAFreshMemo) {
  std::string dir = TestDir("roundtrip");
  std::string path = dir + "/plan.cache";
  MemoryTracker root(0, 0);
  const uint64_t catalog_fp = 0x5eedu;

  auto rich = RichPayload();
  {
    SharedMemo::Config config;
    config.parent = &root;
    SharedMemo memo(config);
    memo.Publish(101, rich);
    memo.Publish(202, LeafPayload(1, 7.0));
    memo.Publish(303, LeafPayload(2, 9.0));
    CacheStore store(path);
    Status s = store.WriteSnapshot(&memo, catalog_fp);
    ASSERT_TRUE(s.ok()) << s.ToString();
    memo.Clear();
  }
  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(root.used(), 0);

  SharedMemo::Config config;
  config.parent = &root;
  SharedMemo memo(config);
  CacheStore store(path);
  CacheStore::LoadResult load = store.Load(&memo, catalog_fp);
  EXPECT_EQ(load.loaded, 3);
  EXPECT_EQ(load.discarded, 0);
  EXPECT_FALSE(load.degraded) << load.detail;
  EXPECT_TRUE(load.snapshot_present);
  EXPECT_FALSE(load.log_present);
  EXPECT_EQ(root.used(), memo.used_bytes());

  // The warmed entries answer probes exactly like the originals.
  MemoProbeStats stats;
  std::shared_ptr<const MemoPayload> hit =
      memo.Find(ProbeFor(*rich, 101), &stats);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, rich->cost);
  EXPECT_EQ(hit->subtree->ToString(), rich->subtree->ToString());
  memo.Clear();
  EXPECT_EQ(root.used(), 0);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheStoreTest, AppendNewPersistsOnlyNewEntries) {
  std::string dir = TestDir("append");
  std::string path = dir + "/plan.cache";
  const uint64_t catalog_fp = 0x5eedu;

  SharedMemo memo;
  CacheStore store(path);
  // Empty snapshot establishes the watermark and the snapshot file.
  ASSERT_TRUE(store.WriteSnapshot(&memo, catalog_fp).ok());

  memo.Publish(11, LeafPayload(1, 7.0));
  ASSERT_TRUE(store.AppendNew(&memo, catalog_fp).ok());
  ASSERT_TRUE(fs::exists(store.log_path()));
  uintmax_t after_first = fs::file_size(store.log_path());
  ASSERT_GT(after_first, 0u);

  // Nothing new: the log must not grow (no duplicate re-exports).
  ASSERT_TRUE(store.AppendNew(&memo, catalog_fp).ok());
  EXPECT_EQ(fs::file_size(store.log_path()), after_first);

  memo.Publish(22, LeafPayload(2, 9.0));
  ASSERT_TRUE(store.AppendNew(&memo, catalog_fp).ok());
  EXPECT_GT(fs::file_size(store.log_path()), after_first);

  SharedMemo warmed;
  CacheStore loader(path);
  CacheStore::LoadResult load = loader.Load(&warmed, catalog_fp);
  EXPECT_EQ(load.loaded, 2);
  EXPECT_FALSE(load.degraded) << load.detail;
  EXPECT_TRUE(load.log_present);

  // A snapshot compacts: log gone, everything in the snapshot file.
  ASSERT_TRUE(store.WriteSnapshot(&memo, catalog_fp).ok());
  EXPECT_FALSE(fs::exists(store.log_path()));
  SharedMemo warmed2;
  CacheStore::LoadResult load2 = CacheStore(path).Load(&warmed2, catalog_fp);
  EXPECT_EQ(load2.loaded, 2);
  EXPECT_FALSE(load2.degraded) << load2.detail;

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// The ISSUE's acceptance sweep: truncate a real cache file at EVERY byte
// offset; each load must succeed or degrade — never crash, never fail,
// never leak tracker bytes — and a degraded load still imports the valid
// prefix.
TEST(CacheStoreTest, TruncationSweepAtEveryOffsetLoadsOrDegrades) {
  std::string dir = TestDir("truncate");
  std::string path = dir + "/plan.cache";
  const uint64_t catalog_fp = 0x5eedu;

  SharedMemo source;
  source.Publish(101, RichPayload());
  source.Publish(202, LeafPayload(1, 7.0));
  source.Publish(303, LeafPayload(2, 9.0));
  CacheStore writer(path);
  ASSERT_TRUE(writer.WriteSnapshot(&source, catalog_fp).ok());
  std::vector<unsigned char> full = ReadFileBytes(path);
  ASSERT_GT(full.size(), 0u);

  MemoryTracker root(0, 0);
  std::string victim = dir + "/victim.cache";
  int64_t max_loaded = 0;
  for (size_t len = 0; len <= full.size(); ++len) {
    WriteFileBytes(victim, std::vector<unsigned char>(full.begin(),
                                                      full.begin() + len));
    SharedMemo::Config config;
    config.parent = &root;
    SharedMemo memo(config);
    CacheStore store(victim);
    CacheStore::LoadResult load = store.Load(&memo, catalog_fp);
    // Success or degradation, never an inconsistent in-between.
    if (len == full.size()) {
      EXPECT_EQ(load.loaded, 3) << "full file failed to load";
      EXPECT_FALSE(load.degraded) << load.detail;
    } else {
      // Mid-record truncation must be flagged; truncation exactly at a
      // record boundary is indistinguishable from a smaller snapshot (a
      // record stream carries no trailer), so there the contract is just
      // "fewer entries, no lie about completeness".
      EXPECT_TRUE(load.degraded || load.loaded < 3)
          << "truncation at " << len << " went unnoticed";
      EXPECT_LE(load.loaded, 3);
    }
    max_loaded = std::max(max_loaded, load.loaded);
    EXPECT_EQ(root.used(), memo.used_bytes()) << "tracker leak at " << len;
    memo.Clear();
    ASSERT_EQ(root.used(), 0) << "tracker leak at " << len;
  }
  // Some prefix lengths must still salvage entries (valid-prefix import).
  EXPECT_EQ(max_loaded, 3);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheStoreTest, TornLogIsTruncatedAndStaysAppendable) {
  std::string dir = TestDir("tornlog");
  std::string path = dir + "/plan.cache";
  const uint64_t catalog_fp = 0x5eedu;

  SharedMemo memo;
  CacheStore store(path);
  ASSERT_TRUE(store.WriteSnapshot(&memo, catalog_fp).ok());
  memo.Publish(11, LeafPayload(1, 7.0));
  memo.Publish(22, LeafPayload(2, 9.0));
  ASSERT_TRUE(store.AppendNew(&memo, catalog_fp).ok());

  // Tear the log mid-way through its last record (simulates a crash
  // during an append).
  std::vector<unsigned char> log = ReadFileBytes(store.log_path());
  ASSERT_GT(log.size(), 8u);
  size_t torn_len = log.size() - 5;
  WriteFileBytes(store.log_path(),
                 std::vector<unsigned char>(log.begin(),
                                            log.begin() + torn_len));

  SharedMemo recovered;
  CacheStore reloaded(path);
  CacheStore::LoadResult load = reloaded.Load(&recovered, catalog_fp);
  EXPECT_TRUE(load.degraded);
  EXPECT_EQ(load.loaded, 1) << load.detail;  // the intact first record
  // The loader repaired the tear physically, so the log ends at a record
  // boundary again...
  EXPECT_LT(fs::file_size(store.log_path()), torn_len);

  // ...and a subsequent daemon can keep appending to it: new entries land
  // after the repaired tail and the whole file stays loadable.
  recovered.Publish(33, LeafPayload(3, 11.0));
  ASSERT_TRUE(reloaded.AppendNew(&recovered, catalog_fp).ok());
  SharedMemo final_memo;
  CacheStore::LoadResult final_load =
      CacheStore(path).Load(&final_memo, catalog_fp);
  EXPECT_FALSE(final_load.degraded) << final_load.detail;
  EXPECT_EQ(final_load.loaded, 2);  // entry 11 (salvaged) + entry 33

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheStoreTest, StaleEpochEntriesAreDiscardedOnLoad) {
  std::string dir = TestDir("epoch");
  std::string path = dir + "/plan.cache";
  const uint64_t catalog_fp = 0x5eedu;

  SharedMemo source;
  source.Publish(11, LeafPayload(1, 7.0));
  ASSERT_TRUE(CacheStore(path).WriteSnapshot(&source, catalog_fp).ok());

  // The loading daemon's statistics have moved on: its memo is at epoch
  // 1, the file's entries were costed under epoch 0.
  SharedMemo memo;
  memo.AdvanceEpoch();
  CacheStore::LoadResult load = CacheStore(path).Load(&memo, catalog_fp);
  EXPECT_EQ(load.loaded, 0);
  EXPECT_EQ(load.discarded, 1);
  EXPECT_EQ(memo.entry_count(), 0);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheStoreTest, WrongCatalogFingerprintDiscardsTheFile) {
  std::string dir = TestDir("catalog");
  std::string path = dir + "/plan.cache";

  SharedMemo source;
  source.Publish(11, LeafPayload(1, 7.0));
  ASSERT_TRUE(CacheStore(path).WriteSnapshot(&source, 0x5eedu).ok());

  SharedMemo memo;
  CacheStore::LoadResult load = CacheStore(path).Load(&memo, 0xbad5eedu);
  EXPECT_EQ(load.loaded, 0);
  EXPECT_GE(load.discarded, 1);
  EXPECT_TRUE(load.degraded);
  EXPECT_EQ(memo.entry_count(), 0);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheStoreTest, GarbageFileDegradesToColdCache) {
  std::string dir = TestDir("garbage");
  std::string path = dir + "/plan.cache";
  WriteFileBytes(path, std::vector<unsigned char>(257, 0x5a));

  SharedMemo memo;
  CacheStore::LoadResult load = CacheStore(path).Load(&memo, 0x5eedu);
  EXPECT_EQ(load.loaded, 0);
  EXPECT_TRUE(load.degraded);
  EXPECT_EQ(memo.entry_count(), 0);

  // Missing file: clean cold start, not even degraded.
  SharedMemo memo2;
  CacheStore::LoadResult missing =
      CacheStore(dir + "/nope.cache").Load(&memo2, 0x5eedu);
  EXPECT_EQ(missing.loaded, 0);
  EXPECT_FALSE(missing.degraded);
  EXPECT_FALSE(missing.snapshot_present);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheStoreTest, CacheIoFaultsFailWritesCleanlyAndDegradeLoads) {
  std::string dir = TestDir("faults");
  std::string path = dir + "/plan.cache";
  const uint64_t catalog_fp = 0x5eedu;

  SharedMemo source;
  source.Publish(11, LeafPayload(1, 7.0));

  // Every early fault site in the snapshot path: the write fails with a
  // Status and never leaves a half-written snapshot visible at `path`.
  for (int64_t skip = 0; skip < 4; ++skip) {
    FaultInjector::Reset();
    ScopedFault fault(FaultPoint::kCacheIo, skip);
    CacheStore store(path);
    Status s = store.WriteSnapshot(&source, catalog_fp);
    EXPECT_FALSE(s.ok()) << "skip " << skip;
    EXPECT_FALSE(fs::exists(path)) << "skip " << skip
                                   << ": torn snapshot left visible";
  }
  FaultInjector::Reset();
  ASSERT_TRUE(CacheStore(path).WriteSnapshot(&source, catalog_fp).ok());

  // Load-side faults (open/read): the cache degrades to cold, the daemon
  // lives on, and the tracker stays balanced.
  for (int64_t skip = 0; skip < 2; ++skip) {
    FaultInjector::Reset();
    ScopedFault fault(FaultPoint::kCacheIo, skip);
    MemoryTracker root(0, 0);
    SharedMemo::Config config;
    config.parent = &root;
    SharedMemo memo(config);
    CacheStore::LoadResult load = CacheStore(path).Load(&memo, catalog_fp);
    EXPECT_TRUE(load.degraded) << "skip " << skip;
    EXPECT_EQ(root.used(), memo.used_bytes());
    memo.Clear();
    EXPECT_EQ(root.used(), 0);
  }
  FaultInjector::Reset();

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CacheStoreTest, CatalogFingerprintTracksSchemaAndData) {
  Database a;
  a.Add(MakeRelation({{0, "a", DataType::kInt64}}, {{I(1)}, {I(2)}}));
  Database b;
  b.Add(MakeRelation({{0, "a", DataType::kInt64}}, {{I(1)}, {I(2)}}));
  EXPECT_EQ(CatalogFingerprint(a), CatalogFingerprint(b));

  // One changed row value, a renamed column, and an extra table must all
  // move the fingerprint.
  Database c;
  c.Add(MakeRelation({{0, "a", DataType::kInt64}}, {{I(1)}, {I(3)}}));
  EXPECT_NE(CatalogFingerprint(a), CatalogFingerprint(c));
  Database d;
  d.Add(MakeRelation({{0, "b", DataType::kInt64}}, {{I(1)}, {I(2)}}));
  EXPECT_NE(CatalogFingerprint(a), CatalogFingerprint(d));
  Database e;
  e.Add(MakeRelation({{0, "a", DataType::kInt64}}, {{I(1)}, {I(2)}}));
  e.Add(MakeRelation({{1, "x", DataType::kString}}, {{S("s")}}));
  EXPECT_NE(CatalogFingerprint(a), CatalogFingerprint(e));
}

}  // namespace
}  // namespace eca
