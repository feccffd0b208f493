#include "storage/cache_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "algebra/plan.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "exec/database.h"
#include "expr/expr.h"
#include "storage/record_io.h"
#include "testing/fault_injection.h"

namespace eca {

namespace {

namespace fs = std::filesystem;

// File header payload: magic + version + epoch + catalog fingerprint.
constexpr char kMagic[8] = {'E', 'C', 'A', 'P', 'C', 'A', 'C', 'H'};
constexpr uint32_t kVersion = 1;

// Decode bounds. Far above anything the enumerator produces, far below
// anything that could turn corrupt input into an OOM.
constexpr uint32_t kMaxRecordLen = 1u << 26;
constexpr uint32_t kMaxCount = 1u << 20;
constexpr int kMaxTreeDepth = 512;

// cache.* metric catalog (docs/service.md). Registered eagerly so the
// first METRICS scrape shows the whole set.
struct CacheCounters {
  Counter* loaded;
  Counter* recovered;
  Counter* discarded;
  Counter* load_degraded;
  Counter* snapshots;
  Counter* snapshot_entries;
  Counter* appends;
  Counter* append_entries;
  Counter* io_errors;
};

const CacheCounters& Counters() {
  static const CacheCounters counters = [] {
    auto& reg = MetricsRegistry::Global();
    return CacheCounters{reg.counter("cache.loaded"),
                         reg.counter("cache.recovered"),
                         reg.counter("cache.discarded"),
                         reg.counter("cache.load_degraded"),
                         reg.counter("cache.snapshots"),
                         reg.counter("cache.snapshot_entries"),
                         reg.counter("cache.appends"),
                         reg.counter("cache.append_entries"),
                         reg.counter("cache.io_errors")};
  }();
  return counters;
}

// --- scalar / predicate / plan codec ---------------------------------------
//
// A structural binary encoding, NOT the text notation: the parser grammar
// only covers compare/AND predicates, while rewrites put Or/Not/IsNull/
// AllNullBlock into cached subtrees. Every enum is range-checked on
// decode; tree depth is bounded so corrupt input cannot blow the stack.

void EncodeScalar(std::vector<unsigned char>* b, const Scalar& s) {
  PutU8(b, static_cast<uint8_t>(s.kind()));
  switch (s.kind()) {
    case Scalar::Kind::kColumn:
      PutI32(b, s.rel_id());
      PutString(b, s.column_name());
      break;
    case Scalar::Kind::kConst:
      EncodeValue(b, s.const_value());
      break;
    case Scalar::Kind::kArith:
      PutU8(b, static_cast<uint8_t>(s.arith_op()));
      EncodeScalar(b, *s.left());
      EncodeScalar(b, *s.right());
      break;
  }
}

ScalarRef DecodeScalar(ByteReader* r, int depth) {
  if (depth > kMaxTreeDepth) {
    r->ok = false;
    return nullptr;
  }
  uint8_t kind = r->GetU8();
  if (!r->ok) return nullptr;
  switch (kind) {
    case static_cast<uint8_t>(Scalar::Kind::kColumn): {
      int32_t rel_id = r->GetI32();
      std::string name = r->GetString();
      if (!r->ok || rel_id < 0 || rel_id >= 64) {
        r->ok = false;
        return nullptr;
      }
      return Scalar::Column(rel_id, std::move(name));
    }
    case static_cast<uint8_t>(Scalar::Kind::kConst): {
      Value v = DecodeValue(r);
      if (!r->ok) return nullptr;
      return Scalar::Const(std::move(v));
    }
    case static_cast<uint8_t>(Scalar::Kind::kArith): {
      uint8_t op = r->GetU8();
      if (op > static_cast<uint8_t>(Scalar::ArithOp::kDiv)) {
        r->ok = false;
        return nullptr;
      }
      ScalarRef l = DecodeScalar(r, depth + 1);
      ScalarRef r2 = DecodeScalar(r, depth + 1);
      if (!r->ok || l == nullptr || r2 == nullptr) return nullptr;
      return Scalar::Arith(static_cast<Scalar::ArithOp>(op), std::move(l),
                           std::move(r2));
    }
    default:
      r->ok = false;
      return nullptr;
  }
}

void EncodePredicate(std::vector<unsigned char>* b, const Predicate& p) {
  PutU8(b, static_cast<uint8_t>(p.kind()));
  PutString(b, p.label());
  switch (p.kind()) {
    case Predicate::Kind::kCompare:
      PutU8(b, static_cast<uint8_t>(p.cmp_op()));
      EncodeScalar(b, *p.scalar_left());
      EncodeScalar(b, *p.scalar_right());
      break;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      PutU32(b, static_cast<uint32_t>(p.children().size()));
      for (const PredRef& c : p.children()) EncodePredicate(b, *c);
      break;
    case Predicate::Kind::kNot:
      EncodePredicate(b, *p.children()[0]);
      break;
    case Predicate::Kind::kConstBool:
      PutU8(b, p.const_bool() ? 1 : 0);
      break;
    case Predicate::Kind::kIsNull:
      EncodeScalar(b, *p.scalar_left());
      break;
    case Predicate::Kind::kAllNullBlock:
      PutU64(b, p.all_null_rels().bits());
      break;
  }
}

PredRef DecodePredicate(ByteReader* r, int depth) {
  if (depth > kMaxTreeDepth) {
    r->ok = false;
    return nullptr;
  }
  uint8_t kind = r->GetU8();
  std::string label = r->GetString();
  if (!r->ok) return nullptr;
  PredRef decoded;
  switch (kind) {
    case static_cast<uint8_t>(Predicate::Kind::kCompare): {
      uint8_t op = r->GetU8();
      if (op > static_cast<uint8_t>(Predicate::CmpOp::kGe)) {
        r->ok = false;
        return nullptr;
      }
      ScalarRef l = DecodeScalar(r, depth + 1);
      ScalarRef r2 = DecodeScalar(r, depth + 1);
      if (!r->ok || l == nullptr || r2 == nullptr) return nullptr;
      decoded = Predicate::Compare(static_cast<Predicate::CmpOp>(op),
                                   std::move(l), std::move(r2));
      break;
    }
    case static_cast<uint8_t>(Predicate::Kind::kAnd):
    case static_cast<uint8_t>(Predicate::Kind::kOr): {
      uint32_t count = r->GetU32();
      // And/Or require at least one child (expr.cc asserts it).
      if (count == 0 || count > kMaxCount) {
        r->ok = false;
        return nullptr;
      }
      std::vector<PredRef> children;
      children.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        PredRef c = DecodePredicate(r, depth + 1);
        if (!r->ok || c == nullptr) return nullptr;
        children.push_back(std::move(c));
      }
      decoded = kind == static_cast<uint8_t>(Predicate::Kind::kAnd)
                    ? Predicate::And(std::move(children))
                    : Predicate::Or(std::move(children));
      break;
    }
    case static_cast<uint8_t>(Predicate::Kind::kNot): {
      PredRef c = DecodePredicate(r, depth + 1);
      if (!r->ok || c == nullptr) return nullptr;
      decoded = Predicate::Not(std::move(c));
      break;
    }
    case static_cast<uint8_t>(Predicate::Kind::kConstBool):
      decoded = Predicate::ConstBool(r->GetU8() != 0);
      break;
    case static_cast<uint8_t>(Predicate::Kind::kIsNull): {
      ScalarRef s = DecodeScalar(r, depth + 1);
      if (!r->ok || s == nullptr) return nullptr;
      decoded = Predicate::IsNull(std::move(s));
      break;
    }
    case static_cast<uint8_t>(Predicate::Kind::kAllNullBlock): {
      RelSet rels(r->GetU64());
      // AllNull over the empty set is unconstructible (expr.cc asserts).
      if (!r->ok || rels.Empty()) {
        r->ok = false;
        return nullptr;
      }
      decoded = Predicate::AllNull(rels);
      break;
    }
    default:
      r->ok = false;
      return nullptr;
  }
  if (!r->ok || decoded == nullptr) return nullptr;
  if (!label.empty()) decoded = Predicate::WithLabel(decoded, std::move(label));
  return decoded;
}

void EncodePlan(std::vector<unsigned char>* b, const Plan& p) {
  PutU8(b, static_cast<uint8_t>(p.kind()));
  switch (p.kind()) {
    case Plan::Kind::kLeaf:
      PutI32(b, p.rel_id());
      break;
    case Plan::Kind::kJoin:
      PutU8(b, static_cast<uint8_t>(p.op()));
      PutU8(b, p.pred() != nullptr ? 1 : 0);
      if (p.pred() != nullptr) EncodePredicate(b, *p.pred());
      EncodePlan(b, *p.left());
      EncodePlan(b, *p.right());
      break;
    case Plan::Kind::kComp: {
      const CompOp& c = p.comp();
      PutU8(b, static_cast<uint8_t>(c.kind));
      PutU8(b, c.pred != nullptr ? 1 : 0);
      if (c.pred != nullptr) EncodePredicate(b, *c.pred);
      PutU64(b, c.attrs.bits());
      PutU64(b, c.keep.bits());
      PutI32(b, c.vnode);
      EncodePlan(b, *p.child());
      break;
    }
  }
}

PlanPtr DecodePlan(ByteReader* r, int depth) {
  if (depth > kMaxTreeDepth) {
    r->ok = false;
    return nullptr;
  }
  uint8_t kind = r->GetU8();
  if (!r->ok) return nullptr;
  switch (kind) {
    case static_cast<uint8_t>(Plan::Kind::kLeaf): {
      int32_t rel_id = r->GetI32();
      if (!r->ok || rel_id < 0 || rel_id >= 64) {
        r->ok = false;
        return nullptr;
      }
      return Plan::Leaf(rel_id);
    }
    case static_cast<uint8_t>(Plan::Kind::kJoin): {
      uint8_t op = r->GetU8();
      if (op > static_cast<uint8_t>(JoinOp::kRightAnti)) {
        r->ok = false;
        return nullptr;
      }
      PredRef pred;
      if (r->GetU8() != 0) {
        pred = DecodePredicate(r, depth + 1);
        if (!r->ok || pred == nullptr) return nullptr;
      } else if (static_cast<JoinOp>(op) != JoinOp::kCross) {
        // Only a cross join may go predicate-less (plan.cc asserts).
        r->ok = false;
        return nullptr;
      }
      PlanPtr left = DecodePlan(r, depth + 1);
      PlanPtr right = DecodePlan(r, depth + 1);
      if (!r->ok || left == nullptr || right == nullptr) return nullptr;
      return Plan::Join(static_cast<JoinOp>(op), std::move(pred),
                        std::move(left), std::move(right));
    }
    case static_cast<uint8_t>(Plan::Kind::kComp): {
      uint8_t comp_kind = r->GetU8();
      if (comp_kind > static_cast<uint8_t>(CompOp::Kind::kProject)) {
        r->ok = false;
        return nullptr;
      }
      CompOp c;
      c.kind = static_cast<CompOp::Kind>(comp_kind);
      if (r->GetU8() != 0) {
        c.pred = DecodePredicate(r, depth + 1);
        if (!r->ok || c.pred == nullptr) return nullptr;
      }
      c.attrs = RelSet(r->GetU64());
      c.keep = RelSet(r->GetU64());
      c.vnode = r->GetI32();
      PlanPtr child = DecodePlan(r, depth + 1);
      if (!r->ok || child == nullptr) return nullptr;
      return Plan::Comp(std::move(c), std::move(child));
    }
    default:
      r->ok = false;
      return nullptr;
  }
}

// --- record framing --------------------------------------------------------

void AppendRecord(std::vector<unsigned char>* file,
                  const std::vector<unsigned char>& payload) {
  size_t start = BeginRecord(file);
  file->insert(file->end(), payload.begin(), payload.end());
  EndRecord(file, start);
}

void EncodeHeader(std::vector<unsigned char>* payload, uint64_t epoch,
                  uint64_t catalog_fp) {
  for (char c : kMagic) PutU8(payload, static_cast<uint8_t>(c));
  PutU32(payload, kVersion);
  PutU64(payload, epoch);
  PutU64(payload, catalog_fp);
}

// One parsed record: a view into the file buffer.
struct RecordView {
  const unsigned char* payload;
  size_t size;
};

// Parses the next framed record at `*pos`. Returns false (without
// advancing) on a clean end or any tear — the caller treats both as
// "stop here"; `*clean_end` distinguishes them.
bool NextRecord(const std::vector<unsigned char>& file, size_t* pos,
                RecordView* out, bool* clean_end) {
  *clean_end = *pos == file.size();
  if (*clean_end) return false;
  if (file.size() - *pos < 12) return false;  // torn: partial frame
  ByteReader r{file.data(), file.size(), *pos, true};
  uint32_t len = r.GetU32();
  if (len > kMaxRecordLen || file.size() - r.pos < len + 8u) return false;
  const unsigned char* payload = file.data() + r.pos;
  uint64_t want = FnvMix(kFnvOffset, file.data() + *pos, 4 + len);
  r.pos += len;
  uint64_t got = r.GetU64();
  if (!r.ok || got != want) return false;
  out->payload = payload;
  out->size = len;
  *pos = r.pos;
  return true;
}

// --- POSIX file helpers ----------------------------------------------------

#ifndef _WIN32

Status SyncFd(int fd, const std::string& path) {
  if (FaultInjector::ShouldFail(FaultPoint::kCacheIo)) {
    return InjectedIo("cache", "fsync", path);
  }
  if (::fsync(fd) != 0) {
    return Status::DataLoss("cannot fsync " + path + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

// fsync on the containing directory makes the rename itself durable.
void SyncParentDir(const std::string& path) {
  fs::path parent = fs::path(path).parent_path();
  std::string dir = parent.empty() ? "." : parent.string();
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // best-effort; data records are already synced
  ::fsync(fd);
  ::close(fd);
}

#endif  // !_WIN32

Status ReadWholeFile(const std::string& path, std::vector<unsigned char>* out,
                     bool* present) {
  *present = false;
  out->clear();
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return Status::OK();
  if (FaultInjector::ShouldFail(FaultPoint::kCacheIo)) {
    return InjectedIo("cache", "open", path);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::DataLoss("cannot open cache file " + path + ": " +
                            std::strerror(errno));
  }
  *present = true;
  unsigned char buf[1 << 16];
  for (;;) {
    if (FaultInjector::ShouldFail(FaultPoint::kCacheIo)) {
      std::fclose(f);
      return InjectedIo("cache", "read", path);
    }
    size_t got = std::fread(buf, 1, sizeof(buf), f);
    out->insert(out->end(), buf, buf + got);
    if (got < sizeof(buf)) break;
  }
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) {
    return Status::DataLoss("cannot read cache file " + path + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

// --- entry codec -----------------------------------------------------------

void EncodeCacheEntry(uint64_t map_key, const MemoPayload& payload,
                      std::vector<unsigned char>* out) {
  PutU64(out, map_key);
  PutU64(out, payload.query_fp);
  PutU64(out, payload.s.bits());
  PutI32(out, payload.policy);
  PutU64(out, payload.epoch);
  PutF64(out, payload.cost);
  PutI32(out, payload.next_vnode);
  PutU64(out, static_cast<uint64_t>(payload.bytes));
  PutU32(out, static_cast<uint32_t>(payload.ext_keys.size()));
  for (const MemoExtKey& k : payload.ext_keys) {
    PutU64(out, k.src_hash);
    PutU64(out, k.a_hash);
    PutU64(out, k.b_hash);
    PutString(out, k.src);
    PutString(out, k.a);
    PutString(out, k.b);
  }
  PutU32(out, static_cast<uint32_t>(payload.dedges.size()));
  for (const MemoDEdge& d : payload.dedges) {
    PutString(out, d.src_pred);
    PutString(out, d.label_a);
    PutString(out, d.label_b);
    PutI32(out, d.vnode);
  }
  ECA_CHECK(payload.subtree != nullptr);
  EncodePlan(out, *payload.subtree);
}

Status DecodeCacheEntry(const unsigned char* data, size_t size,
                        uint64_t* map_key,
                        std::shared_ptr<const MemoPayload>* payload) {
  ByteReader r{data, size, 0, true};
  auto p = std::make_shared<MemoPayload>();
  *map_key = r.GetU64();
  p->query_fp = r.GetU64();
  p->s = RelSet(r.GetU64());
  p->policy = r.GetI32();
  p->epoch = r.GetU64();
  p->cost = r.GetF64();
  p->next_vnode = r.GetI32();
  p->bytes = static_cast<int64_t>(r.GetU64());
  uint32_t ext_count = r.GetU32();
  if (!r.ok || ext_count > kMaxCount) {
    return Status::DataLoss("corrupt cache entry (ext-key count)");
  }
  p->ext_keys.reserve(ext_count);
  for (uint32_t i = 0; i < ext_count; ++i) {
    MemoExtKey k;
    k.src_hash = r.GetU64();
    k.a_hash = r.GetU64();
    k.b_hash = r.GetU64();
    k.src = r.GetString();
    k.a = r.GetString();
    k.b = r.GetString();
    if (!r.ok) return Status::DataLoss("corrupt cache entry (ext key)");
    p->ext_keys.push_back(std::move(k));
  }
  uint32_t dedge_count = r.GetU32();
  if (!r.ok || dedge_count > kMaxCount) {
    return Status::DataLoss("corrupt cache entry (d-edge count)");
  }
  p->dedges.reserve(dedge_count);
  for (uint32_t i = 0; i < dedge_count; ++i) {
    MemoDEdge d;
    d.src_pred = r.GetString();
    d.label_a = r.GetString();
    d.label_b = r.GetString();
    d.vnode = r.GetI32();
    if (!r.ok) return Status::DataLoss("corrupt cache entry (d-edge)");
    p->dedges.push_back(std::move(d));
  }
  PlanPtr subtree = DecodePlan(&r, 0);
  if (!r.ok || subtree == nullptr) {
    return Status::DataLoss("corrupt cache entry (plan tree)");
  }
  if (r.pos != r.size) {
    return Status::DataLoss("corrupt cache entry (trailing bytes)");
  }
  // Sanity beyond parseability: negative charges or a plan that does not
  // cover the claimed relation set would poison the memo accounting.
  if (p->bytes < 0 || p->bytes > static_cast<int64_t>(kMaxRecordLen) * 64) {
    return Status::DataLoss("corrupt cache entry (byte charge)");
  }
  if (!(subtree->leaves() == p->s)) {
    return Status::DataLoss("corrupt cache entry (leaf set mismatch)");
  }
  p->subtree = std::move(subtree);
  *payload = std::move(p);
  return Status::OK();
}

// --- CacheStore ------------------------------------------------------------

CacheStore::CacheStore(std::string path) : path_(std::move(path)) {
  Counters();
}

CacheStore::LoadResult CacheStore::Load(SharedMemo* memo,
                                        uint64_t catalog_fp) {
#ifdef _WIN32
  (void)memo;
  (void)catalog_fp;
  return LoadResult{};
#else
  const CacheCounters& c = Counters();
  LoadResult result;
  auto degrade = [&](const std::string& why) {
    result.degraded = true;
    if (!result.detail.empty()) result.detail += "; ";
    result.detail += why;
  };

  // One pass per file: snapshot first, then the log (whose entries the
  // snapshot already holds dedup on import).
  struct FileSpec {
    std::string path;
    bool is_log;
  };
  const FileSpec files[] = {{path_, false}, {log_path(), true}};
  for (const FileSpec& spec : files) {
    std::vector<unsigned char> bytes;
    bool present = false;
    Status read = ReadWholeFile(spec.path, &bytes, &present);
    if (spec.is_log) {
      result.log_present = present;
    } else {
      result.snapshot_present = present;
    }
    if (!read.ok()) {
      c.io_errors->Increment();
      degrade(read.message());
      continue;
    }
    if (!present) continue;

    size_t pos = 0;
    bool clean_end = false;
    RecordView rec;
    bool file_torn = false;
    int64_t file_loaded = 0;

    // Record 0: the header.
    if (!NextRecord(bytes, &pos, &rec, &clean_end)) {
      if (!clean_end) degrade(spec.path + ": unreadable header");
      // An empty file (e.g. a log truncated to zero) is a valid cold
      // state, not a degradation.
      continue;
    }
    {
      ByteReader hr{rec.payload, rec.size, 0, true};
      char magic[sizeof(kMagic)] = {};
      if (hr.Need(sizeof(kMagic))) {
        std::memcpy(magic, hr.data + hr.pos, sizeof(kMagic));
        hr.pos += sizeof(kMagic);
      }
      uint32_t version = hr.GetU32();
      uint64_t file_epoch = hr.GetU64();
      (void)file_epoch;  // entries carry their own epoch
      uint64_t file_catalog = hr.GetU64();
      if (!hr.ok || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
          version != kVersion) {
        degrade(spec.path + ": not a plan-cache file (bad magic/version)");
        continue;
      }
      if (file_catalog != catalog_fp) {
        degrade(spec.path + ": written for a different catalog; discarded");
        // Count what we skip so the metric reflects the loss.
        while (NextRecord(bytes, &pos, &rec, &clean_end)) {
          result.discarded++;
        }
        c.discarded->Add(result.discarded);
        continue;
      }
    }

    while (NextRecord(bytes, &pos, &rec, &clean_end)) {
      uint64_t map_key = 0;
      std::shared_ptr<const MemoPayload> payload;
      Status decoded = DecodeCacheEntry(rec.payload, rec.size, &map_key,
                                        &payload);
      if (!decoded.ok()) {
        // Framing was intact but the content is garbage (bit flip inside
        // a record that collided the checksum is ~impossible; this is a
        // version or builder bug): drop the entry, keep going.
        result.discarded++;
        c.discarded->Increment();
        continue;
      }
      if (payload->epoch != memo->epoch()) {
        result.discarded++;
        c.discarded->Increment();
        continue;
      }
      MemoPublishResult pr = memo->Import(map_key, std::move(payload));
      if (pr == MemoPublishResult::kStoredNew ||
          pr == MemoPublishResult::kStoredImproved) {
        result.loaded++;
        file_loaded++;
        c.loaded->Increment();
      } else {
        result.discarded++;
        c.discarded->Increment();
      }
    }
    if (!clean_end) {
      file_torn = true;
      degrade(spec.path + ": torn tail truncated at byte " +
              std::to_string(pos));
      if (spec.is_log) {
        // Physically truncate so future appends land after valid records
        // instead of hiding behind garbage.
        std::error_code ec;
        fs::resize_file(spec.path, pos, ec);
        if (ec) {
          // Cannot repair in place: drop the log; the snapshot still has
          // everything up to the last flush.
          fs::remove(spec.path, ec);
        }
      }
    }
    if (file_torn) {
      result.recovered += file_loaded;
      c.recovered->Add(file_loaded);
    }
  }
  if (result.degraded) c.load_degraded->Increment();
  // Appends must not replay what the snapshot/log already holds: the
  // watermark starts at the memo's latest publish.
  watermark_seq_ = memo->sequence();
  return result;
#endif
}

Status CacheStore::WriteLocked(const std::string& path,
                               const std::vector<MemoExportEntry>& entries,
                               uint64_t epoch, uint64_t catalog_fp,
                               bool append) {
#ifdef _WIN32
  (void)path;
  (void)entries;
  (void)epoch;
  (void)catalog_fp;
  (void)append;
  return Status::OK();
#else
  std::vector<unsigned char> bytes;
  std::error_code ec;
  bool need_header = !append || !fs::exists(path, ec) ||
                     fs::file_size(path, ec) == 0 || ec;
  if (need_header) {
    std::vector<unsigned char> header;
    EncodeHeader(&header, epoch, catalog_fp);
    AppendRecord(&bytes, header);
  }
  std::vector<unsigned char> payload;
  for (const MemoExportEntry& e : entries) {
    payload.clear();
    EncodeCacheEntry(e.map_key, *e.payload, &payload);
    AppendRecord(&bytes, payload);
  }

  if (FaultInjector::ShouldFail(FaultPoint::kCacheIo)) {
    Counters().io_errors->Increment();
    return InjectedIo("cache", "open", path);
  }
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) {
    Counters().io_errors->Increment();
    return Status::DataLoss("cannot open cache file " + path + ": " +
                            std::strerror(errno));
  }
  Status failed;
  if (FaultInjector::ShouldFail(FaultPoint::kCacheIo)) {
    failed = InjectedIo("cache", "write", path);
  } else if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size() ||
             std::fflush(f) != 0) {
    failed = Status::DataLoss("short write to cache file " + path + ": " +
                              std::strerror(errno));
  }
  if (failed.ok()) {
    CrashInjector::MaybeCrash(append ? "cache-append-pre-sync"
                                     : "cache-snapshot-pre-sync");
    failed = SyncFd(::fileno(f), path);
  }
  std::fclose(f);
  if (!failed.ok()) {
    Counters().io_errors->Increment();
    return failed;
  }
  return Status::OK();
#endif
}

Status CacheStore::WriteSnapshot(SharedMemo* memo, uint64_t catalog_fp) {
#ifdef _WIN32
  (void)memo;
  (void)catalog_fp;
  return Status::OK();
#else
  std::vector<MemoExportEntry> entries = memo->ExportEntries(/*min_seq=*/0);
  uint64_t top_seq = 0;
  for (const MemoExportEntry& e : entries) {
    if (e.seq > top_seq) top_seq = e.seq;
  }
  // Temp name carries the pid: concurrent daemons sharing a cache path
  // (misconfiguration) tear each other's temp files, never the snapshot.
  std::string tmp =
      path_ + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  Status written =
      WriteLocked(tmp, entries, memo->epoch(), catalog_fp, /*append=*/false);
  if (!written.ok()) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return written;
  }
  CrashInjector::MaybeCrash("cache-snapshot-pre-rename");
  if (FaultInjector::ShouldFail(FaultPoint::kCacheIo)) {
    Counters().io_errors->Increment();
    std::error_code ec;
    fs::remove(tmp, ec);
    return InjectedIo("cache", "rename", path_);
  }
  std::error_code ec;
  fs::rename(tmp, path_, ec);
  if (ec) {
    Counters().io_errors->Increment();
    fs::remove(tmp, ec);
    return Status::DataLoss("cannot rename " + tmp + " over " + path_ + ": " +
                            ec.message());
  }
  SyncParentDir(path_);
  CrashInjector::MaybeCrash("cache-snapshot-post-rename");
  // The log's entries are now in the snapshot. A crash before this remove
  // is safe: reloading them from the stale log only produces duplicate
  // imports, which dedup.
  fs::remove(log_path(), ec);
  watermark_seq_ = std::max(watermark_seq_, top_seq);
  Counters().snapshots->Increment();
  Counters().snapshot_entries->Add(static_cast<int64_t>(entries.size()));
  return Status::OK();
#endif
}

Status CacheStore::AppendNew(SharedMemo* memo, uint64_t catalog_fp) {
#ifdef _WIN32
  (void)memo;
  (void)catalog_fp;
  return Status::OK();
#else
  std::vector<MemoExportEntry> entries =
      memo->ExportEntries(/*min_seq=*/watermark_seq_ + 1);
  if (entries.empty()) return Status::OK();
  uint64_t top_seq = watermark_seq_;
  for (const MemoExportEntry& e : entries) {
    if (e.seq > top_seq) top_seq = e.seq;
  }
  ECA_RETURN_IF_ERROR(WriteLocked(log_path(), entries, memo->epoch(),
                                  catalog_fp, /*append=*/true));
  watermark_seq_ = top_seq;
  Counters().appends->Increment();
  Counters().append_entries->Add(static_cast<int64_t>(entries.size()));
  return Status::OK();
#endif
}

// --- catalog fingerprint ---------------------------------------------------

uint64_t CatalogFingerprint(const Database& db) {
  uint64_t h = kFnvOffset;
  auto mix_u64 = [&h](uint64_t v) {
    unsigned char p[8];
    for (int i = 0; i < 8; ++i) p[i] = (v >> (8 * i)) & 0xff;
    h = FnvMix(h, p, sizeof(p));
  };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    h = FnvMix(h, reinterpret_cast<const unsigned char*>(s.data()), s.size());
  };
  mix_u64(static_cast<uint64_t>(db.NumTables()));
  for (int t = 0; t < db.NumTables(); ++t) {
    const Relation& rel = db.table(t);
    const Schema& schema = rel.schema();
    mix_u64(static_cast<uint64_t>(schema.NumColumns()));
    for (const Column& col : schema.columns()) {
      mix_u64(static_cast<uint64_t>(col.rel_id));
      mix_str(col.name);
      mix_u64(static_cast<uint64_t>(col.type));
    }
    mix_u64(static_cast<uint64_t>(rel.NumRows()));
    for (const Tuple& row : rel.rows()) {
      mix_u64(HashTuple(row));
    }
  }
  return h;
}

// --- header peek -----------------------------------------------------------

bool PeekCacheFileHeader(const std::string& path, uint64_t* epoch,
                         uint64_t* catalog_fp) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  // The header is the first framed record: u32 len | 28-byte payload |
  // u64 FNV = 40 bytes. Read generously so a longer future header still
  // fits one frame.
  std::vector<unsigned char> head(256);
  size_t got = std::fread(head.data(), 1, head.size(), f);
  std::fclose(f);
  head.resize(got);
  size_t pos = 0;
  bool clean_end = false;
  RecordView rec;
  if (!NextRecord(head, &pos, &rec, &clean_end)) return false;
  ByteReader r{rec.payload, rec.size, 0, true};
  if (!r.Need(sizeof(kMagic)) ||
      std::memcmp(r.data + r.pos, kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  r.pos += sizeof(kMagic);
  if (r.GetU32() != kVersion) return false;
  uint64_t file_epoch = r.GetU64();
  uint64_t file_catalog = r.GetU64();
  if (!r.ok) return false;
  if (epoch != nullptr) *epoch = file_epoch;
  if (catalog_fp != nullptr) *catalog_fp = file_catalog;
  return true;
}

}  // namespace eca
