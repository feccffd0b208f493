#ifndef ECA_STORAGE_CACHE_STORE_H_
#define ECA_STORAGE_CACHE_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "enumerate/shared_memo.h"

namespace eca {

class Database;

// Crash-safe persistence for the cross-query plan cache
// (docs/robustness.md, "Crash safety & persistence"). Proven SharedMemo
// entries are serialized per stats epoch into two files:
//
//   <path>       the snapshot — the whole cache at one point in time,
//                replaced atomically (temp file + fsync + rename + dir
//                fsync), so a crash at any byte leaves either the old or
//                the new snapshot, never a hybrid.
//   <path>.log   the append-only write-behind log — entries published
//                since the last snapshot, fsynced per batch. A crash
//                mid-append leaves a torn tail, which the loader
//                truncates at the first bad checksum.
//
// Record framing reuses the spill-file idiom (docs/robustness.md):
//
//   u32 len | payload | u64 FNV-1a(len bytes + payload)     little-endian
//
// The first record of each file is a header {magic "ECAPCACH", version,
// stats epoch, catalog fingerprint}; every further record is one cache
// entry {map_key, MemoPayload} with the plan tree, predicates and scalars
// in a self-contained binary encoding (no interner or parser dependence).
//
// Recovery contract — the loader NEVER fails the daemon:
//   - missing file(s): cold cache;
//   - wrong magic/version/catalog fingerprint: whole file discarded;
//   - torn or corrupt tail: valid prefix imported, tail truncated
//     (physically, for the log, so later appends stay readable);
//   - per-entry stats-epoch mismatch: entry discarded;
//   - any I/O error: load stops, whatever was imported stays.
// Every outcome is counted in the cache.* metrics and reported in
// LoadResult for the daemon's log line.
//
// FaultPoint::kCacheIo injects open/read/write/fsync/rename failures;
// CrashInjector::MaybeCrash marks the crash-ordering-critical steps for
// tools/chaos_smoke.sh.
class CacheStore {
 public:
  struct LoadResult {
    int64_t loaded = 0;     // entries imported into the memo
    int64_t recovered = 0;  // entries salvaged from a file with a tear
    int64_t discarded = 0;  // entries dropped (stale epoch, duplicate,
                            // corrupt, wrong catalog)
    bool snapshot_present = false;
    bool log_present = false;
    bool degraded = false;  // something was wrong with the files; the
                            // cache is (partially) cold but serviceable
    std::string detail;     // human-readable degradation reason(s)
  };

  explicit CacheStore(std::string path);

  const std::string& path() const { return path_; }
  std::string log_path() const { return path_ + ".log"; }

  // Reads snapshot + log and imports every acceptable entry into `memo`
  // (with sequence number 0, so appends never re-export them). Entries are
  // validated against memo->epoch() and `catalog_fp`. Never fails: every
  // degradation is reported in the result, not thrown at the caller.
  LoadResult Load(SharedMemo* memo, uint64_t catalog_fp);

  // Atomically replaces the snapshot with the memo's full current-epoch
  // content and clears the log. On success the snapshot watermark
  // advances, so subsequent AppendNew calls only write newer entries.
  Status WriteSnapshot(SharedMemo* memo, uint64_t catalog_fp);

  // Appends entries published since the last snapshot/append to the log
  // and fsyncs. No-op when nothing new was published. Exact duplicates
  // across snapshot and log are harmless: Import dedups on load.
  Status AppendNew(SharedMemo* memo, uint64_t catalog_fp);

 private:
  Status WriteLocked(const std::string& path,
                     const std::vector<MemoExportEntry>& entries,
                     uint64_t epoch, uint64_t catalog_fp, bool append);

  std::string path_;
  // Highest publish sequence number already persisted; AppendNew exports
  // (seq > watermark). Entries imported from disk carry sequence number 0
  // and are never re-exported by an append (only by the next full
  // snapshot).
  uint64_t watermark_seq_ = 0;
};

// Serializes one payload into `out` (appended); the exact byte string the
// entry records carry. Exposed for the corruption fuzz and tests.
void EncodeCacheEntry(uint64_t map_key, const MemoPayload& payload,
                      std::vector<unsigned char>* out);

// Decodes an entry payload produced by EncodeCacheEntry. Every field is
// bounds-checked; malformed input is kDataLoss, never a crash or an
// unbounded allocation.
Status DecodeCacheEntry(const unsigned char* data, size_t size,
                        uint64_t* map_key,
                        std::shared_ptr<const MemoPayload>* payload);

// Fingerprint of the served catalog: schemas, row counts and row
// contents. A cache file written against a different catalog — different
// data directory, different --rows — must not warm this daemon.
uint64_t CatalogFingerprint(const Database& db);

// Reads only the header record of `path` and reports the stats epoch and
// catalog fingerprint it was written under. Returns false when the file
// is missing or its header is unreadable. Lets tools (ecafuzz
// --cache-file, chaos_smoke.sh) fuzz a foreign cache file under its own
// fingerprint instead of having every entry discarded as a catalog
// mismatch.
bool PeekCacheFileHeader(const std::string& path, uint64_t* epoch,
                         uint64_t* catalog_fp);

}  // namespace eca

#endif  // ECA_STORAGE_CACHE_STORE_H_
