#ifndef ECA_ENUMERATE_SHARED_MEMO_H_
#define ECA_ENUMERATE_SHARED_MEMO_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "common/memory_tracker.h"
#include "common/rel_set.h"

namespace eca {

// One external dependency edge of a memo entry (Theorem 5.4's reuse
// guard), in interner-independent form: the display-name strings of the
// participating predicates plus their FNV hashes. Strings are compared
// exactly on probe, so a hash collision can never cause a wrong reuse —
// it only costs a bucket hop (counted as a sig collision). Keys are kept
// canonically sorted so two searches that discovered the same external
// set in different orders still match.
struct MemoExtKey {
  uint64_t src_hash = 0;
  uint64_t a_hash = 0;
  uint64_t b_hash = 0;
  std::string src;
  std::string a;
  std::string b;

  friend bool operator==(const MemoExtKey& x, const MemoExtKey& y) {
    return x.src_hash == y.src_hash && x.a_hash == y.a_hash &&
           x.b_hash == y.b_hash && x.src == y.src && x.a == y.a && x.b == y.b;
  }
  friend bool operator<(const MemoExtKey& x, const MemoExtKey& y) {
    if (x.src_hash != y.src_hash) return x.src_hash < y.src_hash;
    if (x.a_hash != y.a_hash) return x.a_hash < y.a_hash;
    if (x.b_hash != y.b_hash) return x.b_hash < y.b_hash;
    if (x.src != y.src) return x.src < y.src;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  }
};

// A d-edge carried by a memoized subtree, with predicate names as strings
// so the entry can be grafted into any consumer's interner.
struct MemoDEdge {
  std::string src_pred;
  std::string label_a;
  std::string label_b;
  int vnode = 0;
};

// An immutable proven-optimal subplan entry. Entries store true optima
// for their (relation set, external-edge set) — the enumerator publishes
// only the best of an exhaustive, unbounded search, and never after a
// budget cut it short — so a value is a pure function of its full key and
// publishing is order-independent.
struct MemoPayload {
  // Full key, verified exactly on probe (the map key is only a hash).
  uint64_t query_fp = 0;  // fingerprint of the whole simplified query
  RelSet s;               // relations covered by the subtree
  int policy = 0;         // SwapPolicy
  uint64_t epoch = 0;     // stats epoch the costs were computed under
  std::vector<MemoExtKey> ext_keys;  // sorted external d-edge signature

  // Value.
  PlanPtr subtree;  // never mutated after publish; consumers clone
  double cost = 0.0;
  std::vector<MemoDEdge> dedges;  // d-edges local to the subtree
  int next_vnode = 1;             // vnode headroom the subtree consumes
  int64_t bytes = 0;              // charge estimate for the tracker
};

// A probe for SharedMemo::Find. `ext_keys` must be canonically sorted.
struct MemoProbe {
  uint64_t map_key = 0;
  uint64_t query_fp = 0;
  RelSet s;
  int policy = 0;
  uint64_t epoch = 0;
  const std::vector<MemoExtKey>* ext_keys = nullptr;
};

enum class MemoPublishResult {
  kStoredNew,        // first entry for this full key
  kStoredImproved,   // strictly cheaper; replaced the entry for the key
  kSkippedDuplicate, // the stored entry is already as cheap
  kRejectedMemory,   // larger than the whole budget, or the tracker
                     // refused it; entry dropped
};

// One exported cache entry: the map key it was filed under, the publish
// sequence number (for incremental append watermarks; 0 for imported
// entries) and a shared reference to the immutable payload. Snapshots
// serialize these; Import() files them back in (see cache_store.h).
struct MemoExportEntry {
  uint64_t map_key = 0;
  uint64_t seq = 0;
  std::shared_ptr<const MemoPayload> payload;
};

// Per-enumeration probe counters, accumulated locally by each search and
// folded into the memo.* metrics once per Optimize.
struct MemoProbeStats {
  int64_t probes = 0;
  int64_t hits = 0;
  int64_t sig_collisions = 0;
};

// Fingerprint-keyed memo of proven-optimal subplans: the service's
// cross-query plan cache (docs/performance.md, "Plan cache"). Each
// query's enumeration is sequential and keeps its own local memo; this
// map lets concurrent sessions share the optima of earlier queries.
//
// One LRU map under one mutex. It holds at most one entry per full key;
// entries whose 64-bit map keys collide share a bucket and are told apart
// by the full key. Every entry is a proven optimum for its full key, so
// which session's publish a probe finds can change how much work is
// saved, never the chosen cost. A publish that would exceed the byte
// budget evicts least-recently-used entries until it fits.
class SharedMemo {
 public:
  struct Config {
    // Byte budget for cached entries; 0 means unlimited.
    int64_t max_bytes = 0;
    // When set, entry bytes are charged to a child of this tracker (the
    // service points it at the global root).
    MemoryTracker* parent = nullptr;
  };

  explicit SharedMemo(const Config& config);
  SharedMemo() : SharedMemo(Config{}) {}
  ~SharedMemo();

  SharedMemo(const SharedMemo&) = delete;
  SharedMemo& operator=(const SharedMemo&) = delete;

  // Stats epoch: bumped when base-relation statistics change. The epoch
  // is part of every entry's full key; AdvanceEpoch drops every entry of
  // an older epoch at once.
  uint64_t epoch() const;
  void AdvanceEpoch();

  // The entry matching `probe` exactly (nullptr on miss); a hit becomes
  // the most recently used entry. The returned reference keeps the
  // payload alive past any later eviction.
  std::shared_ptr<const MemoPayload> Find(const MemoProbe& probe,
                                          MemoProbeStats* stats);

  // Files an entry under `map_key`. An entry for the same full key that
  // is already as cheap wins; a strictly cheaper one replaces it.
  // Least-recently-used entries are evicted until the new one fits the
  // budget; only an entry larger than the whole budget is rejected.
  // Rejections are safe (they can only cost rework).
  MemoPublishResult Publish(uint64_t map_key,
                            std::shared_ptr<const MemoPayload> payload);

  // Folds one enumeration's probe counters into the memo.* metrics.
  // Static: a search without a plan cache reports through it too.
  static void AccumulateProbeStats(const MemoProbeStats& stats);

  // Persistence (docs/robustness.md, "Crash safety & persistence").
  //
  // The sequence number of the latest publish. The persistence layer
  // records it as its watermark: a later incremental append exports only
  // entries published after it.
  uint64_t sequence() const;

  // Snapshots every current-epoch entry whose publish sequence number is
  // >= min_seq (0 exports everything, including imported entries, which
  // carry sequence number 0). Deterministic for a given cache state:
  // sorted by map key, then by the order the bucket's full keys were
  // first filed.
  std::vector<MemoExportEntry> ExportEntries(uint64_t min_seq = 0);

  // Files a deserialized entry back in with sequence number 0, so a
  // min_seq >= 1 export never re-exports it and append logs don't accrete
  // duplicates. Duplicate or more-expensive entries dedup exactly like
  // live publishes. Safe to call while the service is accepting queries.
  MemoPublishResult Import(uint64_t map_key,
                           std::shared_ptr<const MemoPayload> payload);

  // Drops everything and returns every tracked byte (service drain).
  void Clear();

  int64_t used_bytes() const;
  int64_t entry_count() const;
  int64_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    uint64_t map_key;
    uint64_t seq;
    std::shared_ptr<const MemoPayload> payload;
  };
  using Lru = std::list<Entry>;  // most recently used first

  // Publish and Import under the lock; imported entries get sequence 0.
  MemoPublishResult PublishLocked(uint64_t map_key,
                                  std::shared_ptr<const MemoPayload> payload,
                                  bool imported);
  void EraseLocked(Lru::iterator it);

  const int64_t max_bytes_;
  std::unique_ptr<MemoryTracker> tracker_;  // child of config.parent
  mutable std::mutex mu_;
  Lru lru_;
  // Map key -> the bucket's entries, in the order their full keys were
  // first filed.
  std::unordered_map<uint64_t, std::vector<Lru::iterator>> index_;
  uint64_t epoch_ = 0;
  uint64_t seq_ = 0;  // last publish sequence number handed out
  int64_t used_bytes_ = 0;
};

}  // namespace eca

#endif  // ECA_ENUMERATE_SHARED_MEMO_H_
