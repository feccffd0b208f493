#ifndef ECA_ENUMERATE_SHARED_MEMO_H_
#define ECA_ENUMERATE_SHARED_MEMO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/concurrent_table.h"
#include "common/memory_tracker.h"
#include "common/rel_set.h"

namespace eca {

// One external dependency edge of a memo entry (Theorem 5.4's reuse
// guard), in interner-independent form: the display-name strings of the
// participating predicates plus their FNV hashes. Strings are compared
// exactly on probe, so a hash collision can never cause a wrong reuse —
// it only costs a chain hop (counted as a sig collision). Keys are kept
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

// Chain node: immutable after publish except for the LRU stamp.
struct MemoNode {
  std::atomic<MemoNode*> next{nullptr};
  uint64_t gen = 0;  // generation (BeginQuery tick) that published it
  std::atomic<uint64_t> last_used{0};  // generation of the last hit (LRU)
  std::shared_ptr<const MemoPayload> payload;
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
  kStoredImproved,   // cheaper than the visible entry for the key
  kSkippedDuplicate, // a visible entry is already as cheap
  kRejectedFull,     // probe window saturated; entry dropped
  kRejectedMemory,   // byte budget exhausted; entry dropped
};

// One exported cache entry: the map key it was filed under, the
// generation that published it (for incremental append watermarks) and a
// shared reference to the immutable payload. Snapshots serialize these;
// Import() files them back in (see cache_store.h).
struct MemoExportEntry {
  uint64_t map_key = 0;
  uint64_t gen = 0;
  std::shared_ptr<const MemoPayload> payload;
};

// Per-enumeration probe counters, accumulated locally by each search and
// folded into the memo.* metrics once per Optimize (per-probe global
// atomics would put contention right back on the lock-free read path).
struct MemoProbeStats {
  int64_t probes = 0;
  int64_t hits = 0;
  int64_t sig_collisions = 0;
};

// Concurrent, fingerprint-keyed memo of proven-optimal subplans: the
// service's cross-query plan cache (docs/performance.md, "Plan cache").
// Each query's enumeration is sequential and keeps its own local memo;
// this table lets concurrent sessions share the optima of earlier queries.
//
// Thread model: Pin() once per enumeration, then Find/Publish are
// lock-free; Sweep/Clear take the exclusive side of the gate and may
// rebuild the table wholesale. BeginQuery hands out a monotonic
// generation, and a probe of generation G sees exactly the nodes with
// node.gen < G. A query's own publishes (gen == G) stay invisible to it:
// its local memo already holds them, so what the search observes is its
// own work plus entries of earlier queries. Every entry is a proven
// optimum for its full key, so which earlier entry a probe finds can
// change how much work is saved, never the chosen cost; the chain walk
// resolves equal-cost ties toward the oldest visible entry.
class SharedMemo {
 public:
  struct Config {
    size_t slot_count = 1 << 13;  // chain-table slots (rounded up)
    // Byte budget for cached entries; 0 means unlimited. Publishes
    // beyond the budget are rejected until the next Sweep.
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

  // Hot-path gate: hold a pin for the duration of an enumeration.
  void Pin() { gate_.Pin(); }
  void Unpin() { gate_.Unpin(); }

  // New monotonic generation for a starting query (also the LRU clock).
  uint64_t BeginQuery() {
    return gen_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // The latest generation handed out so far. The persistence layer records
  // this as the snapshot watermark: a later incremental append exports
  // only entries published after it.
  uint64_t generation() const { return gen_.load(std::memory_order_relaxed); }

  // Stats epoch: bumped when base-relation statistics change. The epoch
  // is part of every entry's full key, so advancing it instantly makes
  // all older entries unreachable; Sweep() reclaims their bytes.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void AdvanceEpoch();

  // Cheapest visible entry matching `probe` exactly (nullptr on miss);
  // requires a pin. Ties resolve to the oldest entry.
  const MemoPayload* Find(const MemoProbe& probe, uint64_t gen,
                          MemoProbeStats* stats);

  // Publishes an entry; requires a pin. `gen` tags visibility as
  // described above. Rejections are safe (they can only cost rework).
  MemoPublishResult Publish(uint64_t map_key,
                            std::shared_ptr<const MemoPayload> payload,
                            uint64_t gen);

  // Folds one enumeration's probe counters into the memo.* metrics.
  // Static: a search without a plan cache reports through it too.
  static void AccumulateProbeStats(const MemoProbeStats& stats);

  // Persistence (docs/robustness.md, "Crash safety & persistence").
  //
  // ExportEntries snapshots every live entry of the current epoch whose
  // publishing generation is >= min_gen (0 exports everything, including
  // previously imported entries, which live at generation 0). Takes the
  // exclusive side of the gate, so it waits for in-flight enumerations;
  // the result is deterministic for a given cache state: sorted by
  // (map_key, chain depth oldest-first).
  std::vector<MemoExportEntry> ExportEntries(uint64_t min_gen = 0);

  // Files a deserialized entry back in at generation 0, which the
  // visibility rule (gen < G for every BeginQuery generation G >= 1)
  // makes visible to all future queries — and which a min_gen >= 1 export
  // never re-exports, so append logs don't accrete duplicates. Duplicate
  // or more-expensive entries dedup exactly like live publishes. Pins
  // internally; safe to call while the service is accepting queries.
  MemoPublishResult Import(uint64_t map_key,
                           std::shared_ptr<const MemoPayload> payload);

  // Maintenance (exclusive; waits for / excludes pinned enumerations).
  // Sweep drops entries from stale epochs, then evicts
  // least-recently-used entries until under the byte budget. TrySweep
  // skips (returning false) when an enumeration is in flight.
  void Sweep();
  bool TrySweep();
  // Drops everything and returns every tracked byte (service drain).
  void Clear();

  int64_t used_bytes() const {
    return used_bytes_.load(std::memory_order_relaxed);
  }
  int64_t entry_count() const {
    return entry_count_.load(std::memory_order_relaxed);
  }
  int64_t max_bytes() const { return max_bytes_; }

 private:
  void SweepLocked();
  // Drops nodes selected by `keep` (called with every node; return false
  // to evict) and rebuilds the chain table. Gate held exclusively.
  template <typename Keep>
  void RebuildLocked(Keep&& keep);
  void ReleaseNode(MemoNode* node);

  ReaderGate gate_;
  ConcurrentChainTable<MemoNode> table_;
  const int64_t max_bytes_;
  std::unique_ptr<MemoryTracker> tracker_;  // child of config.parent
  std::atomic<uint64_t> gen_{0};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int64_t> used_bytes_{0};
  std::atomic<int64_t> entry_count_{0};
};

}  // namespace eca

#endif  // ECA_ENUMERATE_SHARED_MEMO_H_
