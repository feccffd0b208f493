#ifndef ECA_COMMON_CONCURRENT_TABLE_H_
#define ECA_COMMON_CONCURRENT_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <shared_mutex>

namespace eca {

// Murmur3 finalizer: full-avalanche 64-bit mix used to spread table keys
// over power-of-two slot arrays.
inline uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// Coordination between the lock-free fast path of the shared memo table
// and its stop-the-world maintenance (sweep / clear / reset).
//
// Readers and writers on the hot path take a shared pin once per
// enumeration — NOT per probe — so every individual table operation stays
// lock-free; maintenance takes the exclusive side, which both waits for
// in-flight enumerations and blocks new pins while slots are rebuilt.
class ReaderGate {
 public:
  void Pin() { mu_.lock_shared(); }
  void Unpin() { mu_.unlock_shared(); }
  void LockExclusive() { mu_.lock(); }
  bool TryLockExclusive() { return mu_.try_lock(); }
  void UnlockExclusive() { mu_.unlock(); }

 private:
  std::shared_mutex mu_;
};

// Open-addressing hash table from 64-bit keys to immutable chains of
// nodes, in the style of sylvan's lock-free unique tables: a slot is
// claimed for a key with one CAS on an atomic 64-bit word, and nodes are
// prepended to the slot's chain with a CAS on the head pointer. There are
// no locks anywhere on the find/claim path and slots are never unclaimed
// or rehashed while the table is pinned, so a reader can walk a chain
// with plain acquire loads.
//
// `Node` must expose `std::atomic<Node*> next`. The table does not own
// nodes; every published node is reachable from exactly one chain, and
// the owner reclaims them via ForEachNodeExclusive + ResetExclusive under
// a ReaderGate's exclusive side.
//
// Capacity is fixed at construction. When a key's probe window (64 slots)
// is saturated, ClaimHead returns nullptr and the caller must treat the
// publish as rejected (a probe miss later is always safe).
template <typename Node>
class ConcurrentChainTable {
 public:
  static constexpr int kMaxProbe = 64;

  explicit ConcurrentChainTable(size_t slot_count) {
    size_t n = 16;
    while (n < slot_count) n <<= 1;
    mask_ = n - 1;
    slots_ = new Slot[n];
  }
  ~ConcurrentChainTable() { delete[] slots_; }

  ConcurrentChainTable(const ConcurrentChainTable&) = delete;
  ConcurrentChainTable& operator=(const ConcurrentChainTable&) = delete;

  // Head of `key`'s chain (newest node first); nullptr when the key has
  // no slot yet. Lock-free.
  Node* Find(uint64_t key) const {
    key = Normalize(key);
    const size_t start = Mix64(key);
    const int limit = ProbeLimit();
    for (int i = 0; i < limit; ++i) {
      const Slot& s = slots_[(start + static_cast<size_t>(i)) & mask_];
      uint64_t k = s.key.load(std::memory_order_acquire);
      if (k == 0) return nullptr;  // never unclaimed: probe ends here
      if (k == key) return s.head.load(std::memory_order_acquire);
    }
    return nullptr;
  }

  // The chain-head cell for `key`, claiming an empty slot when the key is
  // new; nullptr when the probe window is saturated (publish rejected).
  // Lock-free. Prepend by CAS-ing the head from an observed value to a
  // node whose `next` points at that value.
  std::atomic<Node*>* ClaimHead(uint64_t key) {
    key = Normalize(key);
    const size_t start = Mix64(key);
    const int limit = ProbeLimit();
    for (int i = 0; i < limit; ++i) {
      Slot& s = slots_[(start + static_cast<size_t>(i)) & mask_];
      uint64_t k = s.key.load(std::memory_order_acquire);
      if (k == 0) {
        if (s.key.compare_exchange_strong(k, key, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
          claimed_.fetch_add(1, std::memory_order_relaxed);
          return &s.head;
        }
        // Lost the claim race; `k` holds the winner's key.
      }
      if (k == key) return &s.head;
    }
    return nullptr;
  }

  // Visits every node in the table. Caller must hold the exclusive side
  // of the owning gate.
  template <typename Fn>
  void ForEachNodeExclusive(Fn&& fn) const {
    for (size_t i = 0; i <= mask_; ++i) {
      for (Node* n = slots_[i].head.load(std::memory_order_relaxed);
           n != nullptr; n = n->next.load(std::memory_order_relaxed)) {
        fn(n);
      }
    }
  }

  // Visits every non-empty chain as (key, head). Caller must hold the
  // exclusive side of the owning gate.
  template <typename Fn>
  void ForEachChainExclusive(Fn&& fn) const {
    for (size_t i = 0; i <= mask_; ++i) {
      uint64_t k = slots_[i].key.load(std::memory_order_relaxed);
      Node* h = slots_[i].head.load(std::memory_order_relaxed);
      if (k != 0 && h != nullptr) fn(k, h);
    }
  }

  // Unclaims every slot (nodes are untouched: collect them first).
  // Caller must hold the exclusive side of the owning gate.
  void ResetExclusive() {
    for (size_t i = 0; i <= mask_; ++i) {
      slots_[i].key.store(0, std::memory_order_relaxed);
      slots_[i].head.store(nullptr, std::memory_order_relaxed);
    }
    claimed_.store(0, std::memory_order_relaxed);
  }

  size_t slot_count() const { return mask_ + 1; }
  size_t claimed() const { return claimed_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    std::atomic<uint64_t> key{0};  // 0 = unclaimed
    std::atomic<Node*> head{nullptr};
  };

  // Key 0 marks an unclaimed slot; remap the (astronomically rare) real
  // zero key instead of widening every slot.
  static uint64_t Normalize(uint64_t key) {
    return key != 0 ? key : 0x9e3779b97f4a7c15ULL;
  }
  int ProbeLimit() const {
    size_t n = mask_ + 1;
    return n < static_cast<size_t>(kMaxProbe) ? static_cast<int>(n)
                                              : kMaxProbe;
  }

  Slot* slots_ = nullptr;
  size_t mask_ = 0;
  std::atomic<size_t> claimed_{0};
};

}  // namespace eca

#endif  // ECA_COMMON_CONCURRENT_TABLE_H_
