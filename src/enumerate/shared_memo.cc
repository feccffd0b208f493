#include "enumerate/shared_memo.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace eca {

namespace {

// memo.* metric catalog (docs/performance.md). Registered once; the
// probe counters are accumulated by each search and folded in via
// AccumulateProbeStats.
struct MemoCounters {
  Counter* probes;
  Counter* hits;
  Counter* sig_collisions;
  Counter* publishes;
  Counter* duplicate_publishes;
  Counter* mem_rejects;
  Counter* epoch_advances;
  Counter* epoch_invalidations;
  Counter* lru_evictions;
};

const MemoCounters& Counters() {
  static const MemoCounters counters = [] {
    auto& reg = MetricsRegistry::Global();
    return MemoCounters{reg.counter("memo.probes"),
                        reg.counter("memo.hits"),
                        reg.counter("memo.sig_collisions"),
                        reg.counter("memo.publishes"),
                        reg.counter("memo.duplicate_publishes"),
                        reg.counter("memo.mem_rejects"),
                        reg.counter("memo.epoch_advances"),
                        reg.counter("memo.epoch_invalidations"),
                        reg.counter("memo.lru_evictions")};
  }();
  return counters;
}

// Full-key equality of two payloads (the map key is just a hash; this is
// what makes a reuse decision sound).
bool SameFullKey(const MemoPayload& x, const MemoPayload& y) {
  return x.query_fp == y.query_fp && x.s == y.s && x.policy == y.policy &&
         x.epoch == y.epoch && x.ext_keys == y.ext_keys;
}

bool ProbeMatches(const MemoProbe& probe, const MemoPayload& p) {
  if (p.epoch != probe.epoch || p.policy != probe.policy ||
      p.query_fp != probe.query_fp || !(p.s == probe.s)) {
    return false;
  }
  return p.ext_keys == *probe.ext_keys;
}

}  // namespace

SharedMemo::SharedMemo(const Config& config) : max_bytes_(config.max_bytes) {
  if (config.parent != nullptr) {
    // Accounting-only child: the service's admission ledger reserves the
    // cache headroom; a hard limit here would fail publishes with a
    // Status nobody can act on (rejection is already the safe response).
    tracker_ = std::make_unique<MemoryTracker>(/*soft_bytes=*/0,
                                               /*hard_bytes=*/0,
                                               config.parent);
  }
  Counters();  // eager registration: first scrape shows the whole set
}

SharedMemo::~SharedMemo() { Clear(); }

uint64_t SharedMemo::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void SharedMemo::AdvanceEpoch() {
  const MemoCounters& c = Counters();
  std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;
  c.epoch_advances->Increment();
  int64_t stale = 0;
  for (Lru::iterator it = lru_.begin(); it != lru_.end();) {
    Lru::iterator next = std::next(it);
    if (it->payload->epoch != epoch_) {
      EraseLocked(it);
      ++stale;
    }
    it = next;
  }
  c.epoch_invalidations->Add(stale);
}

std::shared_ptr<const MemoPayload> SharedMemo::Find(const MemoProbe& probe,
                                                    MemoProbeStats* stats) {
  stats->probes++;
  std::lock_guard<std::mutex> lock(mu_);
  auto bucket = index_.find(probe.map_key);
  if (bucket == index_.end()) return nullptr;
  for (Lru::iterator it : bucket->second) {
    const MemoPayload& p = *it->payload;
    if (!ProbeMatches(probe, p)) {
      // Same map key, different full key: hash collision (forced by the
      // collide_signatures test knob; astronomically rare otherwise).
      if (p.s == probe.s && p.epoch == probe.epoch &&
          p.policy == probe.policy && p.query_fp == probe.query_fp) {
        stats->sig_collisions++;
      }
      continue;
    }
    stats->hits++;
    lru_.splice(lru_.begin(), lru_, it);
    return it->payload;
  }
  return nullptr;
}

MemoPublishResult SharedMemo::Publish(
    uint64_t map_key, std::shared_ptr<const MemoPayload> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  return PublishLocked(map_key, std::move(payload), /*imported=*/false);
}

MemoPublishResult SharedMemo::Import(
    uint64_t map_key, std::shared_ptr<const MemoPayload> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  return PublishLocked(map_key, std::move(payload), /*imported=*/true);
}

MemoPublishResult SharedMemo::PublishLocked(
    uint64_t map_key, std::shared_ptr<const MemoPayload> payload,
    bool imported) {
  const MemoCounters& c = Counters();
  const int64_t bytes = payload->bytes;
  Lru::iterator old = lru_.end();
  auto bucket = index_.find(map_key);
  if (bucket != index_.end()) {
    for (Lru::iterator it : bucket->second) {
      if (SameFullKey(*it->payload, *payload)) {
        old = it;
        break;
      }
    }
  }
  if (old != lru_.end() && old->payload->cost <= payload->cost) {
    c.duplicate_publishes->Increment();
    return MemoPublishResult::kSkippedDuplicate;
  }
  if ((max_bytes_ > 0 && bytes > max_bytes_) ||
      (tracker_ != nullptr &&
       !tracker_->Reserve(bytes, "plan-cache entry").ok())) {
    c.mem_rejects->Increment();
    return MemoPublishResult::kRejectedMemory;
  }
  const bool improved = old != lru_.end();
  if (improved) EraseLocked(old);
  int64_t evicted = 0;
  while (max_bytes_ > 0 && used_bytes_ + bytes > max_bytes_) {
    EraseLocked(std::prev(lru_.end()));
    ++evicted;
  }
  c.lru_evictions->Add(evicted);
  lru_.push_front(Entry{map_key, imported ? 0 : ++seq_, std::move(payload)});
  index_[map_key].push_back(lru_.begin());
  used_bytes_ += bytes;
  c.publishes->Increment();
  return improved ? MemoPublishResult::kStoredImproved
                  : MemoPublishResult::kStoredNew;
}

void SharedMemo::EraseLocked(Lru::iterator it) {
  auto bucket = index_.find(it->map_key);
  std::vector<Lru::iterator>& entries = bucket->second;
  entries.erase(std::find(entries.begin(), entries.end(), it));
  if (entries.empty()) index_.erase(bucket);
  if (tracker_ != nullptr) tracker_->Release(it->payload->bytes);
  used_bytes_ -= it->payload->bytes;
  lru_.erase(it);
}

uint64_t SharedMemo::sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::vector<MemoExportEntry> SharedMemo::ExportEntries(uint64_t min_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> keys;
  keys.reserve(index_.size());
  for (const auto& bucket : index_) keys.push_back(bucket.first);
  std::sort(keys.begin(), keys.end());
  std::vector<MemoExportEntry> out;
  for (uint64_t key : keys) {
    for (Lru::iterator it : index_.at(key)) {
      if (it->seq < min_seq) continue;
      if (it->payload->epoch != epoch_) continue;  // dead on load anyway
      out.push_back(MemoExportEntry{key, it->seq, it->payload});
    }
  }
  return out;
}

void SharedMemo::AccumulateProbeStats(const MemoProbeStats& stats) {
  const MemoCounters& c = Counters();
  c.probes->Add(stats.probes);
  c.hits->Add(stats.hits);
  c.sig_collisions->Add(stats.sig_collisions);
}

void SharedMemo::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (tracker_ != nullptr) tracker_->Release(used_bytes_);
  used_bytes_ = 0;
  index_.clear();
  lru_.clear();
}

int64_t SharedMemo::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_bytes_;
}

int64_t SharedMemo::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(lru_.size());
}

}  // namespace eca
