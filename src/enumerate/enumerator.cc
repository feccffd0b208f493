#include "enumerate/enumerator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "enumerate/shared_memo.h"
#include "enumerate/subtree.h"
#include "rewrite/oj_simplify.h"
#include "testing/fault_injection.h"

namespace eca {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int64_t SteadyNowMs() {
  int64_t real = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
  // Routed through the fault clock so deadline behavior is testable
  // deterministically (testing/fault_injection).
  return FaultClock::NowMs(real);
}

uint64_t FpMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 1099511628211ULL;
}

int64_t CountNodes(const Plan* node) {
  if (node == nullptr) return 0;
  switch (node->kind()) {
    case Plan::Kind::kLeaf:
      return 1;
    case Plan::Kind::kJoin:
      return 1 + CountNodes(node->left()) + CountNodes(node->right());
    case Plan::Kind::kComp:
      return 1 + CountNodes(node->child());
  }
  return 1;
}

// A plan plus the rewrite history its swaps accumulated.
struct APlan {
  PlanPtr root;
  RewriteContext ctx;
};

// Sorted, deduplicated interned ids of the join predicates inside `sub`.
// Joins without a predicate intern as PredNameInterner::kCross, matching
// the "cross" pseudo-name the d-edge recording uses.
std::vector<int> JoinPredIdsOf(const Plan* sub, RewriteContext* ctx) {
  std::vector<Plan*> joins;
  CollectJoins(const_cast<Plan*>(sub), &joins);
  std::vector<int> ids;
  ids.reserve(joins.size());
  PredNameInterner& interner = ctx->Interner();
  for (const Plan* j : joins) ids.push_back(interner.Intern(j->pred()));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// Sorted, deduplicated comp-group vnodes in `node`'s subtree.
void CollectVnodes(const Plan* node, std::vector<int>* out) {
  if (node == nullptr) return;
  switch (node->kind()) {
    case Plan::Kind::kLeaf:
      return;
    case Plan::Kind::kJoin:
      CollectVnodes(node->left(), out);
      CollectVnodes(node->right(), out);
      return;
    case Plan::Kind::kComp:
      if (node->comp().vnode >= 0) out->push_back(node->comp().vnode);
      CollectVnodes(node->child(), out);
      return;
  }
}

std::vector<int> VnodesOf(const Plan* node) {
  std::vector<int> v;
  CollectVnodes(node, &v);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

void RemapVnodes(Plan* node, int offset) {
  if (node == nullptr) return;
  switch (node->kind()) {
    case Plan::Kind::kLeaf:
      return;
    case Plan::Kind::kJoin:
      RemapVnodes(node->left(), offset);
      RemapVnodes(node->right(), offset);
      return;
    case Plan::Kind::kComp:
      if (node->mutable_comp().vnode >= 0) {
        node->mutable_comp().vnode += offset;
      }
      RemapVnodes(node->child(), offset);
      return;
  }
}

bool Contains(const std::vector<int>& sorted, int v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

// The enumeration of one query: a single sequential top-down search
// (Algorithms 2/5) together with its budget and its subplan memo.
//
// Memo layering: every entry the search stores lands in its local memo,
// and — when the caller supplied a cross-query plan cache — is also
// published there (write-through). Probes go to the local memo first,
// then to the cache (read-through). The cache's visibility rule (gen < G,
// see shared_memo.h) hides this query's own publishes, which the local
// memo already holds, so the cache only ever contributes proven optima of
// earlier queries.
class Search {
 public:
  // `root` is the simplified query; with a plan cache its fingerprint
  // scopes every cache key.
  Search(const CostModel* cost, const EnumeratorOptions& options,
         SharedMemo* memo, const Plan& root)
      : cost_(cost), opt_(options), memo_(memo) {
    deadline_ms_ = opt_.budget.wall_clock_ms > 0
                       ? SteadyNowMs() + opt_.budget.wall_clock_ms
                       : 0;
    if (memo_ == nullptr) return;
    memo_->Pin();
    gen_ = memo_->BeginQuery();
    epoch_ = memo_->epoch();
    // Entries are keyed by the whole simplified query's fingerprint:
    // cross-query reuse happens only between structurally identical
    // queries, where a subplan's full surrounding context — and therefore
    // Theorem 5.4's external-d-edge reasoning — is known to transfer.
    query_fp_ = PlanFingerprint(root);
  }
  ~Search() {
    if (memo_ != nullptr) memo_->Unpin();
  }
  Search(const Search&) = delete;
  Search& operator=(const Search&) = delete;

  // In-place Algorithm 2/5: finds the cheapest realization of relation set
  // `s` inside p's subtree under the join at `i_path` (the whole plan when
  // absent). On success returns true with the winner installed in *p; on
  // failure returns false with *p exactly as on entry. Both sides of every
  // decomposition are searched without a cost bound, so the best is a true
  // optimum and is stored in the memo unless a budget trip truncated it.
  bool GenerateSubplan(APlan* p, const std::optional<NodePath>& i_path,
                       RelSet s);

  // The run's statistics, with the memo probe counters folded into them
  // and into the memo.* metrics. Call once, when the search is done.
  EnumeratorStats Finish() {
    stats_.sig_collisions = memo_stats_.sig_collisions;
    SharedMemo::AccumulateProbeStats(memo_stats_);
    return stats_;
  }

 private:
  struct Probe {
    std::vector<MemoExtKey> keys;  // canonically sorted
    uint64_t map_key = 0;
  };

  // Records the first trigger as the degradation reason. Hard triggers
  // stop the search.
  void Trip(BudgetTrigger t, bool hard) {
    if (!stats_.degraded) {
      stats_.degraded = true;
      stats_.trigger = t;
    }
    // Only the memo cap leaves the search exhaustive. After any other
    // trigger a subplan's best may be truncated, and a truncated best must
    // never reach the memo: the plan cache would serve it to later,
    // undegraded runs of the same query.
    if (t != BudgetTrigger::kMemoEntries) truncated_ = true;
    if (hard) stop_ = true;
  }

  bool Exhausted() {
    if (stop_) return true;
    if (FaultInjector::ShouldFail(FaultPoint::kEnumeratorBudget)) {
      Trip(BudgetTrigger::kInjectedFault, /*hard=*/true);
      return true;
    }
    const EnumeratorBudget& b = opt_.budget;
    if (b.max_enumerated_nodes > 0 &&
        stats_.subplan_calls >= b.max_enumerated_nodes) {
      Trip(BudgetTrigger::kEnumeratedNodes, /*hard=*/true);
      return true;
    }
    if (deadline_ms_ > 0 && SteadyNowMs() >= deadline_ms_) {
      Trip(BudgetTrigger::kWallClock, /*hard=*/true);
      return true;
    }
    return false;
  }

  double SubtreeCost(const APlan& p, RelSet s) {
    ++stats_.cost_evals;
    return cost_->Cost(*SubtreeOf(p.root.get(), s));
  }

  // The external d-edge signature of subtree(p, s): every d-edge whose
  // source join lies inside but whose dependency target does not (or exists
  // both inside and out), per Theorem 5.4. The sorted key vector is the
  // full identity; map_key compresses the full cross-query key — relation
  // set, signature, query fingerprint, stats epoch and policy — to the
  // 64-bit table index.
  Probe MakeProbe(APlan* p, RelSet s) {
    const Plan* sub = SubtreeOf(p->root.get(), s);
    std::vector<int> inside_ids = JoinPredIdsOf(sub, &p->ctx);
    std::vector<int> inside_vnodes = VnodesOf(sub);
    std::vector<int> all_vnodes = VnodesOf(p->root.get());
    Probe probe;
    const PredNameInterner& interner = p->ctx.Interner();
    for (const DEdge& e : p->ctx.dedges) {
      if (!Contains(inside_ids, e.src_pred)) continue;
      bool external;
      if (e.vnode == DEdge::kContextVnode) {
        // Fold/simplify markers: the dependency is on the causing predicate.
        external = !Contains(inside_ids, e.label_b);
      } else {
        bool in = Contains(inside_vnodes, e.vnode);
        bool out_exists = !in && Contains(all_vnodes, e.vnode);
        external = !in || out_exists;
      }
      if (!external) continue;
      MemoExtKey k;
      k.src_hash = interner.HashOf(e.src_pred);
      k.a_hash = interner.HashOf(e.label_a);
      k.b_hash = interner.HashOf(e.label_b);
      k.src = interner.NameOf(e.src_pred);
      k.a = interner.NameOf(e.label_a);
      k.b = interner.NameOf(e.label_b);
      probe.keys.push_back(std::move(k));
    }
    // Canonical (hash, name) order: independent of any interner's id
    // assignment, so two queries that discovered the same external set
    // through different rewrite histories still match.
    std::sort(probe.keys.begin(), probe.keys.end());
    uint64_t sig = 0;
    if (!opt_.collide_signatures && !opt_.unsafe_ignore_dedges) {
      sig = 1469598103934665603ULL;
      for (const MemoExtKey& k : probe.keys) {
        sig = FpMix(sig, k.src_hash);
        sig = FpMix(sig, k.a_hash);
        sig = FpMix(sig, k.b_hash);
      }
    }
    probe.map_key =
        FpMix(FpMix(FpMix(FpMix(FpMix(0x5eedULL, s.bits()), sig), query_fp_),
                    epoch_),
              static_cast<uint64_t>(opt_.policy));
    return probe;
  }

  const MemoPayload* FindLocal(const Probe& probe, RelSet s) {
    auto it = local_memo_.find(probe.map_key);
    if (it == local_memo_.end()) return nullptr;
    if (opt_.unsafe_ignore_dedges) {
      // ABLATION (Example 5.1): first entry for the relation set, external
      // dependencies ignored — the unsound shortcut under test.
      for (const auto& e : it->second) {
        if (e->s == s) return e.get();
      }
      return nullptr;
    }
    for (const auto& e : it->second) {
      if (!(e->s == s)) continue;
      if (e->ext_keys == probe.keys) return e.get();
      // Same 64-bit (s, signature) slot, different full key: a signature
      // collision a hash-only memo would have grafted unsoundly.
      ++memo_stats_.sig_collisions;
    }
    return nullptr;
  }

  // Every subplan-memo probe is counted here, local or cached, so the
  // memo.* metrics read the same with or without a plan cache.
  const MemoPayload* FindEntry(const Probe& probe, RelSet s) {
    ++memo_stats_.probes;
    const MemoPayload* e = FindLocal(probe, s);
    if (e == nullptr && memo_ != nullptr) {
      MemoProbe mp;
      mp.map_key = probe.map_key;
      mp.query_fp = query_fp_;
      mp.s = s;
      mp.policy = static_cast<int>(opt_.policy);
      mp.epoch = epoch_;
      mp.ext_keys = &probe.keys;
      MemoProbeStats cache_stats;
      e = memo_->Find(mp, gen_, &cache_stats);
      memo_stats_.sig_collisions += cache_stats.sig_collisions;
    }
    if (e != nullptr) ++memo_stats_.hits;
    return e;
  }

  // Called only after FindEntry missed for the same probe, and the
  // recursion in between stores strict subsets of s only, so the local
  // memo never already holds this full key.
  void StoreEntry(APlan* p, RelSet s, const Probe& probe, double cost) {
    if (truncated_) return;
    const EnumeratorBudget& b = opt_.budget;
    if (b.max_memo_entries > 0 &&
        stats_.cache_entries >= b.max_memo_entries) {
      // Memo full: keep searching without caching this subplan. The search
      // stays exhaustive (soft trigger), it just loses reuse opportunities.
      Trip(BudgetTrigger::kMemoEntries, /*hard=*/false);
      return;
    }
    auto payload = BuildPayload(p, s, probe, cost);
    local_memo_[probe.map_key].push_back(payload);
    ++stats_.cache_entries;
    if (memo_ != nullptr) memo_->Publish(probe.map_key, payload, gen_);
  }

  std::shared_ptr<const MemoPayload> BuildPayload(APlan* p, RelSet s,
                                                  const Probe& probe,
                                                  double cost) {
    const Plan* sub = SubtreeOf(p->root.get(), s);
    auto pl = std::make_shared<MemoPayload>();
    pl->query_fp = query_fp_;
    pl->s = s;
    pl->policy = static_cast<int>(opt_.policy);
    pl->epoch = epoch_;
    pl->ext_keys = probe.keys;
    pl->subtree = sub->Clone();
    int64_t subtree_nodes = CountNodes(pl->subtree.get());
    stats_.cloned_nodes += subtree_nodes;
    pl->cost = cost;
    const PredNameInterner& interner = p->ctx.Interner();
    std::vector<int> ids = JoinPredIdsOf(sub, &p->ctx);
    for (const DEdge& e : p->ctx.dedges) {
      if (!Contains(ids, e.src_pred)) continue;
      MemoDEdge d;
      d.src_pred = interner.NameOf(e.src_pred);
      d.label_a = interner.NameOf(e.label_a);
      d.label_b = interner.NameOf(e.label_b);
      d.vnode = e.vnode;
      pl->dedges.push_back(std::move(d));
    }
    pl->next_vnode = p->ctx.next_vnode;
    int64_t bytes =
        static_cast<int64_t>(sizeof(MemoPayload)) + subtree_nodes * 160;
    for (const MemoExtKey& k : pl->ext_keys) {
      bytes += static_cast<int64_t>(sizeof(MemoExtKey) + k.src.size() +
                                    k.a.size() + k.b.size());
    }
    for (const MemoDEdge& d : pl->dedges) {
      bytes += static_cast<int64_t>(sizeof(MemoDEdge) + d.src_pred.size() +
                                    d.label_a.size() + d.label_b.size());
    }
    pl->bytes = bytes;
    return pl;
  }

  void Graft(APlan* p, RelSet s, const MemoPayload& entry) {
    Plan* dst = SubtreeOf(p->root.get(), s);
    // Drop dependency edges owned by the replaced subplan.
    std::vector<int> replaced = JoinPredIdsOf(dst, &p->ctx);
    std::vector<DEdge> kept;
    for (const DEdge& e : p->ctx.dedges) {
      if (!Contains(replaced, e.src_pred)) kept.push_back(e);
    }
    // Graft a clone with compensation-group ids remapped into p's id space,
    // and import the graft's dependency edges. Entry d-edges carry names
    // (a cached entry's producer and its interner are gone); re-intern
    // them here.
    PlanPtr graft = entry.subtree->Clone();
    stats_.cloned_nodes += CountNodes(graft.get());
    int offset = p->ctx.next_vnode;
    RemapVnodes(graft.get(), offset);
    PredNameInterner& interner = p->ctx.Interner();
    for (const MemoDEdge& moved : entry.dedges) {
      DEdge e;
      e.src_pred = interner.InternName(moved.src_pred);
      e.label_a = interner.InternName(moved.label_a);
      e.label_b = interner.InternName(moved.label_b);
      e.vnode = moved.vnode >= 0 ? moved.vnode + offset : moved.vnode;
      kept.push_back(e);
    }
    p->ctx.next_vnode += entry.next_vnode;
    p->ctx.dedges = std::move(kept);
    PlanPtr* slot = FindSlot(p->root, dst);
    ECA_CHECK(slot != nullptr);
    *slot = std::move(graft);
  }

  const CostModel* cost_;
  const EnumeratorOptions& opt_;
  SharedMemo* memo_;  // the plan cache; null without one
  int64_t deadline_ms_ = 0;
  bool stop_ = false;       // a hard trigger fired
  bool truncated_ = false;  // a trigger other than the memo cap fired
  uint64_t query_fp_ = 0;
  uint64_t epoch_ = 0;
  uint64_t gen_ = 0;
  EnumeratorStats stats_;
  MemoProbeStats memo_stats_;
  // The local memo: everything this search stored. Collisions on the
  // 64-bit index land in one bucket and are told apart by the stored full
  // key. Payloads are shared with the plan cache.
  std::unordered_map<uint64_t,
                     std::vector<std::shared_ptr<const MemoPayload>>>
      local_memo_;
};

bool Search::GenerateSubplan(APlan* p, const std::optional<NodePath>& i_path,
                             RelSet s) {
  if (Exhausted()) return false;
  ++stats_.subplan_calls;
  if (s.Count() <= 1) {
    // Best access path: a scan of the base relation (the only access path
    // in this engine; bestAccess[] hook of Algorithm 1).
    return true;
  }

  Probe probe;
  if (opt_.reuse_subplans) {
    probe = MakeProbe(p, s);
    if (const MemoPayload* entry = FindEntry(probe, s)) {
      ++stats_.reuses;
      Graft(p, s, *entry);
      return true;
    }
  }

  std::vector<JoinablePair> pairs = JoinablePairs(p->root.get(), s);
  if (pairs.empty()) return false;
  // Record each pair's node path up front: the node pointers die with the
  // first snapshot restore, the paths stay valid (restored trees are
  // structurally identical).
  std::vector<NodePath> pair_paths(pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    bool found = PathTo(p->root.get(), pairs[k].node, &pair_paths[k]);
    ECA_CHECK(found);
  }

  // Clone-light state management. Every mutation made while positioning a
  // join for pair k — the SwapUp chain and both recursions — stays inside
  // the child slot of the i node that contains pair k's join (SwapUp only
  // rewrites at and below the rising join's parent, which sits strictly
  // below i until the chain terminates). So instead of deep-copying the
  // whole plan per pair like the seed enumerator, we snapshot just that
  // slot's subtree (lazily, per side) and restore it before the next pair.
  // Slot keys: 0/1 = left/right child slot of the i node, 2 = the plan
  // root (top-level calls, and the conservative fallback when a pair's
  // join is not under the i node — the swap chain will fail for those, but
  // it may still canonicalize nodes it touches).
  auto slot_key_of = [&](size_t k) -> int {
    if (!i_path.has_value()) return 2;
    const NodePath& ip = *i_path;
    if (pair_paths[k].size() > ip.size() &&
        std::equal(ip.begin(), ip.end(), pair_paths[k].begin())) {
      return pair_paths[k][ip.size()] == 0 ? 0 : 1;
    }
    return 2;
  };
  auto slot_of = [&](int key) -> PlanPtr* {
    if (key == 2) return &p->root;
    Plan* i_node = ResolvePath(p->root.get(), *i_path);
    ECA_CHECK(i_node != nullptr && i_node->is_join());
    return key == 0 ? &i_node->mutable_left() : &i_node->mutable_right();
  };

  PlanPtr snapshots[3];
  RewriteContext saved_ctx = p->ctx;
  int dirty_key = -1;

  PlanPtr best_subtree;
  RewriteContext best_ctx;
  int best_key = -1;
  double best_cost = kInf;

  for (size_t k = 0; k < pairs.size(); ++k) {
    if (Exhausted()) break;
    if (FaultInjector::ShouldFail(FaultPoint::kAllocation)) {
      // Simulated clone-allocation failure: stop expanding this search
      // branch and settle for the best plan found so far.
      Trip(BudgetTrigger::kAllocationFault, /*hard=*/true);
      break;
    }
    ++stats_.pairs_considered;
    if (dirty_key >= 0) {
      PlanPtr* dirty_slot = slot_of(dirty_key);
      *dirty_slot = snapshots[dirty_key]->Clone();
      stats_.cloned_nodes += CountNodes(dirty_slot->get());
      p->ctx = saved_ctx;
      dirty_key = -1;
    }
    const int key = slot_key_of(k);
    PlanPtr* slot = slot_of(key);
    if (snapshots[key] == nullptr) {
      snapshots[key] = (*slot)->Clone();
      stats_.cloned_nodes += CountNodes(snapshots[key].get());
    }
    // dirty_key is set lazily, at the first mutation this pair commits (a
    // SwapUp that reports a tree change, or a successful recursion). Pairs
    // whose swap chain fails without touching the tree — the common way a
    // decomposition dies — then cost no restore clone at the next pair.
    // A failed recursion needs no mark either: GenerateSubplan's failure
    // contract restores content exactly, so the slot is as the pair found
    // it.

    const JoinablePair& pair = pairs[k];
    Plan* j = ResolvePath(p->root.get(), pair_paths[k]);
    Plan* i_node =
        i_path.has_value() ? ResolvePath(p->root.get(), *i_path) : nullptr;
    // Move j upward until its parent join is i (Algorithm 2, steps 6-7).
    bool feasible = true;
    int chain = 0;
    while (ParentJoin(p->root.get(), j) != i_node) {
      if (Exhausted()) {
        feasible = false;
        break;
      }
      ++stats_.swaps_attempted;
      Plan* risen = nullptr;
      if (FaultInjector::ShouldFail(FaultPoint::kRewriteRule)) {
        // Simulated rewrite-rule failure: the swap is reported infeasible
        // (soft trigger — other decompositions may still complete).
        Trip(BudgetTrigger::kRewriteFault, /*hard=*/false);
      } else {
        bool sw_changed = false;
        risen = SwapUp(p->root, j, &p->ctx, &sw_changed);
        if (sw_changed) dirty_key = key;
      }
      if (risen == nullptr) {
        ++stats_.swaps_failed;
        feasible = false;
        break;
      }
      j = risen;
      if (++chain > opt_.max_swap_chain) {
        ++stats_.swap_chain_guard_trips;
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;

    // Recurse into the two sides (steps 8-9). j's child subtrees cover
    // pair.s1 and pair.s2 (in some orientation).
    NodePath j_path;
    if (!PathTo(p->root.get(), j, &j_path)) continue;
    RelSet left_set = j->left()->leaves();
    RelSet first = left_set == pair.s1 || left_set.ContainsAll(pair.s1)
                       ? pair.s1
                       : pair.s2;
    RelSet second = first == pair.s1 ? pair.s2 : pair.s1;

    if (!GenerateSubplan(p, j_path, first)) continue;
    dirty_key = key;  // a successful recursion rewrote the slot's subtree
    if (!GenerateSubplan(p, j_path, second)) continue;

    double cost = SubtreeCost(*p, s);
    if (!i_path.has_value()) ++stats_.plans_completed;
    if (cost < best_cost) {
      best_cost = cost;
      best_key = key;
      // Move the winner out instead of cloning it: the slot is dirty and
      // will be restored from its snapshot before the next pair anyway (or
      // refilled by the install below when this pair is the last).
      best_subtree = std::move(*slot_of(key));
      best_ctx = p->ctx;
    }
  }

  if (best_subtree != nullptr) {
    if (dirty_key >= 0 && dirty_key != best_key && best_key != 2) {
      *slot_of(dirty_key) = std::move(snapshots[dirty_key]);
    }
    *slot_of(best_key) = std::move(best_subtree);
    p->ctx = std::move(best_ctx);
    if (opt_.reuse_subplans) StoreEntry(p, s, probe, best_cost);
    return true;
  }
  if (dirty_key >= 0) {
    PlanPtr* dirty_slot = slot_of(dirty_key);
    *dirty_slot = std::move(snapshots[dirty_key]);
    p->ctx = std::move(saved_ctx);
  }
  return false;
}

}  // namespace

const char* BudgetTriggerName(BudgetTrigger trigger) {
  switch (trigger) {
    case BudgetTrigger::kNone:
      return "none";
    case BudgetTrigger::kEnumeratedNodes:
      return "max_enumerated_nodes";
    case BudgetTrigger::kMemoEntries:
      return "max_memo_entries";
    case BudgetTrigger::kWallClock:
      return "wall_clock_ms";
    case BudgetTrigger::kInjectedFault:
      return "injected-budget-fault";
    case BudgetTrigger::kAllocationFault:
      return "injected-allocation-fault";
    case BudgetTrigger::kRewriteFault:
      return "injected-rewrite-fault";
    case BudgetTrigger::kSizesOnlyFallback:
      return "sizes-only-fallback";
  }
  return "unknown";
}

namespace {

// One registry delta per Optimize() call, so a snapshot diff around a
// single call reproduces Result::stats (asserted by metrics_test).
void PublishEnumeratorStats(const EnumeratorStats& s) {
  auto& reg = MetricsRegistry::Global();
  static Counter* const subplan_calls = reg.counter("enum.subplan_calls");
  static Counter* const pairs = reg.counter("enum.pairs_considered");
  static Counter* const swaps = reg.counter("enum.swaps_attempted");
  static Counter* const swaps_failed = reg.counter("enum.swaps_failed");
  static Counter* const completed = reg.counter("enum.plans_completed");
  static Counter* const memo_hits = reg.counter("enum.memo_hits");
  static Counter* const memo_entries = reg.counter("enum.memo_entries");
  static Counter* const cost_evals = reg.counter("enum.cost_evals");
  static Counter* const cloned = reg.counter("enum.cloned_nodes");
  static Counter* const guard = reg.counter("enum.swap_chain_guard_trips");
  static Counter* const collisions = reg.counter("enum.sig_collisions");
  static Counter* const degraded = reg.counter("enum.degraded_runs");
  subplan_calls->Add(s.subplan_calls);
  pairs->Add(s.pairs_considered);
  swaps->Add(s.swaps_attempted);
  swaps_failed->Add(s.swaps_failed);
  completed->Add(s.plans_completed);
  memo_hits->Add(s.reuses);
  memo_entries->Add(s.cache_entries);
  cost_evals->Add(s.cost_evals);
  cloned->Add(s.cloned_nodes);
  guard->Add(s.swap_chain_guard_trips);
  collisions->Add(s.sig_collisions);
  if (s.degraded) degraded->Increment();
}

}  // namespace

TopDownEnumerator::Result TopDownEnumerator::Optimize(const Plan& query) {
  TraceSpan span("enumerate");
  Result result = OptimizeImpl(query);
  PublishEnumeratorStats(result.stats);
  if (span.active()) {
    span.AppendArg("subplan_calls",
                   static_cast<long long>(result.stats.subplan_calls));
    span.AppendArg("memo_hits", static_cast<long long>(result.stats.reuses));
    if (result.stats.degraded) {
      span.AppendArg("degraded", BudgetTriggerName(result.stats.trigger));
    }
  }
  return result;
}

TopDownEnumerator::Result TopDownEnumerator::OptimizeImpl(const Plan& query) {
  APlan init;
  init.root = query.Clone();
  SimplifyOuterJoins(init.root.get());
  init.ctx.policy = options_.policy;

  // The unsafe_ignore_dedges ablation keeps its unsound entries local: they
  // must never reach a cache that outlives the demonstration.
  SharedMemo* cache =
      options_.unsafe_ignore_dedges ? nullptr : options_.shared_memo;
  Search search(cost_, options_, cache, *init.root);
  const bool found = search.GenerateSubplan(
      &init, std::nullopt, init.root->leaves());

  Result result;
  result.stats = search.Finish();
  if (found) {
    result.plan = std::move(init.root);
  } else {
    // No complete plan: either no feasible reordering exists at the top
    // (fully blocked swaps) or the budget ran out before one was found.
    // Fall back to the query as written — always executable and trivially
    // correct.
    result.stats.no_complete_plan = true;
    result.plan = query.Clone();
  }
  result.cost = cost_->Cost(*result.plan);
  return result;
}

}  // namespace eca
