#include "enum_reference.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "enumerate/subtree.h"
#include "rewrite/oj_simplify.h"

namespace eca {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
  return 0;
}

// Interned ids of the join predicates inside `sub`.
void CollectJoinPredIds(const Plan* sub, PredNameInterner* interner,
                        std::set<int>* out) {
  std::vector<Plan*> joins;
  CollectJoins(const_cast<Plan*>(sub), &joins);
  for (const Plan* j : joins) out->insert(interner->Intern(j->pred()));
}

void CollectVnodes(const Plan* node, std::set<int>* out) {
  if (node == nullptr) return;
  switch (node->kind()) {
    case Plan::Kind::kLeaf:
      return;
    case Plan::Kind::kJoin:
      CollectVnodes(node->left(), out);
      CollectVnodes(node->right(), out);
      return;
    case Plan::Kind::kComp:
      if (node->comp().vnode >= 0) out->insert(node->comp().vnode);
      CollectVnodes(node->child(), out);
      return;
  }
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

// The d-edge equivalence key of the seed enumerator (source + rule labels;
// the vnode identity is deliberately excluded, Theorem 5.4).
struct RefExtKey {
  int src = 0;
  int a = 0;
  int b = 0;
  bool operator==(const RefExtKey& o) const {
    return src == o.src && a == o.a && b == o.b;
  }
  bool operator<(const RefExtKey& o) const {
    if (src != o.src) return src < o.src;
    if (a != o.a) return a < o.a;
    return b < o.b;
  }
};

struct RefAPlan {
  PlanPtr root;
  RewriteContext ctx;
};

struct RefCacheEntry {
  RefAPlan plan;
  double cost = 0;
  std::vector<RefExtKey> ext_keys;
};

// Faithful port of the seed search loop: every decomposition deep-copies
// the whole annotated plan, relocates the pair's join in the copy by
// re-scanning its joinable pairs, and recurses by value. The memo maps a
// relation set to a list of (full external-key vector, cached whole plan)
// entries, linearly scanned. One thread.
class RefSearch {
 public:
  RefSearch(const CostModel* cost, bool reuse, int64_t max_calls,
            ReferenceStats* stats)
      : cost_(cost), reuse_(reuse), max_calls_(max_calls), stats_(stats) {}

  RefAPlan Clone(const RefAPlan& p) {
    RefAPlan c;
    c.root = p.root != nullptr ? p.root->Clone() : nullptr;
    c.ctx = p.ctx;
    stats_->cloned_nodes += CountNodes(c.root.get());
    return c;
  }

  double SubtreeCost(const RefAPlan& p, RelSet s) {
    ++stats_->cost_evals;
    return cost_->Cost(*SubtreeOf(p.root.get(), s));
  }

  std::vector<RefExtKey> ExtDEdgeKeys(RefAPlan* p, RelSet s) {
    const Plan* sub = SubtreeOf(p->root.get(), s);
    PredNameInterner& interner = p->ctx.Interner();
    std::set<int> inside_ids;
    CollectJoinPredIds(sub, &interner, &inside_ids);
    std::set<int> inside_vnodes, all_vnodes;
    CollectVnodes(sub, &inside_vnodes);
    CollectVnodes(p->root.get(), &all_vnodes);
    std::vector<RefExtKey> keys;
    for (const DEdge& e : p->ctx.dedges) {
      if (inside_ids.find(e.src_pred) == inside_ids.end()) continue;
      bool external;
      if (e.vnode == DEdge::kContextVnode) {
        external = inside_ids.find(e.label_b) == inside_ids.end();
      } else {
        bool in = inside_vnodes.count(e.vnode) > 0;
        bool out_exists = all_vnodes.count(e.vnode) > 0 && !in;
        external = !in || out_exists;
      }
      if (external) keys.push_back({e.src_pred, e.label_a, e.label_b});
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  const RefAPlan* GetBestPlan(RelSet s,
                              const std::vector<RefExtKey>& ext_keys) const {
    auto it = cache_.find(s.bits());
    if (it == cache_.end()) return nullptr;
    for (const RefCacheEntry& entry : it->second) {
      if (entry.ext_keys == ext_keys) return &entry.plan;
    }
    return nullptr;
  }

  void UpdateBestPlan(const RefAPlan& p, RelSet s,
                      const std::vector<RefExtKey>& ext_keys) {
    double cost = SubtreeCost(p, s);
    std::vector<RefCacheEntry>& entries = cache_[s.bits()];
    for (RefCacheEntry& entry : entries) {
      if (entry.ext_keys == ext_keys) {
        if (cost < entry.cost) {
          entry.plan = Clone(p);
          entry.cost = cost;
        }
        return;
      }
    }
    entries.push_back({Clone(p), cost, ext_keys});
  }

  void GraftSubplan(RefAPlan* p, RelSet s, const RefAPlan& best) {
    Plan* dst_sub = SubtreeOf(p->root.get(), s);
    const Plan* src_sub = SubtreeOf(best.root.get(), s);
    PredNameInterner& interner = p->ctx.Interner();
    std::set<int> replaced_ids;
    CollectJoinPredIds(dst_sub, &interner, &replaced_ids);
    std::vector<DEdge> kept;
    for (const DEdge& e : p->ctx.dedges) {
      if (replaced_ids.find(e.src_pred) == replaced_ids.end()) {
        kept.push_back(e);
      }
    }
    PlanPtr graft = src_sub->Clone();
    stats_->cloned_nodes += CountNodes(graft.get());
    int offset = p->ctx.next_vnode;
    RemapVnodes(graft.get(), offset);
    std::set<int> graft_ids;
    CollectJoinPredIds(graft.get(), &interner, &graft_ids);
    for (const DEdge& e : best.ctx.dedges) {
      if (graft_ids.find(e.src_pred) == graft_ids.end()) continue;
      DEdge moved = e;
      if (moved.vnode >= 0) moved.vnode += offset;
      kept.push_back(moved);
    }
    p->ctx.next_vnode += best.ctx.next_vnode;
    p->ctx.dedges = std::move(kept);
    PlanPtr* slot = FindSlot(p->root, dst_sub);
    ECA_CHECK(slot != nullptr);
    *slot = std::move(graft);
  }

  RefAPlan GenerateSubplan(RefAPlan p, const std::optional<NodePath>& i_path,
                           RelSet s) {
    if (max_calls_ > 0 && stats_->subplan_calls >= max_calls_) {
      stats_->call_capped = true;
      return RefAPlan{};  // out of budget: abandon this branch
    }
    ++stats_->subplan_calls;
    if (s.Count() <= 1) return p;

    std::vector<RefExtKey> my_ext_keys;
    if (reuse_) {
      my_ext_keys = ExtDEdgeKeys(&p, s);
      if (const RefAPlan* cached = GetBestPlan(s, my_ext_keys)) {
        ++stats_->reuses;
        GraftSubplan(&p, s, *cached);
        return p;
      }
    }

    RefAPlan best;
    double best_cost = kInf;

    std::vector<JoinablePair> pairs = JoinablePairs(p.root.get(), s);
    for (const JoinablePair& pair : pairs) {
      ++stats_->pairs_considered;
      RefAPlan work = Clone(p);
      std::vector<JoinablePair> clone_pairs =
          JoinablePairs(work.root.get(), s);
      Plan* j = nullptr;
      for (const JoinablePair& cp : clone_pairs) {
        if (cp.s1 == pair.s1 && cp.s2 == pair.s2) {
          j = cp.node;
          break;
        }
      }
      if (j == nullptr) continue;

      Plan* i_node =
          i_path.has_value() ? ResolvePath(work.root.get(), *i_path) : nullptr;
      bool feasible = true;
      int guard = 0;
      while (ParentJoin(work.root.get(), j) != i_node) {
        ++stats_->swaps_attempted;
        Plan* risen = SwapUp(work.root, j, &work.ctx);
        if (risen == nullptr) {
          feasible = false;
          break;
        }
        j = risen;
        if (++guard > 128) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;

      NodePath j_path;
      if (!PathTo(work.root.get(), j, &j_path)) continue;
      RelSet left_set = j->left()->leaves();
      RelSet first = left_set == pair.s1 || left_set.ContainsAll(pair.s1)
                         ? pair.s1
                         : pair.s2;
      RelSet second = first == pair.s1 ? pair.s2 : pair.s1;
      RefAPlan done1 = GenerateSubplan(std::move(work), j_path, first);
      if (done1.root == nullptr) continue;
      RefAPlan done2 = GenerateSubplan(std::move(done1), j_path, second);
      if (done2.root == nullptr) continue;

      double cost = SubtreeCost(done2, s);
      if (cost < best_cost) {
        best_cost = cost;
        best = std::move(done2);
      }
    }

    if (best.root != nullptr && reuse_) {
      UpdateBestPlan(best, s, my_ext_keys);
    }
    return best;
  }

 private:
  const CostModel* cost_;
  bool reuse_;
  int64_t max_calls_;
  ReferenceStats* stats_;
  std::unordered_map<uint64_t, std::vector<RefCacheEntry>> cache_;
};

}  // namespace

ReferenceEnumerator::Result ReferenceEnumerator::Optimize(const Plan& query) {
  Result result;
  RefSearch search(cost_, reuse_, max_calls_, &result.stats);

  RefAPlan init;
  init.root = query.Clone();
  result.stats.cloned_nodes += CountNodes(init.root.get());
  SimplifyOuterJoins(init.root.get());
  init.ctx.policy = policy_;
  // Force the interner into existence before the first clone: every clone
  // then shares it, so d-edge ids compare across plans exactly like the
  // seed's globally-consistent string keys did.
  init.ctx.Interner();

  RelSet all = init.root->leaves();
  RefAPlan best = search.GenerateSubplan(std::move(init), std::nullopt, all);

  if (best.root == nullptr) {
    result.plan = query.Clone();
    result.cost = cost_->Cost(*result.plan);
    return result;
  }
  result.plan = std::move(best.root);
  result.cost = cost_->Cost(*result.plan);
  return result;
}

}  // namespace eca
