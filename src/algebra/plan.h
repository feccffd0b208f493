#ifndef ECA_ALGEBRA_PLAN_H_
#define ECA_ALGEBRA_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/comp_op.h"
#include "algebra/join_op.h"
#include "catalog/schema.h"
#include "common/rel_set.h"
#include "expr/expr.h"

namespace eca {

class Plan;
using PlanPtr = std::unique_ptr<Plan>;

// A logical query plan node: a base-relation leaf, a binary join, or a unary
// compensation/projection operator. Plans are mutable trees owned through
// unique_ptr; Clone() produces deep copies.
class Plan {
 public:
  enum class Kind { kLeaf, kJoin, kComp };

  static PlanPtr Leaf(int rel_id);
  static PlanPtr Join(JoinOp op, PredRef pred, PlanPtr left, PlanPtr right);
  static PlanPtr Comp(CompOp comp, PlanPtr child);

  Kind kind() const { return kind_; }
  bool is_leaf() const { return kind_ == Kind::kLeaf; }
  bool is_join() const { return kind_ == Kind::kJoin; }
  bool is_comp() const { return kind_ == Kind::kComp; }

  // Leaf accessors.
  int rel_id() const { return rel_id_; }

  // Join accessors.
  JoinOp op() const { return op_; }
  void set_op(JoinOp op) { op_ = op; }
  const PredRef& pred() const { return pred_; }
  void set_pred(PredRef p) { pred_ = std::move(p); }
  Plan* left() { return left_.get(); }
  const Plan* left() const { return left_.get(); }
  Plan* right() { return right_.get(); }
  const Plan* right() const { return right_.get(); }
  PlanPtr& mutable_left() { return left_; }
  PlanPtr& mutable_right() { return right_; }

  // Comp accessors (the child is stored in the left slot).
  const CompOp& comp() const { return comp_; }
  CompOp& mutable_comp() { return comp_; }
  Plan* child() { return left_.get(); }
  const Plan* child() const { return left_.get(); }
  PlanPtr& mutable_child() { return left_; }

  // The set of base relations appearing as leaves of this subtree
  // (the enumerator's S; includes relations consumed by semi/antijoins).
  RelSet leaves() const;

  // The set of relations whose attributes are visible in the output
  // (semi/antijoins hide their pruning side, kProject narrows).
  RelSet output_rels() const;

  PlanPtr Clone() const;

  // Multi-line indented rendering, compensation operators inline.
  std::string ToString() const;
  // Single-line rendering, e.g. "pi{R0}(gamma{R1}((R0 loj[p01] R1)))".
  std::string ToInlineString() const;

 private:
  Plan() = default;
  void AppendTo(std::string* out, int indent) const;

  Kind kind_ = Kind::kLeaf;
  int rel_id_ = -1;
  JoinOp op_ = JoinOp::kInner;
  PredRef pred_;
  CompOp comp_;
  PlanPtr left_;   // join left child, or comp child
  PlanPtr right_;  // join right child
};

// Output schema of `plan` given the base-relation schemas (indexed by
// rel_id).
Schema PlanOutputSchema(const Plan& plan, const std::vector<Schema>& base);

// Structural equality (same shape, ops, predicates by pointer-or-label,
// comp parameters).
bool PlanEquals(const Plan& a, const Plan& b);

// Order-sensitive 64-bit structural fingerprint of the whole tree: node
// kinds, leaf relation ids, join operators, predicate structure
// (StructuralFingerprint — labels ignored) and compensation parameters
// including the group vnode. Two plans with equal fingerprints are
// structurally identical modulo 64-bit collisions; the plan cache scopes
// every entry by the fingerprint of the whole simplified query.
uint64_t PlanFingerprint(const Plan& plan);

// Returns the unique_ptr slot that owns `node` within `root`, or nullptr if
// `node` is not in the tree. (`root_slot` must own the tree root.)
PlanPtr* FindSlot(PlanPtr& root_slot, const Plan* node);

// Returns the closest ancestor *join* node of `node` in `root` (skipping
// comp nodes), or nullptr if none.
Plan* ParentJoin(Plan* root, const Plan* node);

// Immediate parent node (join or comp), or nullptr if `node` is the root.
Plan* ParentNode(Plan* root, const Plan* node);

// Collects every join node of the subtree in preorder.
void CollectJoins(Plan* root, std::vector<Plan*>* out);

// Normalizes right-variant joins (roj/rsj/raj) to their left variants by
// swapping children, recursively. The resulting plan is semantically equal.
void NormalizeRightVariants(Plan* plan);

}  // namespace eca

#endif  // ECA_ALGEBRA_PLAN_H_
