#include "algebra/plan.h"

#include "common/str_util.h"

namespace eca {

std::string CompOp::ToString() const {
  switch (kind) {
    case Kind::kLambda:
      return "lambda[" + (pred ? pred->DisplayName() : "?") + "," +
             attrs.ToString() + "]";
    case Kind::kBeta:
      return "beta";
    case Kind::kGamma:
      return "gamma" + attrs.ToString();
    case Kind::kGammaStar:
      return "gamma*[" + attrs.ToString() + " keep " + keep.ToString() + "]";
    case Kind::kProject:
      return "pi" + attrs.ToString();
  }
  return "?";
}

PlanPtr Plan::Leaf(int rel_id) {
  auto p = PlanPtr(new Plan());
  p->kind_ = Kind::kLeaf;
  p->rel_id_ = rel_id;
  return p;
}

PlanPtr Plan::Join(JoinOp op, PredRef pred, PlanPtr left, PlanPtr right) {
  ECA_CHECK(left != nullptr && right != nullptr);
  ECA_CHECK(pred != nullptr || op == JoinOp::kCross);
  auto p = PlanPtr(new Plan());
  p->kind_ = Kind::kJoin;
  p->op_ = op;
  p->pred_ = std::move(pred);
  p->left_ = std::move(left);
  p->right_ = std::move(right);
  return p;
}

PlanPtr Plan::Comp(CompOp comp, PlanPtr child) {
  ECA_CHECK(child != nullptr);
  auto p = PlanPtr(new Plan());
  p->kind_ = Kind::kComp;
  p->comp_ = std::move(comp);
  p->left_ = std::move(child);
  return p;
}

RelSet Plan::leaves() const {
  switch (kind_) {
    case Kind::kLeaf:
      return RelSet::Single(rel_id_);
    case Kind::kJoin:
      return left_->leaves().Union(right_->leaves());
    case Kind::kComp:
      return left_->leaves();
  }
  return RelSet();
}

RelSet Plan::output_rels() const {
  switch (kind_) {
    case Kind::kLeaf:
      return RelSet::Single(rel_id_);
    case Kind::kJoin: {
      switch (op_) {
        case JoinOp::kLeftSemi:
        case JoinOp::kLeftAnti:
          return left_->output_rels();
        case JoinOp::kRightSemi:
        case JoinOp::kRightAnti:
          return right_->output_rels();
        default:
          return left_->output_rels().Union(right_->output_rels());
      }
    }
    case Kind::kComp:
      if (comp_.kind == CompOp::Kind::kProject) {
        return left_->output_rels().Intersect(comp_.attrs);
      }
      return left_->output_rels();
  }
  return RelSet();
}

PlanPtr Plan::Clone() const {
  auto p = PlanPtr(new Plan());
  p->kind_ = kind_;
  p->rel_id_ = rel_id_;
  p->op_ = op_;
  p->pred_ = pred_;
  p->comp_ = comp_;
  if (left_) p->left_ = left_->Clone();
  if (right_) p->right_ = right_->Clone();
  return p;
}

void Plan::AppendTo(std::string* out, int indent) const {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  switch (kind_) {
    case Kind::kLeaf:
      *out += pad + "R" + std::to_string(rel_id_) + "\n";
      break;
    case Kind::kJoin:
      *out += pad + std::string(JoinOpName(op_)) +
              (pred_ ? "[" + pred_->DisplayName() + "]" : "") + "\n";
      left_->AppendTo(out, indent + 1);
      right_->AppendTo(out, indent + 1);
      break;
    case Kind::kComp:
      *out += pad + comp_.ToString() + "\n";
      left_->AppendTo(out, indent + 1);
      break;
  }
}

std::string Plan::ToString() const {
  std::string out;
  AppendTo(&out, 0);
  return out;
}

std::string Plan::ToInlineString() const {
  switch (kind_) {
    case Kind::kLeaf:
      return "R" + std::to_string(rel_id_);
    case Kind::kJoin:
      return "(" + left_->ToInlineString() + " " + JoinOpName(op_) +
             (pred_ ? "[" + pred_->DisplayName() + "]" : "") + " " +
             right_->ToInlineString() + ")";
    case Kind::kComp:
      return comp_.ToString() + "(" + left_->ToInlineString() + ")";
  }
  return "?";
}

Schema PlanOutputSchema(const Plan& plan, const std::vector<Schema>& base) {
  switch (plan.kind()) {
    case Plan::Kind::kLeaf:
      ECA_CHECK(plan.rel_id() >= 0 &&
                plan.rel_id() < static_cast<int>(base.size()));
      return base[static_cast<size_t>(plan.rel_id())];
    case Plan::Kind::kJoin: {
      Schema l = PlanOutputSchema(*plan.left(), base);
      Schema r = PlanOutputSchema(*plan.right(), base);
      switch (plan.op()) {
        case JoinOp::kLeftSemi:
        case JoinOp::kLeftAnti:
          return l;
        case JoinOp::kRightSemi:
        case JoinOp::kRightAnti:
          return r;
        default:
          return l.Concat(r);
      }
    }
    case Plan::Kind::kComp: {
      Schema c = PlanOutputSchema(*plan.child(), base);
      if (plan.comp().kind == CompOp::Kind::kProject) {
        return c.Project(plan.comp().attrs);
      }
      return c;
    }
  }
  return Schema();
}

bool PlanEquals(const Plan& a, const Plan& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Plan::Kind::kLeaf:
      return a.rel_id() == b.rel_id();
    case Plan::Kind::kJoin: {
      if (a.op() != b.op()) return false;
      const bool preds_equal =
          (a.pred() == b.pred()) ||
          (a.pred() && b.pred() && a.pred()->ToString() == b.pred()->ToString());
      if (!preds_equal) return false;
      return PlanEquals(*a.left(), *b.left()) &&
             PlanEquals(*a.right(), *b.right());
    }
    case Plan::Kind::kComp: {
      const CompOp& ca = a.comp();
      const CompOp& cb = b.comp();
      if (ca.kind != cb.kind || ca.attrs != cb.attrs || ca.keep != cb.keep) {
        return false;
      }
      const bool preds_equal =
          (ca.pred == cb.pred) ||
          (ca.pred && cb.pred && ca.pred->ToString() == cb.pred->ToString());
      if (!preds_equal) return false;
      return PlanEquals(*a.child(), *b.child());
    }
  }
  return false;
}

namespace {

// Same mixing recipe as expr.cc's StructuralFingerprint.
uint64_t FpMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 1099511628211ULL;
}

uint64_t PredFp(const PredRef& pred) {
  if (pred == nullptr) return 0x63726f7373ULL;  // "cross"
  return StructuralFingerprint(*pred);
}

}  // namespace

uint64_t PlanFingerprint(const Plan& plan) {
  uint64_t h = FpMix(1469598103934665603ULL,
                     static_cast<uint64_t>(plan.kind()) + 0xb5ULL);
  switch (plan.kind()) {
    case Plan::Kind::kLeaf:
      return FpMix(h, static_cast<uint64_t>(plan.rel_id()));
    case Plan::Kind::kJoin:
      h = FpMix(h, static_cast<uint64_t>(plan.op()));
      h = FpMix(h, PredFp(plan.pred()));
      h = FpMix(h, PlanFingerprint(*plan.left()));
      return FpMix(h, PlanFingerprint(*plan.right()));
    case Plan::Kind::kComp: {
      const CompOp& c = plan.comp();
      h = FpMix(h, static_cast<uint64_t>(c.kind));
      h = FpMix(h, PredFp(c.pred));
      h = FpMix(h, c.attrs.bits());
      h = FpMix(h, c.keep.bits());
      h = FpMix(h, static_cast<uint64_t>(c.vnode) + 3);
      return FpMix(h, PlanFingerprint(*plan.child()));
    }
  }
  return h;
}

PlanPtr* FindSlot(PlanPtr& root_slot, const Plan* node) {
  if (root_slot.get() == node) return &root_slot;
  Plan* p = root_slot.get();
  if (p == nullptr) return nullptr;
  switch (p->kind()) {
    case Plan::Kind::kLeaf:
      return nullptr;
    case Plan::Kind::kJoin: {
      if (PlanPtr* s = FindSlot(p->mutable_left(), node)) return s;
      return FindSlot(p->mutable_right(), node);
    }
    case Plan::Kind::kComp:
      return FindSlot(p->mutable_child(), node);
  }
  return nullptr;
}

namespace {

// Finds the immediate parent of `node` under `cur`; nullptr if absent.
Plan* FindParentImpl(Plan* cur, const Plan* node) {
  switch (cur->kind()) {
    case Plan::Kind::kLeaf:
      return nullptr;
    case Plan::Kind::kJoin: {
      if (cur->left() == node || cur->right() == node) return cur;
      if (Plan* p = FindParentImpl(cur->left(), node)) return p;
      return FindParentImpl(cur->right(), node);
    }
    case Plan::Kind::kComp: {
      if (cur->child() == node) return cur;
      return FindParentImpl(cur->child(), node);
    }
  }
  return nullptr;
}

}  // namespace

Plan* ParentNode(Plan* root, const Plan* node) {
  if (root == node) return nullptr;
  return FindParentImpl(root, node);
}

Plan* ParentJoin(Plan* root, const Plan* node) {
  Plan* p = ParentNode(root, node);
  while (p != nullptr && !p->is_join()) {
    p = ParentNode(root, p);
  }
  return p;
}

void CollectJoins(Plan* root, std::vector<Plan*>* out) {
  switch (root->kind()) {
    case Plan::Kind::kLeaf:
      return;
    case Plan::Kind::kJoin:
      out->push_back(root);
      CollectJoins(root->left(), out);
      CollectJoins(root->right(), out);
      return;
    case Plan::Kind::kComp:
      CollectJoins(root->child(), out);
      return;
  }
}

void NormalizeRightVariants(Plan* plan) {
  switch (plan->kind()) {
    case Plan::Kind::kLeaf:
      return;
    case Plan::Kind::kJoin:
      if (IsRightVariant(plan->op())) {
        plan->set_op(Mirror(plan->op()));
        std::swap(plan->mutable_left(), plan->mutable_right());
      }
      NormalizeRightVariants(plan->left());
      NormalizeRightVariants(plan->right());
      return;
    case Plan::Kind::kComp:
      NormalizeRightVariants(plan->child());
      return;
  }
}

}  // namespace eca
