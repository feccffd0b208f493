// ExecuteNaive: the reference interpreter. Every operator is written from
// its definition (paper Section 2.2, Equations 7 and 8) over whole
// relations, with none of the executor's morsel, fused-chain, hash,
// sort-merge or spill machinery, so a bug there cannot cancel out of a
// differential against this engine.

#include "exec/executor.h"
#include "types/tri_bool.h"

namespace eca {

namespace {

bool AllNull(const Tuple& t, const std::vector<int>& cols) {
  for (int c : cols) {
    if (!t[static_cast<size_t>(c)].is_null()) return false;
  }
  return true;
}

Relation NaiveComp(const CompOp& op, Relation in) {
  const Schema& schema = in.schema();
  const std::vector<int> a = schema.ColumnsOf(op.attrs);
  switch (op.kind) {
    case CompOp::Kind::kLambda:
      // lambda_{p,A}(R): NULL the A attributes of every tuple on which p
      // does not evaluate to true.
      for (Tuple& t : in.mutable_rows()) {
        if (IsTrue(op.pred->Eval(schema, t))) continue;
        for (int c : a) {
          t[static_cast<size_t>(c)] = Value::Null(schema.column(c).type);
        }
      }
      return in;
    case CompOp::Kind::kBeta:
      return EvalBetaNaive(in);
    case CompOp::Kind::kGamma: {
      // Eq. 7: gamma_A(R) keeps the tuples whose A attributes are all NULL.
      Relation out(schema);
      for (const Tuple& t : in.rows()) {
        if (AllNull(t, a)) out.Add(t);
      }
      return out;
    }
    case CompOp::Kind::kGammaStar: {
      // Eq. 8: gamma*_{A(B)}(R) = beta(gamma_A(R) outer-union
      // pi_B(R - gamma_A(R))); the union pads the projected tuples back
      // to R's schema with NULLs.
      Relation selected(schema), rest(schema);
      for (const Tuple& t : in.rows()) {
        (AllNull(t, a) ? selected : rest).Add(t);
      }
      return EvalBetaNaive(
          EvalOuterUnion(selected, EvalProject(op.keep, rest)));
    }
    case CompOp::Kind::kProject:
      return EvalProject(op.attrs, in);
  }
  return in;
}

}  // namespace

Relation ExecuteNaive(const Plan& plan, const Database& db) {
  switch (plan.kind()) {
    case Plan::Kind::kLeaf:
      return db.table(plan.rel_id());
    case Plan::Kind::kJoin:
      return EvalJoinNaive(plan.op(), plan.pred(),
                           ExecuteNaive(*plan.left(), db),
                           ExecuteNaive(*plan.right(), db));
    case Plan::Kind::kComp:
      return NaiveComp(plan.comp(), ExecuteNaive(*plan.child(), db));
  }
  return Relation();
}

}  // namespace eca
