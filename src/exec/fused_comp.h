#ifndef ECA_EXEC_FUSED_COMP_H_
#define ECA_EXEC_FUSED_COMP_H_

#include <vector>

#include "algebra/comp_op.h"
#include "catalog/schema.h"
#include "expr/expr.h"
#include "storage/relation.h"

namespace eca {

class ThreadPool;
class QueryContext;
struct ExecTuning;

// A compiled chain of row-local compensation steps fused into one
// per-chunk loop (docs/performance.md, "Vectorized executor"):
//
//   lambda_{p,A}   1:1 transform  (NULL out A's columns when p is false)
//   gamma_A        filter         (keep rows whose A columns are all NULL)
//   gamma*-modify  1:1 transform  (the scan half of Equation 8; the
//                                  best-match half, beta, is a pipeline
//                                  breaker and never fuses)
//
// All three are schema-preserving and row-local, so a stack of them
// applies in one pass over each morsel — or directly inside a hash-join
// probe loop as rows are emitted — without materializing any
// intermediate relation. Steps apply in pipeline order (deepest plan
// node first); a row dropped by a gamma filter skips the rest of the
// chain. Because every step is row-local and order-preserving, the
// result is the operators' definitions applied in turn (ExecuteNaive is
// the oracle) and byte-identical at any thread count. The chain is the
// only implementation of lambda, gamma and gamma*'s modify half; a single
// operator is a one-step chain.
class FusedCompChain {
 public:
  // Appends one step; called deepest-first by the executor's plan walk.
  void AddLambda(const PredRef& pred, RelSet attrs, const Schema& schema);
  void AddGamma(RelSet attrs, const Schema& schema);
  void AddGammaStarModify(RelSet attrs, RelSet keep, const Schema& schema);

  bool empty() const { return steps_.empty(); }
  int num_steps() const { return static_cast<int>(steps_.size()); }

  // Applies the chain to `t` in place; false when a gamma filter drops
  // the row. Thread-safe (const; all per-row state lives in `t`).
  bool Apply(Tuple* t) const { return ApplyFrom(0, t); }

  // Applies the chain to a copy of `in` in *out; false when a gamma filter
  // drops the row. The chain's leading gamma filters test `in` itself, so
  // a row they drop is never copied.
  bool ApplyCopy(const Tuple& in, Tuple* out) const;

 private:
  struct Step {
    enum class Kind { kLambdaMask, kGammaFilter, kGammaStarModify };
    Kind kind;
    CompiledPredicate pred;          // kLambdaMask
    std::vector<int> null_cols;      // columns to NULL (lambda / gamma*)
    std::vector<DataType> null_types;
    std::vector<int> check_cols;     // all-NULL test columns (gamma/gamma*)
  };
  // Applies steps [first, end) to `t` in place.
  bool ApplyFrom(size_t first, Tuple* t) const;

  std::vector<Step> steps_;
};

// Applies `chain` to every row of `in`, morsel-parallel when a pool is
// given; output rows keep input order (dropped rows removed). Observes
// `ctx` cancellation/deadline at morsel boundaries.
Relation ApplyFusedChain(const FusedCompChain& chain, const Relation& in,
                         ThreadPool* pool, QueryContext* ctx,
                         const ExecTuning* tuning);

}  // namespace eca

#endif  // ECA_EXEC_FUSED_COMP_H_
