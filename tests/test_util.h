#ifndef ECA_TESTS_TEST_UTIL_H_
#define ECA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/fused_comp.h"
#include "exec/query_context.h"
#include "storage/relation.h"

namespace eca {

// Asserts that two relations hold the same multiset of rows (after
// canonicalizing column order), with a readable diff on failure.
inline void ExpectSameRelation(const Relation& expected,
                               const Relation& actual,
                               const std::string& context = "") {
  Relation ce = CanonicalizeColumnOrder(expected);
  Relation ca = CanonicalizeColumnOrder(actual);
  if (!SameMultiset(ce, ca)) {
    ADD_FAILURE() << context << "\nrelations differ:\n"
                  << ExplainDifference(ce, ca) << "\nexpected:\n"
                  << ce.ToString() << "actual:\n"
                  << ca.ToString();
  }
}

// Asserts that two plans produce the same result on `db`.
inline void ExpectPlansEquivalent(const Plan& a, const Plan& b,
                                  const Database& db,
                                  const std::string& context = "") {
  Executor ea, eb;
  Relation ra = ea.Execute(a, db);
  Relation rb = eb.Execute(b, db);
  ExpectSameRelation(ra, rb,
                     context + "\nplan A:\n" + a.ToString() + "plan B:\n" +
                         b.ToString());
}

// Builds a relation from an inline spec. Columns are (rel_id, name, type);
// rows as vectors of Values.
inline Relation MakeRelation(std::vector<Column> cols,
                             std::vector<Tuple> rows) {
  return Relation(Schema(std::move(cols)), std::move(rows));
}

// lambda, gamma and gamma* exactly as the executor runs them (ExecComp):
// lambda and gamma as a one-step FusedCompChain, gamma* as its modify step
// followed by EvalBeta. `pool` and `ctx` are optional.
inline Relation RunLambda(const PredRef& pred, RelSet attrs,
                          const Relation& in, ThreadPool* pool = nullptr,
                          QueryContext* ctx = nullptr) {
  FusedCompChain chain;
  chain.AddLambda(pred, attrs, in.schema());
  return ApplyFusedChain(chain, in, pool, ctx, /*tuning=*/nullptr);
}

inline Relation RunGamma(RelSet attrs, const Relation& in,
                         ThreadPool* pool = nullptr,
                         QueryContext* ctx = nullptr) {
  FusedCompChain chain;
  chain.AddGamma(attrs, in.schema());
  return ApplyFusedChain(chain, in, pool, ctx, /*tuning=*/nullptr);
}

inline Relation RunGammaStar(RelSet attrs, RelSet keep, const Relation& in,
                             ThreadPool* pool = nullptr,
                             QueryContext* ctx = nullptr,
                             ExecStats* stats = nullptr) {
  FusedCompChain chain;
  chain.AddGammaStarModify(attrs, keep, in.schema());
  return EvalBeta(ApplyFusedChain(chain, in, pool, ctx, /*tuning=*/nullptr),
                  ctx, stats);
}

// A context whose soft threshold is one byte: every governed hash join
// escalates to the grace (spill-to-disk) path and every governed
// best-match to external merge sort.
inline QueryContext::Limits SpillEverythingLimits() {
  QueryContext::Limits limits;
  limits.mem_limit_bytes = int64_t{1} << 30;
  limits.mem_soft_bytes = 1;
  return limits;
}

inline Value N() { return Value::Null(DataType::kInt64); }
inline Value I(int64_t x) { return Value::Int(x); }
inline Value S(const char* s) { return Value::Str(s); }

}  // namespace eca

#endif  // ECA_TESTS_TEST_UTIL_H_
