#ifndef ECA_EXEC_EXECUTOR_H_
#define ECA_EXEC_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "algebra/plan.h"
#include "common/status.h"
#include "exec/chunk.h"
#include "exec/database.h"
#include "storage/relation.h"

namespace eca {

class ThreadPool;
class QueryContext;
class FusedCompChain;

// One plan node's share of an Execute call, as EXPLAIN ANALYZE prints it
// (exec/explain.h). Entries hold no labels; they are in preorder, the
// order Plan::ToString() prints the nodes, so the renderer pairs them
// with the plan.
struct NodeProfile {
  int depth = 0;
  // Output rows of the node. 0 and meaningless when `fused`.
  int64_t rows = 0;
  // Wall clock spent in this node alone, children excluded. A fused
  // chain's time goes to the join whose probe loop runs it, or to the
  // segment top when the base is not a join; gamma*'s best-match half
  // goes to the gamma* node.
  double own_ms = 0;
  // The node ran inside the fused pipeline of a compensation segment
  // above it (a chain step below the segment top, or the chain's base
  // join), so its output never materialized.
  bool fused = false;
};

// Execution statistics accumulated over one Execute() call.
struct ExecStats {
  int64_t rows_produced = 0;   // total rows materialized across operators
  int64_t probe_comparisons = 0;
  int64_t join_nodes = 0;
  int64_t comp_nodes = 0;
  int64_t hash_build_rows = 0;  // rows inserted into hash-join tables

  // Per-operator-class wall clock (milliseconds), parallel sections
  // included at their real elapsed time.
  double join_ms = 0;
  double comp_ms = 0;

  // Resource-governor counters (ExecuteWithContext only; all zero for
  // ungoverned runs). peak_bytes is the query tracker's high-water mark;
  // the spill counters cover grace hash joins and external-sort
  // compensation operators (docs/robustness.md, "Resource governor").
  int64_t peak_bytes = 0;
  int64_t spilled_partitions = 0;  // grace-join leaf partitions probed
  int64_t spill_bytes = 0;         // serialized bytes written to temp files
  int64_t spill_read_bytes = 0;    // serialized bytes read back
  int64_t spilled_sort_runs = 0;   // external-sort runs spilled (beta/gamma*)

  // Per-node record of the most recent Execute / ExecuteWithContext call
  // (earlier calls' records are dropped; the counters above accumulate).
  // A run stopped by its governor leaves a preorder prefix.
  std::vector<NodeProfile> profile;

  void Reset() { *this = ExecStats(); }
};

// Evaluates logical plans (including compensation operators) against an
// in-memory Database, materializing every operator output.
//
// Two engine profiles reproduce the paper's two systems: the PostgreSQL-like
// profile prefers hash joins for equi-predicates; the "commercial" profile
// (Appendix F substitute) prefers sort-merge joins, whose different cost
// profile yields the same plan winners with larger factors.
class Executor {
 public:
  enum class JoinPreference {
    kHash,       // hash join for equi-joins, nested loop otherwise
    kSortMerge,  // sort-merge join for equi-joins, nested loop otherwise
  };

  struct Options {
    JoinPreference join_preference = JoinPreference::kHash;
    // Number of threads for morsel-driven join/compensation evaluation.
    // 1 (the default) runs the same morsel loops inline with zero
    // synchronization; results are byte-identical for every value.
    int num_threads = 1;
    // Morsel/chunk granularity (exec/chunk.h). Results are byte-identical
    // for every legal value; the knobs only move work-claim and scratch
    // sizes (and are fuzzed via ecafuzz --morsel-rows/--chunk-rows).
    ExecTuning tuning;
  };

  Executor() : Executor(Options()) {}
  explicit Executor(Options options);
  ~Executor();

  // Evaluates `plan` bottom-up. Aborts on malformed plans (unresolved
  // columns, schema mismatches) — plans coming out of the rewrite layer are
  // well-formed by construction.
  Relation Execute(const Plan& plan, const Database& db);

  // Governed execution under `ctx`'s memory/deadline/cancellation contract
  // (docs/robustness.md). Same plans, same results, three extra outcomes:
  //
  //  - memory pressure past the soft threshold escalates hash joins to the
  //    spilling grace join and beta/gamma* to external merge sort — the
  //    result stays byte-identical to the in-memory engine;
  //  - the hard limit, the deadline, or a Cancel() unwind cleanly with
  //    kResourceExhausted / kDeadlineExceeded / kCancelled;
  //  - stats() gains peak_bytes and the spill counters.
  //
  // `ctx` must already be Arm()ed if a timeout is configured; it is
  // borrowed for the duration of the call only.
  StatusOr<Relation> ExecuteWithContext(const Plan& plan, const Database& db,
                                        QueryContext* ctx);

  const ExecStats& stats() const { return stats_; }

 private:
  // Recursive evaluation body; the public entry points wrap it in an
  // "execute" trace span and publish this call's ExecStats delta as
  // exec.* metrics (docs/observability.md) once the tree is done. Every
  // node appends its NodeProfile to stats_.profile on entry (preorder)
  // and fills it in on exit.
  Relation ExecNode(const Plan& plan, const Database& db);
  // Appends a profile entry at depth_ and returns its index.
  size_t AddProfile(bool fused);
  // Publishes stats_ minus `before` into MetricsRegistry::Global(), so a
  // registry diff around one Execute call matches stats() exactly.
  void PublishStatsDelta(const ExecStats& before) const;
  // `fused` (optional) is a chain of row-local compensation steps stacked
  // directly above the join in the plan; the join applies it per emitted
  // row inside its probe pipeline. The join's own time goes to
  // stats_.profile[slot].
  Relation ExecJoin(const Plan& plan, const Database& db, size_t slot,
                    const FusedCompChain* fused = nullptr);
  // Fusion dispatch: collects the maximal lambda/gamma/gamma*-modify
  // stack rooted at `plan` into a FusedCompChain and runs it inside the
  // base join's probe loop (or as one morsel pass over the materialized
  // base); beta and project are pipeline breakers and run standalone.
  // `slot` is the profile entry of `plan` itself.
  Relation ExecComp(const Plan& plan, const Database& db, size_t slot);
  // Charges `rel`'s rows to the query tracker as the durable output of a
  // plan node; records the error on failure. No-op when ungoverned.
  void ChargeNodeOutput(const Relation& rel);
  void ReleaseNodeOutput(const Relation& rel);

  Options options_;
  ExecStats stats_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  QueryContext* ctx_ = nullptr;  // non-null only inside ExecuteWithContext
  int depth_ = 0;  // plan depth of the node ExecNode enters next
};

// --- Operator building blocks (exposed for unit tests and benches) --------

// Generic join evaluation: uses hash (or sort-merge) join when the predicate
// contains equi-conjuncts across the two inputs, nested loop otherwise.
// The hash path builds one shared open-addressing table over typed
// columnar keys (the smaller input hosts it for inner/semi/anti joins)
// and probes in fixed-size morsels claimed from a shared cursor; passing
// a ThreadPool runs build and probe morsel-parallel with output assembled
// in morsel-index order, so the result is byte-identical for every thread
// count (and every `tuning` value). A governed call (non-null ctx)
// additionally observes cancellation and deadline at morsel granularity,
// charges the build index to the memory tracker, and escalates to the
// spilling grace hash join when the build would cross the soft threshold
// — with output still byte-identical. A non-null `fused` chain
// (compensation operators stacked directly above the join) is applied
// per emitted row inside the probe pipeline instead of as separate
// materializing passes.
Relation EvalJoin(JoinOp op, const PredRef& pred, const Relation& left,
                  const Relation& right,
                  Executor::JoinPreference pref = Executor::JoinPreference::kHash,
                  ExecStats* stats = nullptr, ThreadPool* pool = nullptr,
                  QueryContext* ctx = nullptr,
                  const ExecTuning* tuning = nullptr,
                  const FusedCompChain* fused = nullptr);

// Reference nested-loop implementation of every join operator; used to
// validate the hash/sort-merge paths.
Relation EvalJoinNaive(JoinOp op, const PredRef& pred, const Relation& left,
                       const Relation& right);

// The reference engine: evaluates `plan` by plain recursion over whole
// relations — leaves copy the table, joins run EvalJoinNaive, beta runs
// EvalBetaNaive, and lambda / gamma (Eq. 7) / gamma* (Eq. 8) are written
// straight from their definitions. Shares no code path with Executor's
// morsel, fused-chain, hash, sort-merge or spill machinery, which makes it
// the independent oracle for tests and ecafuzz. Quadratic; for small
// databases only.
Relation ExecuteNaive(const Plan& plan, const Database& db);

// Output schema of `op` over the two input schemas (semi/anti joins keep
// one side, everything else concatenates).
Schema JoinOutputSchema(JoinOp op, const Schema& left, const Schema& right);

// beta: removes spurious (dominated or duplicated) tuples. Exact
// per-attribute semantics via null-pattern grouping; near-linear when the
// number of distinct null patterns is small (always the case for plan
// intermediates, whose NULLs are relation-block structured).
//
// Convention: a tuple whose every attribute is NULL is spurious (it is the
// identity of the domination order). This is Galindo-Legaria's minimum-union
// semantics; it is required for the compensation identities to hold on
// empty/no-match inputs (e.g. CBA's R1 join R2 = beta(lambda(R1 x R2)) with
// an empty R2, and gamma* above a full outerjoin).
//
// Under a governed ctx whose tracker is past (or would be pushed past) the
// soft threshold, evaluation switches to the paper's sort-based best-match
// (Section 6.1, the strategy behind CBA's SQL implementation) run as an
// external merge sort: one bounded-memory sort per null pattern, runs
// spilled through the ctx spill dir. Output rows and order are identical.
//
// lambda, gamma and gamma*'s modify half have no standalone entry point:
// they run as FusedCompChain steps (exec/fused_comp.h), and gamma* is its
// modify step followed by EvalBeta.
Relation EvalBeta(const Relation& in, QueryContext* ctx = nullptr,
                  ExecStats* stats = nullptr);

// Reference O(n^2) beta, straight from the Section 2.2 definition (plus the
// all-NULL convention above).
Relation EvalBetaNaive(const Relation& in);

// pi_A at relation granularity.
Relation EvalProject(RelSet attrs, const Relation& in);

// The outer union of CBA's algebra (the paper's notation list): pads each
// input to the union schema with NULLs and concatenates. The inputs'
// relation sets may overlap (shared columns align) or differ (missing
// relations pad).
Relation EvalOuterUnion(const Relation& a, const Relation& b);

// Galindo-Legaria's minimum union: beta(outer union) — the combination
// gamma* builds on (Equation 8 unions the selected and modified tuples and
// best-matches the result).
Relation EvalMinUnion(const Relation& a, const Relation& b);

// Reorders columns into the canonical (rel_id, name) order; rewritten plans
// may emit columns in different orders, so result comparison canonicalizes
// first.
Relation CanonicalizeColumnOrder(const Relation& in);

// Executes both plans and compares canonicalized result multisets.
bool PlansEquivalentOn(const Plan& a, const Plan& b, const Database& db);

}  // namespace eca

#endif  // ECA_EXEC_EXECUTOR_H_
