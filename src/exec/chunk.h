#ifndef ECA_EXEC_CHUNK_H_
#define ECA_EXEC_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "expr/expr.h"
#include "storage/relation.h"
#include "types/value.h"

namespace eca {

// Columnar building blocks of the vectorized executor
// (docs/performance.md, "Vectorized executor").
//
// Operator boundaries stay row-major (`Relation` is the materialized
// format the spill files, result comparison and the algebra tests all
// speak), but the hot loops inside an operator run over columnar data:
// join keys live in typed flat arrays (`KeyColumn`), null masks live in a
// packed bit matrix (`NullMaskMatrix`), and work is claimed in fixed-size
// morsels (`MorselCursor` in common/thread_pool.h) whose boundaries are
// independent of the thread count.

// Rows per scheduling unit: one shared-cursor claim's worth of work.
// Large enough to amortize the claim, small enough that cancellation and
// deadline checks (observed at morsel boundaries) stay responsive.
inline constexpr int64_t kDefaultMorselRows = 4096;

// Rows per columnar scratch batch inside a morsel (key chunks, null-mask
// strips). Sized for L1/L2 residency of a handful of key columns.
inline constexpr int64_t kDefaultChunkRows = 1024;

// Executor tuning knobs, exposed through `ecatool --morsel-rows /
// --chunk-rows` and fuzzed by `ecafuzz` (repro lines carry them).
// Results are byte-identical for every legal value of both knobs; they
// only move the work-claim and scratch granularity.
struct ExecTuning {
  int64_t morsel_rows = kDefaultMorselRows;
  int64_t chunk_rows = kDefaultChunkRows;

  // Clamped copy (>= 1 each); the executor applies this once on entry so
  // operator code can assume sane values.
  ExecTuning Clamped() const {
    ExecTuning t = *this;
    if (t.morsel_rows < 1) t.morsel_rows = 1;
    if (t.chunk_rows < 1) t.chunk_rows = 1;
    return t;
  }
};

// One join-key expression evaluated over a whole relation into a typed
// flat column. The tag is chosen from the *pair* of build/probe
// expressions (both sides of one equi-key share a tag), so per-row
// hashing and equality dispatch once per join instead of once per value:
//
//  - kInt64 / kDouble / kString: both sides are bare column refs of that
//    type; storage is a flat typed array (strings are borrowed pointers
//    into the input rows, which are immutable for the join's duration).
//  - kNumeric: bare numeric columns of mixed int/double type; stored
//    promoted to double, hashed with the int-valued-double rule so
//    Int(3) and Real(3.0) still meet in one bucket (types/value.h).
//  - kGeneric: computed expressions or mixed string/numeric pairs; falls
//    back to per-row Value storage with Value::Hash / Value::SameAs —
//    exactly the row engine's semantics.
//
// A NULL key value invalidates its row (null-intolerant equality): the
// row is never inserted into or probed against the hash table.
class KeyColumn {
 public:
  enum class Tag { kInt64, kDouble, kNumeric, kString, kGeneric };

  // Chooses the shared tag for one equi-key pair.
  static Tag TagFor(const ScalarRef& build_expr, const Schema& build_schema,
                    const ScalarRef& probe_expr, const Schema& probe_schema);

  // Prepares storage for `n` rows of `tag` data; values are written by
  // SetFromRow, one writer per row (morsel-parallel safe).
  void Reset(Tag tag, int64_t n);

  // Extracts row `r`'s key value from `row`. `col` is the bound column
  // index for bare column refs, -1 for computed expressions (which are
  // evaluated through `expr` against `schema`). Returns false when the
  // key value is NULL.
  bool SetFromRow(int64_t r, const Tuple& row, int col, const ScalarRef& expr,
                  const Schema& schema);

  // Hash of row `r`'s key value; only meaningful for rows whose
  // SetFromRow returned true. Promotion-consistent across kNumeric.
  uint64_t HashAt(int64_t r) const;

  // Key equality between row `ra` of `a` and row `rb` of `b`; both
  // columns carry the same tag by construction.
  static bool Equal(const KeyColumn& a, int64_t ra, const KeyColumn& b,
                    int64_t rb);

  Tag tag() const { return tag_; }

 private:
  Tag tag_ = Tag::kGeneric;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<const std::string*> strs_;
  std::vector<Value> vals_;
};

// The columnar key set for one side of a hash join: every key column plus
// a packed validity bitmap and the combined per-row hash, bound once to
// its side's key expressions (a bound, empty copy serves as scratch).
// Filled morsel-parallel (each row slot has exactly one writer).
struct KeyChunkSet {
  std::vector<KeyColumn> cols;
  std::vector<uint64_t> hashes;  // valid only where valid[r] != 0
  std::vector<uint8_t> valid;    // 1 = all keys non-NULL (one writer/row)

  // Binds one column per key expression (tag `tags[k]`) against `schema`.
  void Bind(const std::vector<KeyColumn::Tag>& tags,
            std::vector<ScalarRef> exprs, const Schema& schema);

  // Prepares storage for `n` rows, all invalid until extracted.
  void Reset(int64_t n);

  bool ValidAt(int64_t r) const { return valid[static_cast<size_t>(r)] != 0; }

  // Extracts row `r`'s key values from `row`, records validity and the
  // combined hash. One writer per row.
  void ExtractRow(int64_t r, const Tuple& row);

  bool RowEqual(int64_t ra, const KeyChunkSet& b, int64_t rb) const {
    for (size_t k = 0; k < cols.size(); ++k) {
      if (!KeyColumn::Equal(cols[k], ra, b.cols[k], rb)) return false;
    }
    return true;
  }

 private:
  std::vector<ScalarRef> exprs_;
  std::vector<int> col_idx_;  // bound column index or -1
  const Schema* schema_ = nullptr;
};

// Packed per-row null masks for a relation: `words_per_row` consecutive
// uint64_t per row in one flat allocation (bit c set = column c NULL).
// Replaces the per-row heap-allocated mask vectors on the beta hot path;
// rows are filled morsel-parallel.
class NullMaskMatrix {
 public:
  void Build(const Relation& in);

  const uint64_t* row(int64_t r) const {
    return words_.data() + static_cast<size_t>(r) * words_per_row_;
  }
  size_t words_per_row() const { return words_per_row_; }
  int64_t num_rows() const { return num_rows_; }

  // Popcount of one row's mask.
  int NullCount(int64_t r) const {
    const uint64_t* w = row(r);
    int c = 0;
    for (size_t i = 0; i < words_per_row_; ++i) {
      c += __builtin_popcountll(w[i]);
    }
    return c;
  }

 private:
  std::vector<uint64_t> words_;
  size_t words_per_row_ = 1;
  int64_t num_rows_ = 0;
};

}  // namespace eca

#endif  // ECA_EXEC_CHUNK_H_
