#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/chunk.h"
#include "exec/executor.h"
#include "exec/fused_comp.h"
#include "exec/query_context.h"
#include "storage/spill_file.h"
#include "types/tri_bool.h"

namespace eca {

namespace {

// A conjunct of the form <left col> = <right col> usable as a hash/merge key.
struct EquiKey {
  ScalarRef left_expr;
  ScalarRef right_expr;
};

// Splits `pred` into equi-key conjuncts across (left_rels, right_rels) and a
// residual predicate (nullptr if none). Only top-level AND conjuncts are
// considered.
void SplitEquiKeys(const PredRef& pred, RelSet left_rels, RelSet right_rels,
                   std::vector<EquiKey>* keys, PredRef* residual) {
  std::vector<PredRef> conjuncts;
  std::vector<PredRef> pending = {pred};
  while (!pending.empty()) {
    PredRef p = pending.back();
    pending.pop_back();
    if (p->kind() == Predicate::Kind::kAnd) {
      for (const PredRef& c : p->children()) pending.push_back(c);
    } else {
      conjuncts.push_back(p);
    }
  }
  std::vector<PredRef> residual_conjuncts;
  for (const PredRef& c : conjuncts) {
    bool is_key = false;
    if (c->kind() == Predicate::Kind::kCompare &&
        c->cmp_op() == Predicate::CmpOp::kEq) {
      RelSet lr = c->scalar_left()->refs();
      RelSet rr = c->scalar_right()->refs();
      if (!lr.Empty() && !rr.Empty()) {
        if (left_rels.ContainsAll(lr) && right_rels.ContainsAll(rr)) {
          keys->push_back({c->scalar_left(), c->scalar_right()});
          is_key = true;
        } else if (right_rels.ContainsAll(lr) && left_rels.ContainsAll(rr)) {
          keys->push_back({c->scalar_right(), c->scalar_left()});
          is_key = true;
        }
      }
    }
    if (!is_key) residual_conjuncts.push_back(c);
  }
  *residual = residual_conjuncts.empty() ? nullptr
                                         : Predicate::And(residual_conjuncts);
}

// Evaluates one side's key expressions for a row. Key expressions are almost
// always bare column refs, so column indexes are precomputed; NULL keys
// never match under null-intolerant equality. Eval is const and touches no
// shared state, so one bound evaluator serves all worker threads.
struct KeyEvaluator {
  std::vector<ScalarRef> exprs;
  std::vector<int> col_fastpath;  // column index or -1
  const Schema* schema = nullptr;

  void Bind(std::vector<ScalarRef> key_exprs, const Schema& s) {
    exprs = std::move(key_exprs);
    schema = &s;
    col_fastpath.clear();
    for (const ScalarRef& e : exprs) {
      if (e->kind() == Scalar::Kind::kColumn) {
        int idx = s.FindColumn(e->rel_id(), e->column_name());
        ECA_CHECK(idx >= 0);
        col_fastpath.push_back(idx);
      } else {
        col_fastpath.push_back(-1);
      }
    }
  }

  // Returns true and fills `out` when all keys are non-NULL.
  bool Eval(const Tuple& row, std::vector<Value>* out) const {
    out->clear();
    for (size_t i = 0; i < exprs.size(); ++i) {
      Value v = col_fastpath[i] >= 0
                    ? row[static_cast<size_t>(col_fastpath[i])]
                    : exprs[i]->Eval(*schema, row);
      if (v.is_null()) return false;
      out->push_back(std::move(v));
    }
    return true;
  }
};

struct JoinShape {
  Schema out_schema;     // schema of emitted tuples
  Schema concat_schema;  // left ++ right, used for predicate evaluation
  int left_width = 0;
  int right_width = 0;
};

JoinShape MakeShape(JoinOp op, const Relation& left, const Relation& right) {
  JoinShape shape;
  shape.concat_schema = left.schema().Concat(right.schema());
  shape.left_width = left.schema().NumColumns();
  shape.right_width = right.schema().NumColumns();
  shape.out_schema = JoinOutputSchema(op, left.schema(), right.schema());
  return shape;
}

// Matched flags are kept only for a side the padding / side-emission
// phase reads: the padded side(s) of an outer join, the output side of a
// semi/anti join.
bool NeedsLeftFlags(JoinOp op) {
  return op == JoinOp::kLeftOuter || op == JoinOp::kFullOuter ||
         op == JoinOp::kLeftSemi || op == JoinOp::kLeftAnti;
}

bool NeedsRightFlags(JoinOp op) {
  return op == JoinOp::kRightOuter || op == JoinOp::kFullOuter ||
         op == JoinOp::kRightSemi || op == JoinOp::kRightAnti;
}

// The padding / side-emission phase every join algorithm ends with:
// appends outer-join NULL padding for unmatched rows, or emits the
// semi/anti output from the matched flags. Runs sequentially in row
// order, so the tail of the output is independent of how the matched
// flags were computed. A fused compensation chain (operators stacked
// directly above the join in the plan) applies to these rows exactly as
// it applies to matched pairs — the chain sits above the whole join
// output, padding included.
void FinishJoinOutput(JoinOp op, const JoinShape& shape, const Relation& left,
                      const Relation& right,
                      const std::vector<uint8_t>& left_matched,
                      const std::vector<uint8_t>& right_matched,
                      const FusedCompChain* fused, Relation* out) {
  auto add = [&](Tuple t) {
    if (fused == nullptr || fused->Apply(&t)) out->Add(std::move(t));
  };
  auto emit_unmatched_left_padded = [&] {
    Tuple pad =
        NullsFor(shape.concat_schema, shape.left_width, shape.right_width);
    for (size_t i = 0; i < left_matched.size(); ++i) {
      if (!left_matched[i]) add(ConcatTuples(left.rows()[i], pad));
    }
  };
  auto emit_unmatched_right_padded = [&] {
    Tuple pad = NullsFor(shape.concat_schema, 0, shape.left_width);
    for (size_t i = 0; i < right_matched.size(); ++i) {
      if (!right_matched[i]) add(ConcatTuples(pad, right.rows()[i]));
    }
  };
  auto emit_side = [&](const Relation& side,
                       const std::vector<uint8_t>& matched,
                       bool want_matched) {
    for (size_t i = 0; i < matched.size(); ++i) {
      if (static_cast<bool>(matched[i]) == want_matched) {
        add(side.rows()[i]);
      }
    }
  };
  switch (op) {
    case JoinOp::kCross:
    case JoinOp::kInner:
      break;
    case JoinOp::kLeftOuter:
      emit_unmatched_left_padded();
      break;
    case JoinOp::kRightOuter:
      emit_unmatched_right_padded();
      break;
    case JoinOp::kFullOuter:
      emit_unmatched_left_padded();
      emit_unmatched_right_padded();
      break;
    case JoinOp::kLeftSemi:
      emit_side(left, left_matched, /*want_matched=*/true);
      break;
    case JoinOp::kLeftAnti:
      emit_side(left, left_matched, /*want_matched=*/false);
      break;
    case JoinOp::kRightSemi:
      emit_side(right, right_matched, /*want_matched=*/true);
      break;
    case JoinOp::kRightAnti:
      emit_side(right, right_matched, /*want_matched=*/false);
      break;
  }
}

// Assembles the output from per-pair matches plus matched flags, shared by
// the sequential (nested-loop, sort-merge) join algorithms.
class JoinEmitter {
 public:
  JoinEmitter(JoinOp op, const JoinShape& shape, const Relation& left,
              const Relation& right, const FusedCompChain* fused = nullptr)
      : op_(op), shape_(shape), left_(left), right_(right), fused_(fused),
        out_(shape.out_schema) {
    if (NeedsLeftFlags(op)) {
      left_matched_.assign(static_cast<size_t>(left.NumRows()), 0);
    }
    if (NeedsRightFlags(op)) {
      right_matched_.assign(static_cast<size_t>(right.NumRows()), 0);
    }
  }

  void Match(int64_t li, int64_t ri) {
    // Matched flags reflect the join itself; the fused chain only gates
    // what reaches the output (a gamma above the join drops rows, it does
    // not un-match them).
    if (!left_matched_.empty()) left_matched_[static_cast<size_t>(li)] = 1;
    if (!right_matched_.empty()) right_matched_[static_cast<size_t>(ri)] = 1;
    if (OutputsOneSide(op_)) return;  // semi/anti emit in Finish()
    Tuple t = ConcatTuples(left_.rows()[static_cast<size_t>(li)],
                           right_.rows()[static_cast<size_t>(ri)]);
    if (fused_ == nullptr || fused_->Apply(&t)) out_.Add(std::move(t));
  }

  Relation Finish() {
    FinishJoinOutput(op_, shape_, left_, right_, left_matched_,
                     right_matched_, fused_, &out_);
    return std::move(out_);
  }

  // Output accumulated so far (pre-Finish); the governed nested-loop
  // path charges its growth against the memory tracker.
  const Relation& out() const { return out_; }

 private:
  JoinOp op_;
  const JoinShape& shape_;
  const Relation& left_;
  const Relation& right_;
  const FusedCompChain* fused_;
  Relation out_;
  std::vector<uint8_t> left_matched_;
  std::vector<uint8_t> right_matched_;
};

Relation NestedLoopJoin(JoinOp op, const PredRef& pred, const Relation& left,
                        const Relation& right, ExecStats* stats,
                        QueryContext* ctx = nullptr,
                        const FusedCompChain* fused = nullptr) {
  JoinShape shape = MakeShape(op, left, right);
  JoinEmitter emitter(op, shape, left, right, fused);
  CompiledPredicate compiled;
  bool have_pred = pred != nullptr;
  if (have_pred) compiled = CompiledPredicate(pred, shape.concat_schema);
  // Governed runs enforce the hard limit while the output materializes
  // (a cross join can explode well before the executor's node-level
  // charge would see it); the charge is scratch, released on return.
  ExecCharge out_charge(ctx);
  size_t charged_rows = 0;
  int64_t pending_bytes = 0;
  for (int64_t li = 0; li < left.NumRows(); ++li) {
    if (ctx != nullptr && (li & 1023) == 0 && ctx->ShouldStop()) break;
    for (int64_t ri = 0; ri < right.NumRows(); ++ri) {
      if (stats != nullptr) ++stats->probe_comparisons;
      bool match = true;
      if (have_pred) {
        Tuple t = ConcatTuples(left.rows()[static_cast<size_t>(li)],
                               right.rows()[static_cast<size_t>(ri)]);
        match = compiled.EvalTrue(t);
      }
      if (match) emitter.Match(li, ri);
    }
    if (ctx != nullptr) {
      const auto& rows = emitter.out().rows();
      for (; charged_rows < rows.size(); ++charged_rows) {
        pending_bytes += ApproxTupleBytes(rows[charged_rows]);
      }
      if (pending_bytes >= (64 << 10)) {
        Status s = out_charge.Add(pending_bytes, "nested-loop join output");
        pending_bytes = 0;
        if (!s.ok()) {
          ctx->RecordError(std::move(s));
          break;
        }
      }
    }
  }
  return emitter.Finish();
}

// --- Hash join --------------------------------------------------------------
//
// One table type and one probe kernel serve the in-memory join and every
// grace leaf. HashTable keeps one open-addressing slot per distinct build
// key: a morsel-parallel pass extracts typed keys (KeyChunkSet) and each
// row CAS-claims its key's slot or finds it claimed by an equal key; a
// counting sort then lays out each key's rows in ascending build-row
// order, whichever worker won the CAS. ProbeKernel is the only code that
// meets a probe row with build rows: key lookup, the residual, matched
// flags, the semi/anti early stops and the fused chain. A probe walks only
// its key's rows, already in order; morsel outputs concatenate in
// morsel-index order, and morsel boundaries depend only on (rows,
// morsel_rows), so output is byte-identical at any thread count and tuning.

class HashTable {
 public:
  // `keys` is bound to the build side's key expressions.
  explicit HashTable(const KeyChunkSet& keys) : keys_(keys) {}

  // Builds over `rel`'s rows with non-NULL keys, morsel-parallel when a
  // pool is given; adds them to stats->hash_build_rows.
  void Build(const Relation& rel, ThreadPool* pool, const ExecTuning& tuning,
             QueryContext* ctx, ExecStats* stats) {
    TraceSpan span("join/build");
    const int64_t n = rel.NumRows();
    if (span.active()) span.AppendArg("rows", static_cast<long long>(n));
    ECA_CHECK(n < (int64_t{1} << 28));  // slots and rows index in 32 bits
    keys_.Reset(n);
    int64_t cap = 16;
    while (cap < 4 * n) cap <<= 1;
    slots_ = std::vector<std::atomic<int32_t>>(static_cast<size_t>(cap));
    for (auto& s : slots_) s.store(-1, std::memory_order_relaxed);
    mask_ = static_cast<uint64_t>(cap - 1);

    std::vector<int32_t> slot_of(static_cast<size_t>(n), -1);
    MorselCursor cursor(n, tuning.morsel_rows);
    auto build_worker = [&](int) {
      int64_t begin, end, morsel;
      while (cursor.Next(&begin, &end, &morsel)) {
        if (ctx != nullptr && ctx->ShouldStop()) break;
        for (int64_t r = begin; r < end; ++r) {
          keys_.ExtractRow(r, rel.rows()[static_cast<size_t>(r)]);
          if (keys_.ValidAt(r)) slot_of[static_cast<size_t>(r)] = Claim(r);
        }
      }
    };
    if (pool != nullptr && pool->num_threads() > 1) {
      pool->RunOnWorkers(build_worker);
    } else {
      build_worker(0);
    }

    // Counting sort by slot. Filling each slot's range from its end while
    // walking the rows backwards leaves every range ascending and
    // begin_[s] at the range's start.
    begin_.assign(static_cast<size_t>(cap) + 1, 0);
    for (int32_t s : slot_of) {
      if (s >= 0) ++begin_[static_cast<size_t>(s)];
    }
    for (size_t s = 1; s < begin_.size(); ++s) begin_[s] += begin_[s - 1];
    rows_.resize(begin_.back());
    for (int64_t r = n - 1; r >= 0; --r) {
      const int32_t s = slot_of[static_cast<size_t>(r)];
      if (s < 0) continue;
      rows_[--begin_[static_cast<size_t>(s)]] = static_cast<int32_t>(r);
    }
    if (stats != nullptr) {
      stats->hash_build_rows += static_cast<int64_t>(rows_.size());
    }
  }

  // The slot of key row `i` of `pk`, or -1 when no build row has that key;
  // adds every slot it reads to *touches.
  int64_t Find(const KeyChunkSet& pk, int64_t i, int64_t* touches) const {
    const uint64_t h = pk.hashes[static_cast<size_t>(i)];
    for (uint64_t s = h & mask_;; s = (s + 1) & mask_) {
      ++*touches;
      const int32_t rep = slots_[s].load(std::memory_order_relaxed);
      if (rep < 0) return -1;
      if (keys_.hashes[static_cast<size_t>(rep)] == h &&
          keys_.RowEqual(rep, pk, i)) {
        return static_cast<int64_t>(s);
      }
    }
  }

  // Slot `s`'s build rows, ascending: [Rows(s), Rows(s + 1)).
  const int32_t* Rows(int64_t s) const {
    return rows_.data() + begin_[static_cast<size_t>(s)];
  }
  size_t num_slots() const { return slots_.size(); }

 private:
  // The slot of build row `r`'s key, claimed if the key is new. The load
  // factor stays <= 0.25, so a miss reads ~1.4 slots on average.
  int32_t Claim(int64_t r) {
    const uint64_t h = keys_.hashes[static_cast<size_t>(r)];
    for (uint64_t s = h & mask_;; s = (s + 1) & mask_) {
      // A failed CAS loads the winner, whose keys its release published.
      int32_t rep = slots_[s].load(std::memory_order_acquire);
      if (rep < 0 && slots_[s].compare_exchange_strong(
                         rep, static_cast<int32_t>(r),
                         std::memory_order_acq_rel,
                         std::memory_order_acquire)) {
        return static_cast<int32_t>(s);
      }
      if (keys_.hashes[static_cast<size_t>(rep)] == h &&
          keys_.RowEqual(rep, keys_, r)) {
        return static_cast<int32_t>(s);
      }
    }
  }

  KeyChunkSet keys_;  // by build row
  std::vector<std::atomic<int32_t>> slots_;  // a row with the key; -1 = empty
  uint64_t mask_ = 0;                        // slots_.size() - 1
  std::vector<uint32_t> begin_;  // slot s's rows: rows_[begin_[s], begin_[s+1])
  std::vector<int32_t> rows_;
};

class ProbeKernel {
 public:
  // `probe_flags`, indexed by global probe row, is null unless the join
  // keeps probe-side flags.
  ProbeKernel(JoinOp op, const HashTable& table, const Relation& build,
              bool build_left, const CompiledPredicate* residual,
              const FusedCompChain* fused, uint8_t* probe_flags)
      : table_(table), build_(build), build_left_(build_left),
        residual_(residual), fused_(fused), probe_flags_(probe_flags),
        emit_pairs_(!OutputsOneSide(op)) {
    if (build_left ? NeedsLeftFlags(op) : NeedsRightFlags(op)) {
      // Without a residual all rows of a key match together, so the flag
      // lives on the key's slot; with one, on each build row.
      build_flags_ = std::vector<std::atomic<uint8_t>>(
          residual != nullptr ? build.rows().size() : table.num_slots());
      for (auto& f : build_flags_) f.store(0, std::memory_order_relaxed);
    }
    keeps_build_ = !emit_pairs_ && !build_flags_.empty();
  }

  // Probes key row `i` of `pk`, tuple `prow`, global probe row `probe_row`;
  // pairs that pass the fused chain go to *out. Adds every slot and build
  // row read to *touches. Concurrent probes share only the build flags
  // (relaxed atomics, set to 1 by Mark); a probe row's flag has one writer.
  void Probe(const KeyChunkSet& pk, int64_t i, const Tuple& prow,
             size_t probe_row, std::vector<Tuple>* out, int64_t* touches) {
    const int64_t s = table_.Find(pk, i, touches);
    if (s < 0) return;
    const int32_t* first = table_.Rows(s);
    const int32_t* last = table_.Rows(s + 1);
    if (residual_ == nullptr) {
      // The key decides; a semi/anti join reads no build row at all.
      if (probe_flags_ != nullptr) probe_flags_[probe_row] = 1;
      if (!build_flags_.empty()) Mark(&build_flags_[static_cast<size_t>(s)]);
      if (!emit_pairs_) return;
      *touches += last - first;
      for (const int32_t* it = first; it != last; ++it) {
        Emit(build_.rows()[static_cast<size_t>(*it)], prow, out);
      }
      return;
    }
    for (const int32_t* it = first; it != last; ++it) {
      ++*touches;
      std::atomic<uint8_t>* flag =
          build_flags_.empty() ? nullptr
                               : &build_flags_[static_cast<size_t>(*it)];
      // A build row a semi/anti join keeps is decided by its first match.
      if (keeps_build_ && flag->load(std::memory_order_relaxed) != 0) continue;
      const Tuple& brow = build_.rows()[static_cast<size_t>(*it)];
      if (!residual_->EvalTrue(Pair(brow, prow))) continue;
      if (flag != nullptr) Mark(flag);
      if (probe_flags_ != nullptr) probe_flags_[probe_row] = 1;
      if (emit_pairs_) {
        Emit(brow, prow, out);
      } else if (!keeps_build_) {
        return;  // a semi/anti join keeping the probe side: row decided
      }
    }
  }

  // Build-side matched flags by build row, empty when the join keeps none.
  // Call once every probe has finished.
  std::vector<uint8_t> BuildMatched() const {
    std::vector<uint8_t> matched;
    if (build_flags_.empty()) return matched;
    matched.assign(build_.rows().size(), 0);
    for (size_t f = 0; f < build_flags_.size(); ++f) {
      if (build_flags_[f].load(std::memory_order_relaxed) == 0) continue;
      if (residual_ != nullptr) {
        matched[f] = 1;
        continue;
      }
      const int64_t s = static_cast<int64_t>(f);
      for (const int32_t* it = table_.Rows(s); it != table_.Rows(s + 1);
           ++it) {
        matched[static_cast<size_t>(*it)] = 1;
      }
    }
    return matched;
  }

 private:
  // Stores only when the flag is still clear: every probe of a hot key
  // would otherwise write its cache line from every worker.
  static void Mark(std::atomic<uint8_t>* flag) {
    if (flag->load(std::memory_order_relaxed) == 0) {
      flag->store(1, std::memory_order_relaxed);
    }
  }

  Tuple Pair(const Tuple& brow, const Tuple& prow) const {
    return build_left_ ? ConcatTuples(brow, prow) : ConcatTuples(prow, brow);
  }

  void Emit(const Tuple& brow, const Tuple& prow,
            std::vector<Tuple>* out) const {
    Tuple t = Pair(brow, prow);
    if (fused_ == nullptr || fused_->Apply(&t)) out->push_back(std::move(t));
  }

  const HashTable& table_;
  const Relation& build_;
  const bool build_left_;
  const CompiledPredicate* residual_;
  const FusedCompChain* fused_;
  uint8_t* const probe_flags_;
  const bool emit_pairs_;
  bool keeps_build_;  // a semi/anti join whose output is the build side
  std::vector<std::atomic<uint8_t>> build_flags_;
};

// --- Grace (spilling) hash join -------------------------------------------
//
// The escalation target when a governed hash join's build side would push
// the memory tracker past its soft threshold. Both sides are partitioned
// to temp files on the table's key hash (NULL-keyed rows never spill: they
// cannot match, and the matched flags handle them); a partition whose
// build side still exceeds the budget re-partitions on the next 4 bits.
// Each leaf is a smaller in-memory join: a HashTable over its build slice,
// with its probe partition streamed through a ProbeKernel in chunk_rows
// strips. Peak memory is one build partition plus the output.
//
// Output stays byte-identical: spilled rows carry their global row index
// as the record tag, which indexes the global matched flags. Partitioning
// keeps relative order, so each probe row's matches come out of its one
// leaf in global build-row order, and a stable sort on the probe tag
// restores the in-memory (probe row, build row) order.

constexpr int kGraceFanout = 16;  // partitions per level: 4 hash bits
constexpr int kGraceMaxDepth = 8;  // beyond this, process in memory

// Routes on the top hash bits, 4 per level. The leaf's table indexes by the
// low bits; routing on those would put all keys of a depth-d leaf into
// 1/16^d of its slots.
size_t GracePartOf(uint64_t h, int depth) {
  return static_cast<size_t>((h >> (60 - 4 * depth)) &
                             static_cast<uint64_t>(kGraceFanout - 1));
}

// Replaces *tags / *rows with the next (at most) `max_rows` records of
// `reader`; sets *eof once the stream has ended.
Status ReadStrip(SpillReader* reader, int64_t max_rows,
                 std::vector<uint64_t>* tags, std::vector<Tuple>* rows,
                 bool* eof) {
  tags->clear();
  rows->clear();
  uint64_t tag = 0;
  Tuple row;
  while (static_cast<int64_t>(rows->size()) < max_rows) {
    ECA_RETURN_IF_ERROR(reader->Next(&tag, &row, eof));
    if (*eof) break;
    tags->push_back(tag);
    rows->push_back(std::move(row));
    row = Tuple();
  }
  return Status::OK();
}

// Lazily-opened fan of partition files for one side of one level.
class GraceFan {
 public:
  GraceFan(SpillDir* dir, SpillStats* stats) : dir_(dir), stats_(stats) {}

  // Routes rows [0, n) of `rows`, tagged `tags`, by their key hash at
  // `depth`; `keys` is bound scratch.
  Status Route(const Tuple* rows, const uint64_t* tags, int64_t n,
               KeyChunkSet* keys, int depth) {
    keys->Reset(n);
    for (int64_t i = 0; i < n; ++i) {
      keys->ExtractRow(i, rows[i]);
      if (!keys->ValidAt(i)) continue;  // NULL keys never match
      const size_t part =
          GracePartOf(keys->hashes[static_cast<size_t>(i)], depth);
      SpillWriter& w = writers_[part];
      if (paths_[part].empty()) {
        ECA_ASSIGN_OR_RETURN(std::string path, dir_->NextFilePath());
        ECA_RETURN_IF_ERROR(w.Open(path, stats_));
        paths_[part] = std::move(path);
      }
      ECA_RETURN_IF_ERROR(w.Append(tags[i], rows[i]));
    }
    return Status::OK();
  }

  Status FinishAll() {
    for (int p = 0; p < kGraceFanout; ++p) {
      if (!paths_[p].empty()) ECA_RETURN_IF_ERROR(writers_[p].Finish());
    }
    return Status::OK();
  }

  // Empty string when no row landed in `part`.
  const std::string& path(size_t part) const { return paths_[part]; }
  int64_t bytes(size_t part) const { return writers_[part].bytes_written(); }

 private:
  SpillDir* dir_;
  SpillStats* stats_;
  SpillWriter writers_[kGraceFanout];
  std::string paths_[kGraceFanout];
};

class GraceHashJoin {
 public:
  GraceHashJoin(JoinOp op, const JoinShape& shape,
                const KeyChunkSet& build_keys, const KeyChunkSet& probe_keys,
                bool build_left, const CompiledPredicate* residual,
                const FusedCompChain* fused, const Relation& left,
                const Relation& right, const ExecTuning& tuning,
                QueryContext* ctx, ExecStats* stats)
      : op_(op), shape_(shape), build_keys_(build_keys),
        probe_keys_(probe_keys), build_left_(build_left),
        residual_(residual), fused_(fused), left_(left), right_(right),
        tuning_(tuning), ctx_(ctx), stats_(stats),
        dir_("eca-grace", ctx->spill_dir()), out_charge_(ctx) {
    if (NeedsLeftFlags(op)) {
      left_matched_.assign(static_cast<size_t>(left.NumRows()), 0);
    }
    if (NeedsRightFlags(op)) {
      right_matched_.assign(static_cast<size_t>(right.NumRows()), 0);
    }
  }

  Status Run(Relation* out) {
    Status s = RunImpl(out);
    if (stats_ != nullptr) {
      stats_->spill_bytes += sstats_.bytes_written;
      stats_->spill_read_bytes += sstats_.bytes_read;
    }
    return s;
  }

 private:
  struct TaggedRow {
    uint64_t tag;
    Tuple row;
  };

  // Build-partition budget: a leaf is processed in memory only once its
  // build slice fits under this, otherwise it re-partitions.
  int64_t PartitionBudget() const {
    int64_t soft = ctx_->tracker()->soft_bytes();
    if (soft <= 0) return int64_t{16} << 20;
    return std::max<int64_t>(soft / 4, int64_t{16} << 10);
  }

  Status RunImpl(Relation* out) {
    // Level 0: partition both in-memory sides, one strip at a time.
    auto partition = [&](const Relation& rel, KeyChunkSet keys,
                         GraceFan* fan) -> Status {
      std::vector<uint64_t> tags;
      for (int64_t b = 0; b < rel.NumRows(); b += tuning_.chunk_rows) {
        if (ctx_->ShouldStop()) return ctx_->StopStatus();
        tags.resize(static_cast<size_t>(
            std::min(tuning_.chunk_rows, rel.NumRows() - b)));
        std::iota(tags.begin(), tags.end(), static_cast<uint64_t>(b));
        ECA_RETURN_IF_ERROR(fan->Route(rel.rows().data() + b, tags.data(),
                                       static_cast<int64_t>(tags.size()),
                                       &keys, /*depth=*/0));
      }
      return fan->FinishAll();
    };
    GraceFan build_fan(&dir_, &sstats_);
    GraceFan probe_fan(&dir_, &sstats_);
    {
      TraceSpan part_span("join/partition");
      ECA_RETURN_IF_ERROR(
          partition(build_left_ ? left_ : right_, build_keys_, &build_fan));
      ECA_RETURN_IF_ERROR(
          partition(build_left_ ? right_ : left_, probe_keys_, &probe_fan));
    }
    for (int p = 0; p < kGraceFanout; ++p) {
      ECA_RETURN_IF_ERROR(ProcessPartition(build_fan.path(p),
                                           build_fan.bytes(p),
                                           probe_fan.path(p), /*depth=*/1));
    }

    std::stable_sort(matches_.begin(), matches_.end(),
                     [](const TaggedRow& a, const TaggedRow& b) {
                       return a.tag < b.tag;
                     });
    Relation result(shape_.out_schema);
    result.mutable_rows().reserve(matches_.size());
    for (TaggedRow& m : matches_) result.Add(std::move(m.row));
    matches_.clear();
    FinishJoinOutput(op_, shape_, left_, right_, left_matched_,
                     right_matched_, fused_, &result);
    *out = std::move(result);
    return Status::OK();
  }

  // Streams a spill file, strip by strip, into a deeper fan.
  Status Repartition(const std::string& path, const KeyChunkSet& bound,
                     int depth, GraceFan* fan) {
    SpillReader reader;
    ECA_RETURN_IF_ERROR(reader.Open(path, &sstats_));
    KeyChunkSet keys = bound;
    std::vector<Tuple> strip;
    std::vector<uint64_t> tags;
    for (bool eof = false; !eof;) {
      if (ctx_->ShouldStop()) return ctx_->StopStatus();
      ECA_RETURN_IF_ERROR(
          ReadStrip(&reader, tuning_.chunk_rows, &tags, &strip, &eof));
      ECA_RETURN_IF_ERROR(fan->Route(strip.data(), tags.data(),
                                     static_cast<int64_t>(strip.size()),
                                     &keys, depth));
    }
    return Status::OK();
  }

  Status ProcessPartition(const std::string& build_path, int64_t build_bytes,
                          const std::string& probe_path, int depth) {
    // A side with no file received no rows; nothing can match, and the
    // matched flags already default to unmatched.
    if (build_path.empty() || probe_path.empty()) return Status::OK();
    if (ctx_->ShouldStop()) return ctx_->StopStatus();
    if (depth < kGraceMaxDepth && build_bytes > PartitionBudget()) {
      GraceFan build_fan(&dir_, &sstats_);
      GraceFan probe_fan(&dir_, &sstats_);
      ECA_RETURN_IF_ERROR(
          Repartition(build_path, build_keys_, depth, &build_fan));
      ECA_RETURN_IF_ERROR(
          Repartition(probe_path, probe_keys_, depth, &probe_fan));
      ECA_RETURN_IF_ERROR(build_fan.FinishAll());
      ECA_RETURN_IF_ERROR(probe_fan.FinishAll());
      for (int p = 0; p < kGraceFanout; ++p) {
        ECA_RETURN_IF_ERROR(ProcessPartition(build_fan.path(p),
                                             build_fan.bytes(p),
                                             probe_fan.path(p), depth + 1));
      }
      return Status::OK();
    }
    return ProbeLeaf(build_path, probe_path);
  }

  Status ProbeLeaf(const std::string& build_path,
                   const std::string& probe_path) {
    TraceSpan span("join/spill-probe");
    if (stats_ != nullptr) ++stats_->spilled_partitions;

    // Load the build slice, the only resident piece, charging it as it
    // grows. Local build row r is global row build_tags[r].
    ExecCharge part_charge(ctx_);
    Relation build((build_left_ ? left_ : right_).schema());
    std::vector<uint64_t> build_tags, tags;
    std::vector<Tuple> strip;
    SpillReader build_reader;
    ECA_RETURN_IF_ERROR(build_reader.Open(build_path, &sstats_));
    for (bool eof = false; !eof;) {
      ECA_RETURN_IF_ERROR(
          ReadStrip(&build_reader, tuning_.chunk_rows, &tags, &strip, &eof));
      ECA_RETURN_IF_ERROR(part_charge.Add(ApproxRowsBytes(strip),
                                          "grace-join build partition"));
      build_tags.insert(build_tags.end(), tags.begin(), tags.end());
      for (Tuple& row : strip) build.Add(std::move(row));
    }
    HashTable table(build_keys_);
    table.Build(build, /*pool=*/nullptr, tuning_, ctx_, stats_);
    std::vector<uint8_t>& probe_flags =
        build_left_ ? right_matched_ : left_matched_;
    ProbeKernel kernel(op_, table, build, build_left_, residual_, fused_,
                       probe_flags.empty() ? nullptr : probe_flags.data());

    // Stream the probe partition one strip at a time; tags are global
    // probe rows.
    SpillReader reader;
    ECA_RETURN_IF_ERROR(reader.Open(probe_path, &sstats_));
    KeyChunkSet pk = probe_keys_;
    std::vector<Tuple> emitted;
    int64_t touches = 0;
    for (bool eof = false; !eof;) {
      if (ctx_->ShouldStop()) return ctx_->StopStatus();
      ECA_RETURN_IF_ERROR(
          ReadStrip(&reader, tuning_.chunk_rows, &tags, &strip, &eof));
      const int64_t n = static_cast<int64_t>(strip.size());
      pk.Reset(n);
      int64_t out_bytes = 0;
      for (int64_t i = 0; i < n; ++i) {
        const size_t si = static_cast<size_t>(i);
        pk.ExtractRow(i, strip[si]);
        ECA_DCHECK(pk.ValidAt(i));  // NULL-key rows were never spilled
        emitted.clear();
        kernel.Probe(pk, i, strip[si], static_cast<size_t>(tags[si]),
                     &emitted, &touches);
        for (Tuple& t : emitted) {
          out_bytes += ApproxTupleBytes(t);
          matches_.push_back({tags[si], std::move(t)});
        }
      }
      ECA_RETURN_IF_ERROR(out_charge_.Add(out_bytes, "grace-join output"));
    }
    if (stats_ != nullptr) stats_->probe_comparisons += touches;
    std::vector<uint8_t>& build_flags =
        build_left_ ? left_matched_ : right_matched_;
    const std::vector<uint8_t> matched = kernel.BuildMatched();
    for (size_t r = 0; r < matched.size(); ++r) {
      if (matched[r] != 0) build_flags[static_cast<size_t>(build_tags[r])] = 1;
    }
    return Status::OK();
  }

  const JoinOp op_;
  const JoinShape& shape_;
  const KeyChunkSet& build_keys_;
  const KeyChunkSet& probe_keys_;
  const bool build_left_;
  const CompiledPredicate* residual_;
  const FusedCompChain* fused_;
  const Relation& left_;
  const Relation& right_;
  const ExecTuning tuning_;
  QueryContext* ctx_;
  ExecStats* stats_;
  SpillDir dir_;
  SpillStats sstats_;
  ExecCharge out_charge_;  // the accumulated match output (scratch here;
                           // the executor re-charges it as node output)
  std::vector<TaggedRow> matches_;  // (probe row index, output tuple)
  std::vector<uint8_t> left_matched_;
  std::vector<uint8_t> right_matched_;
};

Relation HashJoin(JoinOp op, const std::vector<EquiKey>& keys,
                  const PredRef& residual, const Relation& left,
                  const Relation& right, ExecStats* stats, ThreadPool* pool,
                  QueryContext* ctx, const ExecTuning& tuning,
                  const FusedCompChain* fused) {
  JoinShape shape = MakeShape(op, left, right);

  // Every op builds on its smaller input: matched flags are side-indexed
  // and FinishJoinOutput pads from them, so either side can host the table.
  const bool build_left = left.NumRows() < right.NumRows();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  // Both columns of one equi-key share a tag.
  std::vector<KeyColumn::Tag> tags;
  std::vector<ScalarRef> build_exprs, probe_exprs;
  for (const EquiKey& k : keys) {
    build_exprs.push_back(build_left ? k.left_expr : k.right_expr);
    probe_exprs.push_back(build_left ? k.right_expr : k.left_expr);
    tags.push_back(KeyColumn::TagFor(build_exprs.back(), build.schema(),
                                     probe_exprs.back(), probe.schema()));
  }
  KeyChunkSet build_keys, probe_keys;
  build_keys.Bind(tags, std::move(build_exprs), build.schema());
  probe_keys.Bind(tags, std::move(probe_exprs), probe.schema());

  CompiledPredicate compiled_residual;
  if (residual != nullptr) {
    compiled_residual = CompiledPredicate(residual, shape.concat_schema);
  }
  const CompiledPredicate* residual_ptr =
      residual != nullptr ? &compiled_residual : nullptr;

  // Governed runs: estimate the in-memory build index (key copies, hashes,
  // bucket entries ride on top of the row bytes). Past the soft threshold,
  // escalate to the spilling grace join; otherwise charge the estimate —
  // a hard-limit hit here unwinds the query with kResourceExhausted.
  ExecCharge build_charge(ctx);
  if (ctx != nullptr) {
    int64_t est = ApproxRowsBytes(build.rows()) + build.NumRows() * 64;
    if (ctx->tracker()->WouldExceedSoft(est)) {
      static Counter* const escalations =
          MetricsRegistry::Global().counter("governor.spill_escalate");
      escalations->Increment();
      Tracer::Instant("governor/spill-escalate", "hash-join");
      TraceSpan grace_span("join/grace");
      GraceHashJoin grace(op, shape, build_keys, probe_keys, build_left,
                          residual_ptr, fused, left, right, tuning, ctx,
                          stats);
      Relation out(shape.out_schema);
      Status s = grace.Run(&out);
      if (!s.ok()) {
        ctx->RecordError(std::move(s));
        return Relation(shape.out_schema);
      }
      return out;
    }
    Status s = build_charge.Add(est, "hash-join build index");
    if (!s.ok()) {
      ctx->RecordError(std::move(s));
      return Relation(shape.out_schema);
    }
  }

  HashTable table(build_keys);
  table.Build(build, pool, tuning, ctx, stats);
  const bool need_probe =
      build_left ? NeedsRightFlags(op) : NeedsLeftFlags(op);
  std::vector<uint8_t> probe_matched(
      need_probe ? static_cast<size_t>(probe.NumRows()) : 0, 0);
  ProbeKernel kernel(op, table, build, build_left, residual_ptr, fused,
                     need_probe ? probe_matched.data() : nullptr);

  const int64_t pn = probe.NumRows();
  MorselCursor cursor(pn, tuning.morsel_rows);
  const size_t num_morsels = static_cast<size_t>(cursor.num_morsels());
  std::vector<std::vector<Tuple>> morsel_out(num_morsels);
  std::vector<int64_t> morsel_touches(num_morsels, 0);

  auto probe_worker = [&](int) {
    KeyChunkSet pk = probe_keys;  // per-worker columnar key scratch
    // Per-worker governor charge for buffered output (scratch; the
    // executor re-charges the merged relation as node output). A failed
    // charge records the error and every worker sees ShouldStop() at its
    // next morsel boundary.
    ExecCharge out_charge(ctx);
    int64_t begin, end, morsel;
    while (cursor.Next(&begin, &end, &morsel)) {
      if (ctx != nullptr && ctx->ShouldStop()) return;
      std::vector<Tuple>& out = morsel_out[static_cast<size_t>(morsel)];
      int64_t touches = 0;
      for (int64_t cb = begin; cb < end; cb += tuning.chunk_rows) {
        const int64_t cn = std::min(cb + tuning.chunk_rows, end) - cb;
        pk.Reset(cn);
        for (int64_t i = 0; i < cn; ++i) {
          const size_t pi = static_cast<size_t>(cb + i);
          pk.ExtractRow(i, probe.rows()[pi]);
          if (pk.ValidAt(i)) {
            kernel.Probe(pk, i, probe.rows()[pi], pi, &out, &touches);
          }
        }
      }
      morsel_touches[static_cast<size_t>(morsel)] = touches;
      if (ctx != nullptr) {
        Status s = out_charge.Add(ApproxRowsBytes(out), "hash-join output");
        if (!s.ok()) {
          ctx->RecordError(std::move(s));
          return;
        }
      }
    }
  };
  {
    TraceSpan probe_span("join/probe");
    if (probe_span.active()) {
      probe_span.AppendArg("rows", static_cast<long long>(pn));
    }
    if (pool != nullptr && pool->num_threads() > 1) {
      pool->RunOnWorkers(probe_worker);
    } else {
      probe_worker(0);
    }
  }
  if (stats != nullptr) {
    for (int64_t touches : morsel_touches) stats->probe_comparisons += touches;
  }

  // Morsel-ordered merge, then the sequential padding/side phase.
  Relation out(shape.out_schema);
  size_t total = 0;
  for (const auto& part : morsel_out) total += part.size();
  out.mutable_rows().reserve(total);
  for (auto& part : morsel_out) {
    for (Tuple& t : part) out.Add(std::move(t));
  }
  const std::vector<uint8_t> build_matched = kernel.BuildMatched();
  FinishJoinOutput(op, shape, left, right,
                   build_left ? build_matched : probe_matched,
                   build_left ? probe_matched : build_matched, fused, &out);
  return out;
}

Relation SortMergeJoin(JoinOp op, const std::vector<EquiKey>& keys,
                       const PredRef& residual, const Relation& left,
                       const Relation& right, ExecStats* stats,
                       QueryContext* ctx = nullptr,
                       const FusedCompChain* fused = nullptr) {
  JoinShape shape = MakeShape(op, left, right);
  JoinEmitter emitter(op, shape, left, right, fused);

  KeyEvaluator lkeys, rkeys;
  std::vector<ScalarRef> lexprs, rexprs;
  for (const EquiKey& k : keys) {
    lexprs.push_back(k.left_expr);
    rexprs.push_back(k.right_expr);
  }
  lkeys.Bind(std::move(lexprs), left.schema());
  rkeys.Bind(std::move(rexprs), right.schema());

  CompiledPredicate compiled_residual;
  bool have_residual = residual != nullptr;
  if (have_residual) {
    compiled_residual = CompiledPredicate(residual, shape.concat_schema);
  }

  struct Entry {
    std::vector<Value> key;
    int64_t row;
  };
  auto collect = [](const KeyEvaluator& ke, const Relation& rel) {
    std::vector<Entry> out;
    std::vector<Value> kv;
    for (int64_t i = 0; i < rel.NumRows(); ++i) {
      if (ke.Eval(rel.rows()[static_cast<size_t>(i)], &kv)) {
        out.push_back({kv, i});
      }
      // Rows with NULL keys never match; their outer/anti handling comes
      // from the matched flags defaulting to false.
    }
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return CompareTuples(a.key, b.key) < 0;
    });
    return out;
  };
  std::vector<Entry> ls = collect(lkeys, left);
  std::vector<Entry> rs = collect(rkeys, right);

  // Governed runs charge the sorted key arrays (the algorithm's resident
  // scratch); a hard-limit hit unwinds cleanly before the merge starts.
  ExecCharge key_charge(ctx);
  if (ctx != nullptr) {
    int64_t est = static_cast<int64_t>((ls.size() + rs.size()) *
                                       (sizeof(Entry) + 64));
    Status s = key_charge.Add(est, "sort-merge join keys");
    if (!s.ok()) {
      ctx->RecordError(std::move(s));
      return Relation(shape.out_schema);
    }
  }

  size_t i = 0, j = 0;
  int64_t steps = 0;
  while (i < ls.size() && j < rs.size()) {
    if (ctx != nullptr && (++steps & 1023) == 0 && ctx->ShouldStop()) break;
    int c = CompareTuples(ls[i].key, rs[j].key);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      size_t i_end = i;
      while (i_end < ls.size() && CompareTuples(ls[i_end].key, ls[i].key) == 0)
        ++i_end;
      size_t j_end = j;
      while (j_end < rs.size() && CompareTuples(rs[j_end].key, rs[j].key) == 0)
        ++j_end;
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          if (stats != nullptr) ++stats->probe_comparisons;
          bool match = true;
          if (have_residual) {
            Tuple t = ConcatTuples(
                left.rows()[static_cast<size_t>(ls[a].row)],
                right.rows()[static_cast<size_t>(rs[b].row)]);
            match = compiled_residual.EvalTrue(t);
          }
          if (match) emitter.Match(ls[a].row, rs[b].row);
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return emitter.Finish();
}

}  // namespace

Schema JoinOutputSchema(JoinOp op, const Schema& left, const Schema& right) {
  switch (op) {
    case JoinOp::kLeftSemi:
    case JoinOp::kLeftAnti:
      return left;
    case JoinOp::kRightSemi:
    case JoinOp::kRightAnti:
      return right;
    default:
      return left.Concat(right);
  }
}

Relation EvalJoinNaive(JoinOp op, const PredRef& pred, const Relation& left,
                       const Relation& right) {
  return NestedLoopJoin(op, pred, left, right, nullptr);
}

Relation EvalJoin(JoinOp op, const PredRef& pred, const Relation& left,
                  const Relation& right, Executor::JoinPreference pref,
                  ExecStats* stats, ThreadPool* pool, QueryContext* ctx,
                  const ExecTuning* tuning, const FusedCompChain* fused) {
  const ExecTuning t = tuning != nullptr ? tuning->Clamped() : ExecTuning();
  if (fused != nullptr && fused->empty()) fused = nullptr;
  if (pred == nullptr) {
    return NestedLoopJoin(op, pred, left, right, stats, ctx, fused);
  }
  std::vector<EquiKey> keys;
  PredRef residual;
  SplitEquiKeys(pred, left.schema().rels(), right.schema().rels(), &keys,
                &residual);
  if (keys.empty()) {
    return NestedLoopJoin(op, pred, left, right, stats, ctx, fused);
  }
  if (pref == Executor::JoinPreference::kSortMerge) {
    return SortMergeJoin(op, keys, residual, left, right, stats, ctx, fused);
  }
  return HashJoin(op, keys, residual, left, right, stats, pool, ctx, t,
                  fused);
}

}  // namespace eca
