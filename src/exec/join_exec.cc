#include <algorithm>
#include <atomic>
#include <unordered_map>
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
  switch (op) {
    case JoinOp::kLeftSemi:
    case JoinOp::kLeftAnti:
      shape.out_schema = left.schema();
      break;
    case JoinOp::kRightSemi:
    case JoinOp::kRightAnti:
      shape.out_schema = right.schema();
      break;
    default:
      shape.out_schema = shape.concat_schema;
      break;
  }
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

// --- Morsel-driven vectorized hash join -----------------------------------
//
// The build side goes into ONE open-addressing table shared by all
// workers: keys are extracted into typed flat columns (KeyChunkSet) and
// inserted with a single compare-exchange per row, in the same morsel
// pass that evaluates the keys. There is no scatter phase, no
// per-partition table build, and — crucially — none of the two barrier
// pairs the old partitioned build ran per join, which dominated runtime
// at small-to-medium build sides and made adding threads a net loss.
//
// Determinism: CAS insertion order varies across runs, but the table is
// only a *set* of row indexes per key — the probe collects every matching
// build row from the linear-probe cluster and sorts the (usually 0- or
// 1-element) match list ascending, restoring the increasing-build-row
// emit order the row engine produced. Probe output is buffered per morsel
// and concatenated in morsel-index order, and morsel boundaries depend
// only on (rows, morsel_rows) — so output bytes are identical for every
// thread count.

struct JoinTable {
  KeyChunkSet keys;                         // columnar build-side keys
  std::vector<std::atomic<int64_t>> slots;  // open addressing; -1 = empty
  uint64_t mask = 0;                        // slots.size() - 1 (power of 2)
};

void BuildJoinTable(const Relation& rel, const std::vector<int>& col_idx,
                    const std::vector<ScalarRef>& exprs,
                    const std::vector<KeyColumn::Tag>& tags, ThreadPool* pool,
                    const ExecTuning& tuning, QueryContext* ctx,
                    ExecStats* stats, JoinTable* table) {
  TraceSpan span("join/build");
  const int64_t n = rel.NumRows();
  if (span.active()) span.AppendArg("rows", static_cast<long long>(n));
  table->keys.Reset(tags, n);
  int64_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  table->slots = std::vector<std::atomic<int64_t>>(static_cast<size_t>(cap));
  for (auto& s : table->slots) s.store(-1, std::memory_order_relaxed);
  table->mask = static_cast<uint64_t>(cap - 1);

  // One fused pass: extract the morsel's keys into the typed columns and
  // CAS each valid row into the table. Load factor stays <= 0.5, so
  // linear-probe clusters are short. Each worker counts the rows it
  // inserts into its own slot; the sum is hash_build_rows.
  MorselCursor cursor(n, tuning.morsel_rows);
  const bool parallel = pool != nullptr && pool->num_threads() > 1;
  std::vector<int64_t> inserted(
      static_cast<size_t>(parallel ? pool->num_threads() : 1), 0);
  auto build_worker = [&](int worker) {
    int64_t begin, end, morsel;
    int64_t count = 0;
    while (cursor.Next(&begin, &end, &morsel)) {
      if (ctx != nullptr && ctx->ShouldStop()) break;
      for (int64_t r = begin; r < end; ++r) {
        table->keys.ExtractRow(r, rel.rows()[static_cast<size_t>(r)], col_idx,
                               exprs, rel.schema());
        if (!table->keys.ValidAt(r)) continue;
        uint64_t idx =
            table->keys.hashes[static_cast<size_t>(r)] & table->mask;
        int64_t expected = -1;
        while (!table->slots[idx].compare_exchange_strong(
            expected, r, std::memory_order_release,
            std::memory_order_relaxed)) {
          expected = -1;
          idx = (idx + 1) & table->mask;
        }
        ++count;
      }
    }
    inserted[static_cast<size_t>(worker)] = count;
  };
  if (parallel) {
    pool->RunOnWorkers(build_worker);
  } else {
    build_worker(0);
  }
  if (stats != nullptr) {
    for (int64_t c : inserted) stats->hash_build_rows += c;
  }
}

// --- Grace (spilling) hash join -------------------------------------------
//
// The escalation target when a governed hash join's build side would push
// the memory tracker past its soft threshold: both sides are hash-
// partitioned to temp files (rows with NULL keys never spill — they cannot
// match and their outer/anti handling comes from the matched flags), then
// each partition is joined independently with only its build slice
// resident. A partition whose build side still exceeds the budget is
// re-partitioned recursively on the next 4 hash bits. Peak memory is one
// build partition plus the output.
//
// Output stays byte-identical to the in-memory join: the in-memory probe
// emits matches in ascending (probe row, build row) order — all matches of
// one probe row share its key, hence its hash, hence one bucket whose
// build rows are inserted in increasing row order. Here every spilled row
// carries its global row index as the record tag, partitioning preserves
// relative order per partition, all matches of one probe row land in one
// partition, and a final stable sort on the probe index restores the
// global order. The matched-flag arrays are global, so the sequential
// FinishJoinOutput padding phase is identical too.

constexpr int kGraceFanout = 16;  // partitions per level: 4 hash bits
constexpr int kGraceMaxDepth = 8;  // beyond this, process in memory

size_t GracePartOf(uint64_t h, int depth) {
  return static_cast<size_t>(
      (h >> (4 * depth)) & static_cast<uint64_t>(kGraceFanout - 1));
}

// Lazily-opened fan of partition files for one side of one level.
class GraceFan {
 public:
  GraceFan(SpillDir* dir, SpillStats* stats) : dir_(dir), stats_(stats) {}

  Status Add(size_t part, uint64_t tag, const Tuple& row) {
    SpillWriter& w = writers_[part];
    if (paths_[part].empty()) {
      ECA_ASSIGN_OR_RETURN(std::string path, dir_->NextFilePath());
      ECA_RETURN_IF_ERROR(w.Open(path, stats_));
      paths_[part] = std::move(path);
    }
    return w.Append(tag, row);
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
                const KeyEvaluator& build_keys, const KeyEvaluator& probe_keys,
                bool build_left, const CompiledPredicate* residual,
                const FusedCompChain* fused, const Relation& left,
                const Relation& right, QueryContext* ctx, ExecStats* stats)
      : op_(op),
        shape_(shape),
        build_keys_(build_keys),
        probe_keys_(probe_keys),
        build_left_(build_left),
        residual_(residual),
        fused_(fused),
        left_(left),
        right_(right),
        build_(build_left ? left : right),
        probe_(build_left ? right : left),
        ctx_(ctx),
        stats_(stats),
        dir_("eca-grace", ctx->spill_dir()),
        out_charge_(ctx) {
    if (NeedsLeftFlags(op)) {
      left_matched_.assign(static_cast<size_t>(left.NumRows()), 0);
    }
    if (NeedsRightFlags(op)) {
      right_matched_.assign(static_cast<size_t>(right.NumRows()), 0);
    }
  }

  Status Run(Relation* out) {
    SpillStats before = sstats_;
    Status s = RunImpl(out);
    if (stats_ != nullptr) {
      stats_->spill_bytes += sstats_.bytes_written - before.bytes_written;
      stats_->spill_read_bytes += sstats_.bytes_read - before.bytes_read;
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
    // Level 0: partition both in-memory sides.
    GraceFan build_fan(&dir_, &sstats_);
    GraceFan probe_fan(&dir_, &sstats_);
    {
      TraceSpan part_span("join/partition");
      ECA_RETURN_IF_ERROR(PartitionRelation(build_, build_keys_, &build_fan));
      ECA_RETURN_IF_ERROR(PartitionRelation(probe_, probe_keys_, &probe_fan));
      ECA_RETURN_IF_ERROR(build_fan.FinishAll());
      ECA_RETURN_IF_ERROR(probe_fan.FinishAll());
    }

    for (int p = 0; p < kGraceFanout; ++p) {
      ECA_RETURN_IF_ERROR(ProcessPartition(build_fan.path(p),
                                           build_fan.bytes(p),
                                           probe_fan.path(p), /*depth=*/1));
    }

    // Stable sort on the probe index restores the in-memory emit order
    // (within one probe row, partition-local order is already ascending
    // build index, and one probe row's matches live in one partition).
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

  Status PartitionRelation(const Relation& rel, const KeyEvaluator& ke,
                           GraceFan* fan) {
    std::vector<Value> kv;
    for (int64_t r = 0; r < rel.NumRows(); ++r) {
      if ((r & 4095) == 0 && ctx_->ShouldStop()) return ctx_->StopStatus();
      const Tuple& row = rel.rows()[static_cast<size_t>(r)];
      if (!ke.Eval(row, &kv)) continue;  // NULL keys never match
      uint64_t h = HashTuple(kv);
      ECA_RETURN_IF_ERROR(
          fan->Add(GracePartOf(h, 0), static_cast<uint64_t>(r), row));
    }
    return Status::OK();
  }

  // Streams a spill file through the key evaluator into a deeper fan.
  Status Repartition(const std::string& path, const KeyEvaluator& ke,
                     int depth, GraceFan* fan) {
    SpillReader reader;
    ECA_RETURN_IF_ERROR(reader.Open(path, &sstats_));
    std::vector<Value> kv;
    uint64_t tag = 0;
    Tuple row;
    bool eof = false;
    int64_t n = 0;
    while (true) {
      ECA_RETURN_IF_ERROR(reader.Next(&tag, &row, &eof));
      if (eof) break;
      if ((++n & 4095) == 0 && ctx_->ShouldStop()) return ctx_->StopStatus();
      bool valid = ke.Eval(row, &kv);
      ECA_DCHECK(valid);  // NULL-key rows were never spilled
      (void)valid;
      ECA_RETURN_IF_ERROR(
          fan->Add(GracePartOf(HashTuple(kv), depth), tag, row));
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

    // Load the build slice (the only resident piece) and key it by hash;
    // file order is ascending global row index, so bucket vectors are too.
    ExecCharge part_charge(ctx_);
    int64_t pending = 0;
    std::vector<TaggedRow> build_rows;
    std::vector<std::vector<Value>> build_kvs;
    std::unordered_map<uint64_t, std::vector<size_t>> table;
    {
      SpillReader reader;
      ECA_RETURN_IF_ERROR(reader.Open(build_path, &sstats_));
      uint64_t tag = 0;
      Tuple row;
      bool eof = false;
      std::vector<Value> kv;
      while (true) {
        ECA_RETURN_IF_ERROR(reader.Next(&tag, &row, &eof));
        if (eof) break;
        bool valid = build_keys_.Eval(row, &kv);
        ECA_DCHECK(valid);
        (void)valid;
        pending += ApproxTupleBytes(row);
        if (pending >= (64 << 10)) {
          ECA_RETURN_IF_ERROR(
              part_charge.Add(pending, "grace-join build partition"));
          pending = 0;
        }
        table[HashTuple(kv)].push_back(build_rows.size());
        build_rows.push_back({tag, std::move(row)});
        build_kvs.push_back(kv);
        row = Tuple();
      }
    }
    ECA_RETURN_IF_ERROR(
        part_charge.Add(pending, "grace-join build partition"));
    if (stats_ != nullptr) {
      stats_->hash_build_rows += static_cast<int64_t>(build_rows.size());
    }

    // Stream the probe side; nothing but the current row is resident.
    const bool need_build = build_left_ ? !left_matched_.empty()
                                        : !right_matched_.empty();
    const bool need_probe = build_left_ ? !right_matched_.empty()
                                        : !left_matched_.empty();
    std::vector<uint8_t>& build_flags =
        build_left_ ? left_matched_ : right_matched_;
    std::vector<uint8_t>& probe_flags =
        build_left_ ? right_matched_ : left_matched_;
    const bool emit_pairs = !OutputsOneSide(op_);

    SpillReader reader;
    ECA_RETURN_IF_ERROR(reader.Open(probe_path, &sstats_));
    uint64_t ptag = 0;
    Tuple prow;
    bool eof = false;
    std::vector<Value> kv;
    int64_t n = 0;
    int64_t out_pending = 0;
    while (true) {
      ECA_RETURN_IF_ERROR(reader.Next(&ptag, &prow, &eof));
      if (eof) break;
      if ((++n & 1023) == 0 && ctx_->ShouldStop()) return ctx_->StopStatus();
      bool valid = probe_keys_.Eval(prow, &kv);
      ECA_DCHECK(valid);
      (void)valid;
      auto it = table.find(HashTuple(kv));
      if (it == table.end()) continue;
      bool first_equal = true;
      for (size_t bi : it->second) {
        if (stats_ != nullptr) ++stats_->probe_comparisons;
        const std::vector<Value>& bk = build_kvs[bi];
        bool key_equal = kv.size() == bk.size();
        for (size_t i = 0; key_equal && i < kv.size(); ++i) {
          if (!kv[i].SameAs(bk[i])) key_equal = false;
        }
        if (!key_equal) continue;
        // Semi/anti keeping the build side, as in the in-memory probe: a
        // flagged first key-equal row means its whole key is flagged.
        const bool was_first = first_equal;
        first_equal = false;
        uint8_t* build_flag =
            need_build ? &build_flags[static_cast<size_t>(build_rows[bi].tag)]
                       : nullptr;
        if (!emit_pairs && build_flag != nullptr && *build_flag != 0) {
          if (residual_ == nullptr && was_first) break;
          continue;
        }
        const Tuple& brow = build_rows[bi].row;
        const Tuple& lrow = build_left_ ? brow : prow;
        const Tuple& rrow = build_left_ ? prow : brow;
        if (residual_ != nullptr &&
            !residual_->EvalTrue(ConcatTuples(lrow, rrow))) {
          continue;
        }
        if (need_probe) probe_flags[static_cast<size_t>(ptag)] = 1;
        if (build_flag != nullptr) *build_flag = 1;
        // Semi/anti keeping the probe side: the first qualifying match
        // decides the row.
        if (!emit_pairs && need_probe) break;
        if (emit_pairs) {
          Tuple t = ConcatTuples(lrow, rrow);
          // The fused chain applies per emitted row here exactly as in the
          // in-memory probe, so escalation stays byte-identical.
          if (fused_ != nullptr && !fused_->Apply(&t)) continue;
          out_pending += ApproxTupleBytes(t);
          matches_.push_back({ptag, std::move(t)});
          if (out_pending >= (64 << 10)) {
            ECA_RETURN_IF_ERROR(
                out_charge_.Add(out_pending, "grace-join output"));
            out_pending = 0;
          }
        }
      }
    }
    return out_charge_.Add(out_pending, "grace-join output");
  }

  const JoinOp op_;
  const JoinShape& shape_;
  const KeyEvaluator& build_keys_;
  const KeyEvaluator& probe_keys_;
  const bool build_left_;
  const CompiledPredicate* residual_;
  const FusedCompChain* fused_;
  const Relation& left_;
  const Relation& right_;
  const Relation& build_;
  const Relation& probe_;
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

  // Build on the smaller input where the operator allows it. Inner, semi
  // and anti joins track matches through side-indexed flags, so either
  // side can host the table; the outer variants keep the historical
  // build-right shape (their padding phase reads the flags either way,
  // but a stable choice keeps plans' observable row order predictable).
  bool build_left = false;
  switch (op) {
    case JoinOp::kInner:
    case JoinOp::kLeftSemi:
    case JoinOp::kRightSemi:
    case JoinOp::kLeftAnti:
    case JoinOp::kRightAnti:
      build_left = left.NumRows() < right.NumRows();
      break;
    default:
      break;
  }
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;

  KeyEvaluator lkeys, rkeys;
  std::vector<ScalarRef> lexprs, rexprs;
  for (const EquiKey& k : keys) {
    lexprs.push_back(k.left_expr);
    rexprs.push_back(k.right_expr);
  }
  lkeys.Bind(std::move(lexprs), left.schema());
  rkeys.Bind(std::move(rexprs), right.schema());
  const KeyEvaluator& build_keys = build_left ? lkeys : rkeys;
  const KeyEvaluator& probe_keys = build_left ? rkeys : lkeys;

  CompiledPredicate compiled_residual;
  bool have_residual = residual != nullptr;
  if (have_residual) {
    compiled_residual = CompiledPredicate(residual, shape.concat_schema);
  }

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
                          have_residual ? &compiled_residual : nullptr, fused,
                          left, right, ctx, stats);
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

  // Shared key-pair tags; bound column indexes come from the evaluators.
  std::vector<KeyColumn::Tag> tags;
  tags.reserve(keys.size());
  for (const EquiKey& k : keys) {
    const ScalarRef& be = build_left ? k.left_expr : k.right_expr;
    const ScalarRef& pe = build_left ? k.right_expr : k.left_expr;
    tags.push_back(
        KeyColumn::TagFor(be, build.schema(), pe, probe.schema()));
  }

  JoinTable table;
  BuildJoinTable(build, build_keys.col_fastpath, build_keys.exprs, tags, pool,
                 tuning, ctx, stats, &table);

  // Matched flags. Probe-side flags are written by exactly one morsel per
  // row (morsels are disjoint), so plain bytes suffice; build-side rows
  // can match concurrently in several probe morsels, so those flags are
  // relaxed atomics (all writers store 1 — order is irrelevant).
  const bool need_left = NeedsLeftFlags(op);
  const bool need_right = NeedsRightFlags(op);
  const bool need_build = build_left ? need_left : need_right;
  const bool need_probe = build_left ? need_right : need_left;
  const bool emit_pairs = !OutputsOneSide(op);
  std::vector<uint8_t> probe_matched(
      need_probe ? static_cast<size_t>(probe.NumRows()) : 0, 0);
  std::vector<std::atomic<uint8_t>> build_matched(
      need_build ? static_cast<size_t>(build.NumRows()) : 0);
  for (auto& f : build_matched) f.store(0, std::memory_order_relaxed);

  const int64_t pn = probe.NumRows();
  MorselCursor cursor(pn, tuning.morsel_rows);
  const size_t num_morsels = static_cast<size_t>(cursor.num_morsels());
  std::vector<std::vector<Tuple>> morsel_out(emit_pairs ? num_morsels : 0);
  std::vector<int64_t> morsel_comparisons(num_morsels, 0);

  auto probe_worker = [&](int) {
    KeyChunkSet pk;                 // per-worker columnar key scratch
    std::vector<int64_t> matches;   // build rows matching one probe row
    // Per-worker governor charge for buffered output (scratch; the
    // executor re-charges the merged relation as node output). A failed
    // charge records the error and every worker sees ShouldStop() at its
    // next morsel boundary.
    ExecCharge out_charge(ctx);
    int64_t pending = 0;
    int64_t begin, end, morsel;
    while (cursor.Next(&begin, &end, &morsel)) {
      if (ctx != nullptr) {
        if (ctx->ShouldStop()) return;
        if (pending >= (64 << 10)) {
          Status s = out_charge.Add(pending, "hash-join output");
          pending = 0;
          if (!s.ok()) {
            ctx->RecordError(std::move(s));
            return;
          }
        }
      }
      std::vector<Tuple>* out =
          emit_pairs ? &morsel_out[static_cast<size_t>(morsel)] : nullptr;
      int64_t comparisons = 0;
      for (int64_t cb = begin; cb < end; cb += tuning.chunk_rows) {
        const int64_t ce = std::min(cb + tuning.chunk_rows, end);
        const int64_t cn = ce - cb;
        pk.Reset(tags, cn);
        for (int64_t i = 0; i < cn; ++i) {
          pk.ExtractRow(i, probe.rows()[static_cast<size_t>(cb + i)],
                        probe_keys.col_fastpath, probe_keys.exprs,
                        probe.schema());
        }
        for (int64_t i = 0; i < cn; ++i) {
          if (!pk.ValidAt(i)) continue;
          const uint64_t h = pk.hashes[static_cast<size_t>(i)];
          const int64_t pi = cb + i;
          const Tuple& prow = probe.rows()[static_cast<size_t>(pi)];
          auto qualifies = [&](int64_t bi) {
            if (!have_residual) return true;
            const Tuple& brow = build.rows()[static_cast<size_t>(bi)];
            return compiled_residual.EvalTrue(build_left
                                                  ? ConcatTuples(brow, prow)
                                                  : ConcatTuples(prow, brow));
          };
          uint64_t idx = h & table.mask;
          matches.clear();
          bool first_equal = true;
          for (;;) {
            int64_t br = table.slots[idx].load(std::memory_order_acquire);
            if (br < 0) break;
            idx = (idx + 1) & table.mask;
            if (table.keys.hashes[static_cast<size_t>(br)] != h) continue;
            ++comparisons;
            if (!table.keys.RowEqual(br, pk, i)) continue;
            if (emit_pairs) {
              matches.push_back(br);
            } else if (need_probe) {
              // Semi/anti keeping the probe side: the first qualifying
              // match decides the row.
              if (qualifies(br)) {
                probe_matched[static_cast<size_t>(pi)] = 1;
                break;
              }
            } else {
              // Semi/anti keeping the build side. Without a residual every
              // key-equal build row is flagged by the first probe row of
              // its key, which flags the chain's first key-equal row first.
              std::atomic<uint8_t>& flag =
                  build_matched[static_cast<size_t>(br)];
              if (flag.load(std::memory_order_relaxed) != 0) {
                if (!have_residual && first_equal) break;
              } else if (qualifies(br)) {
                flag.store(1, std::memory_order_relaxed);
              }
              first_equal = false;
            }
          }
          if (!emit_pairs) continue;
          // CAS insertion order is nondeterministic; ascending build-row
          // order per probe row restores the row engine's emit order.
          if (matches.size() > 1) std::sort(matches.begin(), matches.end());
          for (int64_t bi : matches) {
            if (!qualifies(bi)) continue;
            if (need_probe) probe_matched[static_cast<size_t>(pi)] = 1;
            if (need_build) {
              build_matched[static_cast<size_t>(bi)].store(
                  1, std::memory_order_relaxed);
            }
            const Tuple& brow = build.rows()[static_cast<size_t>(bi)];
            Tuple t = build_left ? ConcatTuples(brow, prow)
                                 : ConcatTuples(prow, brow);
            if (fused == nullptr || fused->Apply(&t)) {
              if (ctx != nullptr) pending += ApproxTupleBytes(t);
              out->push_back(std::move(t));
            }
          }
        }
      }
      morsel_comparisons[static_cast<size_t>(morsel)] = comparisons;
    }
    if (ctx != nullptr && pending > 0) {
      Status s = out_charge.Add(pending, "hash-join output");
      if (!s.ok()) ctx->RecordError(std::move(s));
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
    for (int64_t comparisons : morsel_comparisons) {
      stats->probe_comparisons += comparisons;
    }
  }

  // Morsel-ordered merge, then the sequential padding/side phase.
  Relation out(shape.out_schema);
  if (emit_pairs) {
    size_t total = 0;
    for (const auto& part : morsel_out) total += part.size();
    out.mutable_rows().reserve(total);
    for (auto& part : morsel_out) {
      for (Tuple& t : part) out.Add(std::move(t));
    }
  }
  std::vector<uint8_t> left_matched(
      need_left ? static_cast<size_t>(left.NumRows()) : 0, 0);
  std::vector<uint8_t> right_matched(
      need_right ? static_cast<size_t>(right.NumRows()) : 0, 0);
  std::vector<uint8_t>& build_out = build_left ? left_matched : right_matched;
  std::vector<uint8_t>& probe_out = build_left ? right_matched : left_matched;
  for (size_t i = 0; i < build_matched.size(); ++i) {
    build_out[i] = build_matched[i].load(std::memory_order_relaxed);
  }
  if (need_probe) probe_out = std::move(probe_matched);
  FinishJoinOutput(op, shape, left, right, left_matched, right_matched, fused,
                   &out);
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
