#include <algorithm>
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

// Null mask of a tuple packed into words (bit i set = column i is NULL).
// Distinct patterns (map keys) keep this owning form; per-row masks live
// in a NullMaskMatrix (one flat allocation, no per-row heap traffic) and
// are compared against patterns word-by-word.
using NullMask = std::vector<uint64_t>;

int Popcount(const NullMask& m) {
  int c = 0;
  for (uint64_t w : m) c += __builtin_popcountll(w);
  return c;
}

// Copies row `r`'s mask words into `out` (reusing its storage).
void MaskFromMatrix(const NullMaskMatrix& m, int64_t r, NullMask* out) {
  const uint64_t* w = m.row(r);
  out->assign(w, w + m.words_per_row());
}

bool RowMaskEquals(const NullMaskMatrix& m, int64_t r, const NullMask& p) {
  const uint64_t* w = m.row(r);
  for (size_t i = 0; i < m.words_per_row(); ++i) {
    if (w[i] != p[i]) return false;
  }
  return true;
}

bool RowMasksEqual(const NullMaskMatrix& m, int64_t a, int64_t b) {
  const uint64_t* wa = m.row(a);
  const uint64_t* wb = m.row(b);
  for (size_t i = 0; i < m.words_per_row(); ++i) {
    if (wa[i] != wb[i]) return false;
  }
  return true;
}

// True if every null position of `a` is also null in `b` (a's null set is a
// subset of b's).
bool MaskSubset(const NullMask& a, const NullMask& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

struct MaskHash {
  size_t operator()(const NullMask& m) const {
    uint64_t h = 1469598103934665603ULL;
    for (uint64_t w : m) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Projection of `t` onto the non-null positions of mask `p`.
Tuple ProjectNonNull(const Tuple& t, const NullMask& p) {
  Tuple out;
  for (size_t i = 0; i < t.size(); ++i) {
    if (((p[i / 64] >> (i % 64)) & 1) == 0) out.push_back(t[i]);
  }
  return out;
}

// Hash-keyed multiset of tuples with exact-equality verification.
class TupleSet {
 public:
  // Returns true if an equal tuple was already present; inserts otherwise.
  bool InsertCheck(const Tuple& t) {
    auto& bucket = map_[HashTuple(t)];
    for (const Tuple& u : bucket) {
      if (CompareTuples(t, u) == 0) return true;
    }
    bucket.push_back(t);
    return false;
  }

  bool Contains(const Tuple& t) const {
    auto it = map_.find(HashTuple(t));
    if (it == map_.end()) return false;
    for (const Tuple& u : it->second) {
      if (CompareTuples(t, u) == 0) return true;
    }
    return false;
  }

  void Insert(const Tuple& t) {
    auto& bucket = map_[HashTuple(t)];
    bucket.push_back(t);
  }

 private:
  std::unordered_map<uint64_t, std::vector<Tuple>> map_;
};

// The paper's sort-based best-match (Section 6.1, the strategy behind
// CBA's SQL implementation) and EvalBeta's governed spill path. For each
// distinct null pattern P, sort the rows with P's non-NULL columns first
// (then the rest), NULLS LAST per column: every pattern-P tuple that has a
// dominator or duplicate then immediately follows a surviving one, and a
// single scan eliminates it. One sort per pattern makes the elimination
// exact; the paper's remark that "more than one sorting" may be needed
// corresponds to inputs with several patterns. Each sort runs through
// ExternalRowSorter, so resident memory is bounded by one sort run no
// matter the input size. The sorter breaks ties by tag (ascending input
// row index) and the scan reads rows back via their index, so the keep[]
// decisions, the output rows and their order are the ones the in-memory
// pattern-grouped EvalBeta produces.
Relation EvalBetaExternal(const Relation& in, QueryContext* ctx,
                          ExecStats* stats) {
  TraceSpan span("comp/beta-external");
  if (span.active()) {
    span.AppendArg("rows", static_cast<long long>(in.NumRows()));
  }
  const int num_cols = in.schema().NumColumns();
  NullMaskMatrix masks;
  masks.Build(in);
  std::unordered_map<NullMask, int, MaskHash> patterns;
  std::vector<bool> keep(static_cast<size_t>(in.NumRows()), true);
  NullMask mscratch;
  for (int64_t i = 0; i < in.NumRows(); ++i) {
    if (masks.NullCount(i) == num_cols && num_cols > 0) {
      keep[static_cast<size_t>(i)] = false;  // all-NULL convention
      continue;
    }
    MaskFromMatrix(masks, i, &mscratch);
    patterns.emplace(mscratch, 1);
  }

  SpillDir dir("eca-beta", ctx->spill_dir());
  SpillStats sstats;
  const int64_t soft = ctx->tracker()->soft_bytes();
  const int64_t run_bytes =
      soft > 0 ? std::max<int64_t>(soft / 8, int64_t{64} << 10)
               : int64_t{16} << 20;
  ExecCharge run_charge(ctx);
  Status status = run_charge.Add(run_bytes, "beta external-sort run");

  for (const auto& [pattern, unused] : patterns) {
    if (!status.ok()) break;
    (void)unused;
    std::vector<int> key_cols;
    key_cols.reserve(static_cast<size_t>(num_cols));
    for (int c = 0; c < num_cols; ++c) {  // non-NULL-in-P columns first
      if (((pattern[static_cast<size_t>(c) / 64] >> (c % 64)) & 1) == 0) {
        key_cols.push_back(c);
      }
    }
    size_t agree_prefix = key_cols.size();
    for (int c = 0; c < num_cols; ++c) {
      if (((pattern[static_cast<size_t>(c) / 64] >> (c % 64)) & 1) == 1) {
        key_cols.push_back(c);
      }
    }
    auto value_less = [&key_cols](const Tuple& ta, const Tuple& tb) {
      for (int c : key_cols) {
        const Value& va = ta[static_cast<size_t>(c)];
        const Value& vb = tb[static_cast<size_t>(c)];
        if (va.is_null() != vb.is_null()) return vb.is_null();
        if (va.is_null()) continue;
        int cmp = va.Compare(vb);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    };
    ExternalRowSorter sorter(&dir, value_less, run_bytes, &sstats);
    for (int64_t i = 0; i < in.NumRows() && status.ok(); ++i) {
      if (keep[static_cast<size_t>(i)]) {
        status = sorter.Add(static_cast<uint64_t>(i),
                            in.rows()[static_cast<size_t>(i)]);
      }
    }
    if (!status.ok()) break;
    int64_t prev = -1;
    int64_t seen = 0;
    status = sorter.Drain([&](uint64_t tag, Tuple&) -> Status {
      if ((++seen & 1023) == 0 && ctx->ShouldStop()) {
        return ctx->StopStatus();
      }
      int64_t idx = static_cast<int64_t>(tag);
      if (prev >= 0 && RowMaskEquals(masks, idx, pattern)) {
        const Tuple& t = in.rows()[static_cast<size_t>(idx)];
        const Tuple& p = in.rows()[static_cast<size_t>(prev)];
        bool agree = true;
        for (size_t k = 0; k < agree_prefix; ++k) {
          int c = key_cols[k];
          const Value& vp = p[static_cast<size_t>(c)];
          if (vp.is_null() || !vp.SameAs(t[static_cast<size_t>(c)])) {
            agree = false;
            break;
          }
        }
        if (agree && masks.NullCount(prev) <= masks.NullCount(idx)) {
          // Dominated (strictly fewer NULLs) or duplicate (equal pattern
          // and full agreement: prefix agreement, both NULL elsewhere).
          bool duplicate = RowMasksEqual(masks, prev, idx);
          bool dominated = masks.NullCount(prev) < masks.NullCount(idx);
          if (duplicate || dominated) {
            keep[static_cast<size_t>(idx)] = false;
            return Status::OK();  // prev stays the reference survivor
          }
        }
      }
      prev = idx;
      return Status::OK();
    });
    if (stats != nullptr) stats->spilled_sort_runs += sorter.runs_spilled();
  }

  if (stats != nullptr) {
    stats->spill_bytes += sstats.bytes_written;
    stats->spill_read_bytes += sstats.bytes_read;
  }
  if (!status.ok()) {
    ctx->RecordError(std::move(status));
    return Relation(in.schema());
  }
  Relation out(in.schema());
  for (int64_t i = 0; i < in.NumRows(); ++i) {
    if (keep[static_cast<size_t>(i)]) {
      out.Add(in.rows()[static_cast<size_t>(i)]);
    }
  }
  return out;
}

}  // namespace

Relation EvalBeta(const Relation& in, QueryContext* ctx, ExecStats* stats) {
  // Governed escalation: past the soft threshold the pattern-group
  // structures below (per-group tuple sets and projections, roughly
  // input-sized) are not affordable; switch to the external-merge-sort
  // variant whose resident set is one sort run. Same rows, same order.
  if (ctx != nullptr &&
      ctx->tracker()->WouldExceedSoft(ApproxRowsBytes(in.rows()))) {
    static Counter* const escalations =
        MetricsRegistry::Global().counter("governor.spill_escalate");
    escalations->Increment();
    Tracer::Instant("governor/spill-escalate", "beta");
    return EvalBetaExternal(in, ctx, stats);
  }
  // Group rows by null pattern; a tuple with null set P is spurious iff it
  // duplicates another tuple, or a tuple with null set Q (a strict subset
  // of P) agrees with it on P's non-null positions. Plan intermediates have
  // relation-block-structured nulls, so the number of distinct patterns is
  // small and this runs in near-linear time while implementing the exact
  // per-attribute definition of Section 2.2. Row masks live in one flat
  // matrix; only the (few) distinct patterns are heap-allocated map keys.
  NullMaskMatrix masks;
  masks.Build(in);
  std::unordered_map<NullMask, std::vector<int64_t>, MaskHash> groups;
  const int num_cols = in.schema().NumColumns();
  NullMask scratch;
  for (int64_t i = 0; i < in.NumRows(); ++i) {
    if (masks.NullCount(i) == num_cols) continue;  // all-NULL is spurious
    MaskFromMatrix(masks, i, &scratch);
    groups[scratch].push_back(i);
  }

  std::vector<std::pair<NullMask, std::vector<int64_t>>> ordered(
      groups.begin(), groups.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              int pa = Popcount(a.first), pb = Popcount(b.first);
              if (pa != pb) return pa < pb;
              return a.first < b.first;  // deterministic tie-break
            });

  // Survivor rows per processed group, used to test domination of later
  // (more-null) groups.
  std::vector<std::pair<NullMask, std::vector<int64_t>>> processed;
  std::vector<bool> keep(static_cast<size_t>(in.NumRows()), false);

  for (auto& [mask, rows] : ordered) {
    // Per-dominator-group projection sets, built lazily for this target
    // pattern.
    std::vector<TupleSet> dominator_sets;
    std::vector<const std::vector<int64_t>*> dominator_rows;
    for (const auto& [pmask, prows] : processed) {
      if (MaskSubset(pmask, mask) && pmask != mask) {
        TupleSet s;
        for (int64_t r : prows) {
          s.Insert(ProjectNonNull(in.rows()[static_cast<size_t>(r)], mask));
        }
        dominator_sets.push_back(std::move(s));
        dominator_rows.push_back(&prows);
      }
    }
    TupleSet dedup;
    std::vector<int64_t> survivors;
    for (int64_t r : rows) {
      const Tuple& t = in.rows()[static_cast<size_t>(r)];
      if (dedup.InsertCheck(t)) continue;  // duplicate
      bool dominated = false;
      if (!dominator_sets.empty()) {
        Tuple proj = ProjectNonNull(t, mask);
        for (const TupleSet& s : dominator_sets) {
          if (s.Contains(proj)) {
            dominated = true;
            break;
          }
        }
      }
      if (!dominated) {
        keep[static_cast<size_t>(r)] = true;
        survivors.push_back(r);
      }
    }
    processed.emplace_back(mask, std::move(survivors));
  }

  Relation out(in.schema());
  for (int64_t i = 0; i < in.NumRows(); ++i) {
    if (keep[static_cast<size_t>(i)]) {
      out.Add(in.rows()[static_cast<size_t>(i)]);
    }
  }
  return out;
}

Relation EvalBetaNaive(const Relation& in) {
  const auto& rows = in.rows();
  std::vector<bool> spurious(rows.size(), false);
  auto null_count = [](const Tuple& t) {
    int c = 0;
    for (const Value& v : t) c += v.is_null() ? 1 : 0;
    return c;
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    if (null_count(rows[i]) == static_cast<int>(rows[i].size()) &&
        !rows[i].empty()) {
      spurious[i] = true;  // all-NULL tuples are spurious by convention
      continue;
    }
    for (size_t j = 0; j < rows.size(); ++j) {
      if (i == j || spurious[i]) continue;
      // Is rows[i] dominated by rows[j], or a duplicate of an earlier equal
      // tuple?
      bool agree = true;
      for (size_t c = 0; c < rows[i].size(); ++c) {
        if (rows[i][c].is_null()) continue;
        if (rows[j][c].is_null() ||
            !rows[i][c].SameAs(rows[j][c])) {
          agree = false;
          break;
        }
      }
      if (!agree) continue;
      int ni = null_count(rows[i]), nj = null_count(rows[j]);
      if (ni > nj) {
        spurious[i] = true;  // dominated
      } else if (ni == nj && j < i && CompareTuples(rows[i], rows[j]) == 0) {
        spurious[i] = true;  // duplicate of an earlier tuple
      }
    }
  }
  Relation out(in.schema());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!spurious[i]) out.Add(rows[i]);
  }
  return out;
}

Relation EvalProject(RelSet attrs, const Relation& in) {
  std::vector<int> cols = in.schema().ColumnsOf(attrs);
  Relation out(in.schema().Project(attrs));
  for (const Tuple& t : in.rows()) {
    Tuple u;
    u.reserve(cols.size());
    for (int c : cols) u.push_back(t[static_cast<size_t>(c)]);
    out.Add(std::move(u));
  }
  return out;
}

Relation EvalOuterUnion(const Relation& a, const Relation& b) {
  // Union schema: a's columns, then b's columns not already present.
  std::vector<Column> cols = a.schema().columns();
  std::vector<int> b_to_union(static_cast<size_t>(b.schema().NumColumns()));
  for (int c = 0; c < b.schema().NumColumns(); ++c) {
    const Column& col = b.schema().column(c);
    int existing = a.schema().FindColumn(col.rel_id, col.name);
    if (existing >= 0) {
      b_to_union[static_cast<size_t>(c)] = existing;
    } else {
      b_to_union[static_cast<size_t>(c)] = static_cast<int>(cols.size());
      cols.push_back(col);
    }
  }
  Schema schema(std::move(cols));
  Relation out(schema);
  const int width = schema.NumColumns();
  for (const Tuple& t : a.rows()) {
    Tuple u = t;
    for (int c = static_cast<int>(t.size()); c < width; ++c) {
      u.push_back(Value::Null(schema.column(c).type));
    }
    out.Add(std::move(u));
  }
  for (const Tuple& t : b.rows()) {
    Tuple u;
    u.reserve(static_cast<size_t>(width));
    for (int c = 0; c < width; ++c) {
      u.push_back(Value::Null(schema.column(c).type));
    }
    for (int c = 0; c < b.schema().NumColumns(); ++c) {
      u[static_cast<size_t>(b_to_union[static_cast<size_t>(c)])] =
          t[static_cast<size_t>(c)];
    }
    out.Add(std::move(u));
  }
  return out;
}

Relation EvalMinUnion(const Relation& a, const Relation& b) {
  return EvalBeta(EvalOuterUnion(a, b));
}

void FusedCompChain::AddLambda(const PredRef& pred, RelSet attrs,
                               const Schema& schema) {
  ECA_CHECK(pred != nullptr);
  Step s;
  s.kind = Step::Kind::kLambdaMask;
  s.pred = CompiledPredicate(pred, schema);
  for (int c : schema.ColumnsOf(attrs)) {
    s.null_cols.push_back(c);
    s.null_types.push_back(schema.column(c).type);
  }
  steps_.push_back(std::move(s));
}

void FusedCompChain::AddGamma(RelSet attrs, const Schema& schema) {
  std::vector<int> cols = schema.ColumnsOf(attrs);
  ECA_CHECK_MSG(!cols.empty(), "gamma over attributes absent from input");
  Step s;
  s.kind = Step::Kind::kGammaFilter;
  s.check_cols = std::move(cols);
  steps_.push_back(std::move(s));
}

void FusedCompChain::AddGammaStarModify(RelSet attrs, RelSet keep,
                                        const Schema& schema) {
  std::vector<int> acols = schema.ColumnsOf(attrs);
  ECA_CHECK_MSG(!acols.empty(), "gamma* over attributes absent from input");
  Step s;
  s.kind = Step::Kind::kGammaStarModify;
  s.check_cols = std::move(acols);
  for (int c = 0; c < schema.NumColumns(); ++c) {
    if (!keep.Contains(schema.column(c).rel_id)) {
      s.null_cols.push_back(c);
      s.null_types.push_back(schema.column(c).type);
    }
  }
  steps_.push_back(std::move(s));
}

namespace {

bool AllNull(const Tuple& t, const std::vector<int>& cols) {
  for (int c : cols) {
    if (!t[static_cast<size_t>(c)].is_null()) return false;
  }
  return true;
}

}  // namespace

bool FusedCompChain::ApplyCopy(const Tuple& in, Tuple* out) const {
  size_t first = 0;
  for (; first < steps_.size() &&
         steps_[first].kind == Step::Kind::kGammaFilter;
       ++first) {
    if (!AllNull(in, steps_[first].check_cols)) return false;
  }
  *out = in;
  return ApplyFrom(first, out);
}

bool FusedCompChain::ApplyFrom(size_t first, Tuple* t) const {
  for (size_t i = first; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    switch (s.kind) {
      case Step::Kind::kLambdaMask:
        if (!s.pred.EvalTrue(*t)) {
          for (size_t k = 0; k < s.null_cols.size(); ++k) {
            (*t)[static_cast<size_t>(s.null_cols[k])] =
                Value::Null(s.null_types[k]);
          }
        }
        break;
      case Step::Kind::kGammaFilter:
        if (!AllNull(*t, s.check_cols)) return false;
        break;
      case Step::Kind::kGammaStarModify:
        if (!AllNull(*t, s.check_cols)) {
          for (size_t k = 0; k < s.null_cols.size(); ++k) {
            (*t)[static_cast<size_t>(s.null_cols[k])] =
                Value::Null(s.null_types[k]);
          }
        }
        break;
    }
  }
  return true;
}

Relation ApplyFusedChain(const FusedCompChain& chain, const Relation& in,
                         ThreadPool* pool, QueryContext* ctx,
                         const ExecTuning* tuning) {
  const ExecTuning t = tuning != nullptr ? tuning->Clamped() : ExecTuning();
  MorselCursor cursor(in.NumRows(), t.morsel_rows);
  std::vector<std::vector<Tuple>> morsel_out(
      static_cast<size_t>(cursor.num_morsels()));
  auto worker = [&](int) {
    int64_t begin, end, morsel;
    while (cursor.Next(&begin, &end, &morsel)) {
      if (ctx != nullptr && ctx->ShouldStop()) return;
      std::vector<Tuple>& buf = morsel_out[static_cast<size_t>(morsel)];
      for (int64_t i = begin; i < end; ++i) {
        Tuple u;
        if (chain.ApplyCopy(in.rows()[static_cast<size_t>(i)], &u)) {
          buf.push_back(std::move(u));
        }
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->RunOnWorkers(worker);
  } else {
    worker(0);
  }
  // Morsel-ordered concatenation: dropped rows compact away, survivors
  // keep input order for every thread count.
  Relation out(in.schema());
  size_t total = 0;
  for (const auto& buf : morsel_out) total += buf.size();
  out.mutable_rows().reserve(total);
  for (auto& buf : morsel_out) {
    for (Tuple& u : buf) out.Add(std::move(u));
  }
  return out;
}

Relation CanonicalizeColumnOrder(const Relation& in) {
  std::vector<int> order(static_cast<size_t>(in.schema().NumColumns()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Column& ca = in.schema().column(a);
    const Column& cb = in.schema().column(b);
    if (ca.rel_id != cb.rel_id) return ca.rel_id < cb.rel_id;
    return ca.name < cb.name;
  });
  std::vector<Column> cols;
  cols.reserve(order.size());
  for (int i : order) cols.push_back(in.schema().column(i));
  Relation out(Schema(std::move(cols)));
  for (const Tuple& t : in.rows()) {
    Tuple u;
    u.reserve(order.size());
    for (int i : order) u.push_back(t[static_cast<size_t>(i)]);
    out.Add(std::move(u));
  }
  return out;
}

}  // namespace eca
