#include "exec/executor.h"

#include <chrono>
#include <utility>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/fused_comp.h"
#include "exec/query_context.h"

namespace eca {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

// Output schema of `plan` without executing it; the fusion dispatch needs
// the base operator's schema to compile a chain before the base runs.
Schema PlanOutputSchema(const Plan& plan, const Database& db) {
  switch (plan.kind()) {
    case Plan::Kind::kLeaf:
      return db.table(plan.rel_id()).schema();
    case Plan::Kind::kJoin: {
      Schema left = PlanOutputSchema(*plan.left(), db);
      Schema right = PlanOutputSchema(*plan.right(), db);
      return JoinOutputSchema(plan.op(), left, right);
    }
    case Plan::Kind::kComp: {
      Schema child = PlanOutputSchema(*plan.child(), db);
      if (plan.comp().kind == CompOp::Kind::kProject) {
        return child.Project(plan.comp().attrs);
      }
      return child;  // lambda/beta/gamma/gamma* are schema-preserving
    }
  }
  return Schema();
}

}  // namespace

Executor::Executor(Options options) : options_(options) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

Executor::~Executor() = default;

Relation Executor::Execute(const Plan& plan, const Database& db) {
  TraceSpan span("execute");
  stats_.profile.clear();
  depth_ = 0;
  ExecStats before = stats_;
  Relation out = ExecNode(plan, db);
  if (span.active()) {
    span.AppendArg("rows", static_cast<long long>(out.NumRows()));
  }
  PublishStatsDelta(before);
  return out;
}

void Executor::PublishStatsDelta(const ExecStats& before) const {
  auto& reg = MetricsRegistry::Global();
  static Counter* const rows = reg.counter("exec.rows_produced");
  static Counter* const probes = reg.counter("exec.probe_comparisons");
  static Counter* const joins = reg.counter("exec.join_nodes");
  static Counter* const comps = reg.counter("exec.comp_nodes");
  static Counter* const build_rows = reg.counter("exec.hash_build_rows");
  static Counter* const spilled_parts =
      reg.counter("exec.spilled_partitions");
  static Counter* const spill_bytes = reg.counter("exec.spill_bytes");
  static Counter* const spill_read = reg.counter("exec.spill_read_bytes");
  static Counter* const sort_runs = reg.counter("exec.spilled_sort_runs");
  static Histogram* const join_us = reg.histogram("exec.join_us");
  static Histogram* const comp_us = reg.histogram("exec.comp_us");
  static Histogram* const peak = reg.histogram("exec.peak_bytes");
  rows->Add(stats_.rows_produced - before.rows_produced);
  probes->Add(stats_.probe_comparisons - before.probe_comparisons);
  joins->Add(stats_.join_nodes - before.join_nodes);
  comps->Add(stats_.comp_nodes - before.comp_nodes);
  build_rows->Add(stats_.hash_build_rows - before.hash_build_rows);
  spilled_parts->Add(stats_.spilled_partitions - before.spilled_partitions);
  spill_bytes->Add(stats_.spill_bytes - before.spill_bytes);
  spill_read->Add(stats_.spill_read_bytes - before.spill_read_bytes);
  sort_runs->Add(stats_.spilled_sort_runs - before.spilled_sort_runs);
  if (stats_.join_nodes > before.join_nodes) {
    join_us->Record(
        static_cast<int64_t>((stats_.join_ms - before.join_ms) * 1000.0));
  }
  if (stats_.comp_nodes > before.comp_nodes) {
    comp_us->Record(
        static_cast<int64_t>((stats_.comp_ms - before.comp_ms) * 1000.0));
  }
  if (stats_.peak_bytes > 0) peak->Record(stats_.peak_bytes);
}

size_t Executor::AddProfile(bool fused) {
  NodeProfile p;
  p.depth = depth_;
  p.fused = fused;
  stats_.profile.push_back(p);
  return stats_.profile.size() - 1;
}

Relation Executor::ExecNode(const Plan& plan, const Database& db) {
  // Governed runs stop descending the moment the query is cancelled, past
  // its deadline, or carrying an error: subtrees return empty relations
  // that ExecuteWithContext discards in favor of StopStatus().
  if (ctx_ != nullptr && ctx_->ShouldStop()) return Relation();
  const size_t slot = AddProfile(/*fused=*/false);
  ++depth_;
  Relation out;
  switch (plan.kind()) {
    case Plan::Kind::kLeaf: {
      // Leaf scans materialize a copy of the base table; morsel-parallel
      // row copy when a pool is available (slots are written by row
      // index, so the output is identical either way).
      auto t0 = Clock::now();
      const Relation& table = db.table(plan.rel_id());
      if (pool_ == nullptr) {
        out = table;
      } else {
        out = Relation(table.schema());
        out.mutable_rows().resize(table.rows().size());
        MorselCursor cursor(table.NumRows(),
                            options_.tuning.Clamped().morsel_rows);
        pool_->RunOnWorkers([&](int) {
          int64_t begin, end, morsel;
          while (cursor.Next(&begin, &end, &morsel)) {
            for (int64_t i = begin; i < end; ++i) {
              out.mutable_rows()[static_cast<size_t>(i)] =
                  table.rows()[static_cast<size_t>(i)];
            }
          }
        });
      }
      stats_.profile[slot].own_ms = MsSince(t0);
      break;
    }
    case Plan::Kind::kJoin:
      out = ExecJoin(plan, db, slot);
      break;
    case Plan::Kind::kComp:
      out = ExecComp(plan, db, slot);
      break;
  }
  --depth_;
  stats_.profile[slot].rows = out.NumRows();
  // Every plan node's materialized output is charged to the query tracker
  // as it comes into existence; the parent releases it once consumed.
  ChargeNodeOutput(out);
  return out;
}

StatusOr<Relation> Executor::ExecuteWithContext(const Plan& plan,
                                                const Database& db,
                                                QueryContext* ctx) {
  ECA_CHECK(ctx != nullptr);
  TraceSpan span("execute");
  if (span.active()) span.AppendArg("governed", "yes");
  ctx_ = ctx;
  stats_.profile.clear();
  depth_ = 0;
  ExecStats before = stats_;
  Relation out = ExecNode(plan, db);
  stats_.peak_bytes = ctx->tracker()->peak();
  PublishStatsDelta(before);
  if (ctx->ShouldStop()) {
    Status s = ctx->StopStatus();
    ctx_ = nullptr;
    if (!s.ok()) return s;
  }
  // Release the root's charge (ctx_ must still be set — ReleaseNodeOutput
  // is a no-op otherwise): the caller owns the result now and the tracker
  // balance returns to zero on success (asserted in tests).
  ReleaseNodeOutput(out);
  ctx_ = nullptr;
  return out;
}

void Executor::ChargeNodeOutput(const Relation& rel) {
  if (ctx_ == nullptr || ctx_->HasError() || rel.NumRows() == 0) return;
  ExecCharge charge(ctx_);
  Status s = charge.Add(ApproxRowsBytes(rel.rows()), "operator output");
  if (!s.ok()) {
    ctx_->RecordError(std::move(s));
    return;
  }
  charge.Detach();
}

void Executor::ReleaseNodeOutput(const Relation& rel) {
  // Mirror of ChargeNodeOutput; once an error is recorded charges stop,
  // so releases stop too (the failed query's tracker is discarded).
  if (ctx_ == nullptr || ctx_->HasError() || rel.NumRows() == 0) return;
  ctx_->tracker()->Release(ApproxRowsBytes(rel.rows()));
}

Relation Executor::ExecJoin(const Plan& plan, const Database& db,
                            size_t slot, const FusedCompChain* fused) {
  Relation left = ExecNode(*plan.left(), db);
  Relation right = ExecNode(*plan.right(), db);
  if (ctx_ != nullptr && ctx_->ShouldStop()) return Relation();
  ++stats_.join_nodes;
  TraceSpan span("join");
  if (span.active()) {
    span.AppendArg("op", JoinOpName(plan.op()));
    if (fused != nullptr && !fused->empty()) {
      span.AppendArg("fused_steps",
                     static_cast<long long>(fused->num_steps()));
    }
  }
  auto t0 = Clock::now();
  Relation out = EvalJoin(plan.op(), plan.pred(), left, right,
                          options_.join_preference, &stats_, pool_.get(),
                          ctx_, &options_.tuning, fused);
  const double ms = MsSince(t0);
  stats_.join_ms += ms;
  stats_.profile[slot].own_ms = ms;
  stats_.rows_produced += out.NumRows();
  if (span.active()) {
    span.AppendArg("rows", static_cast<long long>(out.NumRows()));
  }
  ReleaseNodeOutput(left);
  ReleaseNodeOutput(right);
  return out;
}

namespace {

const char* CompSpanName(CompOp::Kind kind) {
  switch (kind) {
    case CompOp::Kind::kLambda:
      return "comp/lambda";
    case CompOp::Kind::kBeta:
      return "comp/beta";
    case CompOp::Kind::kGamma:
      return "comp/gamma";
    case CompOp::Kind::kGammaStar:
      return "comp/gamma-star";
    case CompOp::Kind::kProject:
      return "comp/project";
  }
  return "comp";
}

}  // namespace

Relation Executor::ExecComp(const Plan& plan, const Database& db,
                            size_t slot) {
  // Collect the maximal fusable stack of row-local compensation steps
  // rooted at this node: lambda and gamma always fuse; gamma* fuses only
  // as the top of the segment (its best-match half, beta, must run after
  // every fused step, so nothing above a gamma* can join its chain). The
  // walk stops at the first pipeline breaker (beta, project) or non-comp
  // node — that node is the segment's base.
  std::vector<const Plan*> fusable;  // top-down plan order
  const Plan* base = &plan;
  while (base->kind() == Plan::Kind::kComp) {
    const CompOp& op = base->comp();
    bool can_fuse =
        op.kind == CompOp::Kind::kLambda || op.kind == CompOp::Kind::kGamma ||
        (op.kind == CompOp::Kind::kGammaStar && fusable.empty());
    if (!can_fuse) break;
    fusable.push_back(base);
    base = &*base->child();
  }

  if (fusable.empty()) {
    // Pipeline breaker at the top (beta or project): materialize the
    // child (recursively fusing below it) and run the breaker.
    const CompOp& c = plan.comp();
    Relation child = ExecNode(*plan.child(), db);
    if (ctx_ != nullptr && ctx_->ShouldStop()) return Relation();
    ++stats_.comp_nodes;
    TraceSpan span(CompSpanName(c.kind));
    auto t0 = Clock::now();
    Relation out = c.kind == CompOp::Kind::kBeta
                       ? EvalBeta(child, ctx_, &stats_)
                       : EvalProject(c.attrs, child);
    const double ms = MsSince(t0);
    stats_.comp_ms += ms;
    stats_.profile[slot].own_ms = ms;
    stats_.rows_produced += out.NumRows();
    if (span.active()) {
      span.AppendArg("rows", static_cast<long long>(out.NumRows()));
    }
    ReleaseNodeOutput(child);
    return out;
  }

  // Compile the chain against the base's output schema (every fused step
  // is schema-preserving, so one schema serves the whole chain), deepest
  // step first — the order the rows would have met the operators.
  const bool gamma_star_top =
      fusable.front()->comp().kind == CompOp::Kind::kGammaStar;
  FusedCompChain chain;
  Schema base_schema = PlanOutputSchema(*base, db);
  for (auto it = fusable.rbegin(); it != fusable.rend(); ++it) {
    const CompOp& op = (*it)->comp();
    switch (op.kind) {
      case CompOp::Kind::kLambda:
        chain.AddLambda(op.pred, op.attrs, base_schema);
        break;
      case CompOp::Kind::kGamma:
        chain.AddGamma(op.attrs, base_schema);
        break;
      case CompOp::Kind::kGammaStar:
        chain.AddGammaStarModify(op.attrs, op.keep, base_schema);
        break;
      default:
        break;
    }
  }

  // Profile entries for the steps below the segment top, in preorder.
  // ExecNode entered `plan` at depth_ - 1; the base sits one level below
  // the last fused step.
  const int top_depth = depth_ - 1;
  for (size_t i = 1; i < fusable.size(); ++i) {
    depth_ = top_depth + static_cast<int>(i);
    AddProfile(/*fused=*/true);
  }
  depth_ = top_depth + static_cast<int>(fusable.size());
  Relation out;
  if (base->kind() == Plan::Kind::kJoin) {
    // The chain rides the join's probe pipeline: every emitted row passes
    // through it in place, no intermediate relation exists.
    const size_t base_slot = AddProfile(/*fused=*/true);
    ++depth_;
    out = ExecJoin(*base, db, base_slot, &chain);
    depth_ = top_depth + 1;
  } else {
    Relation base_rel = ExecNode(*base, db);
    depth_ = top_depth + 1;
    if (ctx_ != nullptr && ctx_->ShouldStop()) return Relation();
    TraceSpan span("comp/fused");
    if (span.active()) {
      span.AppendArg("steps", static_cast<long long>(chain.num_steps()));
    }
    auto t0 = Clock::now();
    out = ApplyFusedChain(chain, base_rel, pool_.get(), ctx_,
                          &options_.tuning);
    const double ms = MsSince(t0);
    stats_.comp_ms += ms;
    stats_.profile[slot].own_ms += ms;
    ReleaseNodeOutput(base_rel);
  }
  stats_.comp_nodes += static_cast<int64_t>(fusable.size());

  // gamma* at the segment top: its modify half ran fused above; the
  // best-match half is a pipeline breaker over the materialized result.
  if (gamma_star_top) {
    if (ctx_ != nullptr && ctx_->ShouldStop()) return Relation();
    TraceSpan bspan("comp/beta");
    auto t0 = Clock::now();
    Relation bout = EvalBeta(out, ctx_, &stats_);
    const double ms = MsSince(t0);
    stats_.comp_ms += ms;
    stats_.profile[slot].own_ms += ms;
    if (bspan.active()) {
      bspan.AppendArg("rows", static_cast<long long>(bout.NumRows()));
    }
    out = std::move(bout);
  }
  stats_.rows_produced += out.NumRows();
  return out;
}

bool PlansEquivalentOn(const Plan& a, const Plan& b, const Database& db) {
  Executor ea, eb;
  Relation ra = CanonicalizeColumnOrder(ea.Execute(a, db));
  Relation rb = CanonicalizeColumnOrder(eb.Execute(b, db));
  return SameMultiset(ra, rb);
}

}  // namespace eca
