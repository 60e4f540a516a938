#include "exec/parallel_operators.h"

#include <utility>

#include "exec/scheduler.h"

namespace softdb {

namespace {

std::vector<Predicate> ClonePredicates(const std::vector<Predicate>& preds) {
  std::vector<Predicate> out;
  out.reserve(preds.size());
  for (const Predicate& p : preds) out.push_back(p.Clone());
  return out;
}

std::vector<ExprPtr> CloneExprs(const std::vector<ExprPtr>& exprs) {
  std::vector<ExprPtr> out;
  out.reserve(exprs.size());
  for (const ExprPtr& e : exprs) out.push_back(e->Clone());
  return out;
}

/// Runs one morsel through a pooled chain: binds the scan leaf to the
/// morsel's slot range, hands every produced batch (in table order) to
/// `sink`, and reports the morsel's counters in `stats`. Per-worker state
/// only; safe to run concurrently.
Status RunPipelineMorsel(ExecPool<PipelineChain>* pool,
                         const MorselRange& morsel,
                         const std::vector<bool>* skip, const ExecContext& ctx,
                         ExecStats* stats,
                         const std::function<Status(const ColumnBatch&,
                                                    ExecStats*)>& sink) {
  auto lease = pool->Acquire();
  lease->leaf->BindMorsel(morsel.base, morsel.rows, skip);
  ExecContext local;  // No scheduler: morsel tasks never nest parallelism.
  // Morsel granularity is the parallel engine's cancellation granularity:
  // the scan checks the shared token/deadline once per batch it produces.
  local.query = ctx.query;
  local.use_kernels = ctx.use_kernels;
  SOFTDB_RETURN_IF_ERROR(local.CheckInterrupt());
  SOFTDB_RETURN_IF_ERROR(lease->root->Open(&local));
  while (true) {
    SOFTDB_ASSIGN_OR_RETURN(bool has,
                            lease->root->NextBatch(&local, &lease->scratch));
    if (!has) break;
    SOFTDB_RETURN_IF_ERROR(sink(lease->scratch, &local.stats));
  }
  ++local.stats.morsels;
  *stats = local.stats;
  return Status::OK();
}

/// Extracts row `pos`'s equi-key columns into *key; false on a NULL key
/// (which never builds or matches).
bool ExtractKey(const ColumnBatch& b, std::size_t pos,
                const std::vector<JoinNode::EquiKey>& keys, bool left,
                std::vector<Value>* key) {
  key->clear();
  for (const JoinNode::EquiKey& k : keys) {
    const BatchColumn& col = b.column(left ? k.left : k.right);
    if (col.IsNull(pos)) return false;
    key->push_back(col.GetValue(pos));
  }
  return true;
}

/// Runs `fn` over every morsel — on the scheduler when one is available,
/// inline otherwise. The scheduler's Run is the phase barrier.
Status ForEachMorsel(ExecContext* ctx, const std::vector<MorselRange>& morsels,
                     const std::function<Status(const MorselRange&)>& fn) {
  if (ctx->scheduler != nullptr && morsels.size() > 1) {
    std::vector<TaskScheduler::Task> tasks;
    tasks.reserve(morsels.size());
    for (const MorselRange& m : morsels) {
      tasks.push_back([&fn, m] { return fn(m); });
    }
    return ctx->scheduler->Run(std::move(tasks));
  }
  for (const MorselRange& m : morsels) SOFTDB_RETURN_IF_ERROR(fn(m));
  return Status::OK();
}

/// Deterministic per-query aggregation: per-morsel counters summed in
/// morsel order, regardless of which worker ran which morsel.
void MergeWorkerStats(const std::vector<ExecStats>& worker_stats,
                      ExecStats* total) {
  for (const ExecStats& s : worker_stats) total->Accumulate(s);
}

}  // namespace

// ------------------------------------------------------------ PipelineSpec

PipelineStage PipelineStage::Clone() const {
  PipelineStage out;
  out.kind = kind;
  out.predicates = ClonePredicates(predicates);
  out.schema = schema;
  out.exprs = CloneExprs(exprs);
  return out;
}

const Schema& PipelineSpec::output_schema() const {
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    if (it->kind == PipelineStage::Kind::kProject) return it->schema;
  }
  return scan_schema;
}

PipelineSpec PipelineSpec::Clone() const {
  PipelineSpec out;
  out.table = table;
  out.scan_schema = scan_schema;
  out.scan_predicates = ClonePredicates(scan_predicates);
  out.runtime_params = runtime_params;
  out.zone_skips = zone_skips;
  out.stages.reserve(stages.size());
  for (const PipelineStage& s : stages) out.stages.push_back(s.Clone());
  return out;
}

std::unique_ptr<PipelineChain> BuildPipelineChain(const PipelineSpec& spec) {
  auto chain = std::make_unique<PipelineChain>();
  auto scan = std::make_unique<SeqScanOp>(
      spec.table, spec.scan_schema, ClonePredicates(spec.scan_predicates));
  scan->SetZoneMapSkips(spec.zone_skips);
  chain->leaf = scan.get();
  OperatorPtr op = std::move(scan);
  for (const PipelineStage& stage : spec.stages) {
    if (stage.kind == PipelineStage::Kind::kFilter) {
      op = std::make_unique<FilterOp>(std::move(op),
                                      ClonePredicates(stage.predicates));
    } else {
      op = std::make_unique<ProjectOp>(std::move(op), stage.schema,
                                       CloneExprs(stage.exprs));
    }
  }
  chain->root = std::move(op);
  return chain;
}

void MorselOutput::Reset(std::size_t morsels) {
  batches_.clear();
  batches_.resize(morsels);
  cursor_morsel_ = 0;
  cursor_batch_ = 0;
}

bool MorselOutput::Next(ColumnBatch* batch) {
  while (cursor_morsel_ < batches_.size()) {
    std::vector<ColumnBatch>& buffered = batches_[cursor_morsel_];
    if (cursor_batch_ < buffered.size()) {
      ColumnBatch& next = buffered[cursor_batch_++];
      if (next.sel_size() == 0) continue;
      *batch = std::move(next);
      return true;
    }
    buffered.clear();
    buffered.shrink_to_fit();
    ++cursor_morsel_;
    cursor_batch_ = 0;
  }
  return false;
}

// ------------------------------------------------------- ParallelPipeline

ParallelPipelineOp::ParallelPipelineOp(PipelineSpec spec,
                                       std::size_t morsel_rows)
    : Operator(spec.output_schema()), spec_(std::move(spec)),
      morsel_rows_(morsel_rows == 0 ? 1 : morsel_rows) {}

Status ParallelPipelineOp::Open(ExecContext* ctx) {
  output_.Reset(0);

  // Resolve the §4.2 runtime parameters exactly once per query: every
  // morsel shares one consistent snapshot of the index-maintained SC
  // domains, and skip/page accounting matches the serial scan.
  skip_.assign(spec_.scan_predicates.size(), false);
  bool provably_empty = false;
  ResolveScanRuntimeParams(spec_.runtime_params, spec_.scan_schema, ctx,
                           &skip_, &provably_empty);
  if (provably_empty) return Status::OK();  // No pages, no morsels.
  ctx->stats.pages_read += spec_.table->NumPages();
  // Block accounting happens once here; the morsel-local scans skip
  // silently (their Open performs no whole-table accounting at all).
  ChargeZoneMapBlocks(spec_.zone_skips, ctx);

  const std::vector<MorselRange> morsels =
      SplitMorsels(spec_.table->NumSlots(), morsel_rows_);
  output_.Reset(morsels.size());
  if (morsels.empty()) return Status::OK();

  ExecPool<PipelineChain> pool([this] { return BuildPipelineChain(spec_); });
  std::vector<ExecStats> worker_stats(morsels.size());
  SOFTDB_RETURN_IF_ERROR(ForEachMorsel(
      ctx, morsels, [this, ctx, &pool, &worker_stats](const MorselRange& m) {
        std::vector<ColumnBatch>& out = output_.morsel(m.index);
        return RunPipelineMorsel(
            &pool, m, &skip_, *ctx, &worker_stats[m.index],
            [&out](const ColumnBatch& b, ExecStats*) {
              out.emplace_back().CopySelectedFrom(b);
              return Status::OK();
            });
      }));
  MergeWorkerStats(worker_stats, &ctx->stats);
  return Status::OK();
}

Result<bool> ParallelPipelineOp::NextBatch(ExecContext*, ColumnBatch* batch) {
  return output_.Next(batch);
}

// ------------------------------------------------------- ParallelHashJoin

ParallelHashJoinOp::ParallelHashJoinOp(PipelineSpec probe, PipelineSpec build,
                                       std::vector<JoinNode::EquiKey> keys,
                                       std::vector<Predicate> residual,
                                       std::size_t morsel_rows)
    : Operator(Schema::Concat(probe.output_schema(), build.output_schema())),
      probe_(std::move(probe)), build_(std::move(build)),
      keys_(std::move(keys)), residual_(std::move(residual)),
      morsel_rows_(morsel_rows == 0 ? 1 : morsel_rows) {}

Status ParallelHashJoinOp::Open(ExecContext* ctx) {
  partitions_.clear();
  output_.Reset(0);
  SOFTDB_RETURN_IF_ERROR(RunBuildPhase(ctx));
  SOFTDB_RETURN_IF_ERROR(RunProbePhase(ctx));
  return Status::OK();
}

Status ParallelHashJoinOp::RunBuildPhase(ExecContext* ctx) {
  build_skip_.assign(build_.scan_predicates.size(), false);
  bool provably_empty = false;
  ResolveScanRuntimeParams(build_.runtime_params, build_.scan_schema, ctx,
                           &build_skip_, &provably_empty);
  std::vector<MorselRange> morsels;
  if (!provably_empty) {
    ctx->stats.pages_read += build_.table->NumPages();
    ChargeZoneMapBlocks(build_.zone_skips, ctx);
    morsels = SplitMorsels(build_.table->NumSlots(), morsel_rows_);
  }

  // Phase 1: per-morsel (key, row) extraction, in parallel. NULL keys
  // never enter the build side (they cannot match).
  using KeyedRows = std::vector<std::pair<std::vector<Value>, std::vector<Value>>>;
  std::vector<KeyedRows> keyed(morsels.size());
  std::vector<ExecStats> worker_stats(morsels.size());
  ExecPool<PipelineChain> pool([this] { return BuildPipelineChain(build_); });
  SOFTDB_RETURN_IF_ERROR(ForEachMorsel(
      ctx, morsels,
      [this, ctx, &pool, &worker_stats, &keyed](const MorselRange& m) {
        KeyedRows& out = keyed[m.index];
        return RunPipelineMorsel(
            &pool, m, &build_skip_, *ctx, &worker_stats[m.index],
            [this, &out](const ColumnBatch& b, ExecStats*) {
              std::vector<Value> key;
              for (std::size_t i = 0; i < b.sel_size(); ++i) {
                const std::size_t pos = b.sel()[i];
                if (!ExtractKey(b, pos, keys_, /*left=*/false, &key)) continue;
                out.emplace_back(key, b.MaterializeRow(pos));
              }
              return Status::OK();
            });
      }));
  MergeWorkerStats(worker_stats, &ctx->stats);

  // Phase 2 (after the phase-1 barrier): hash-partitioned merge. Each
  // partition is owned by exactly one task, and tasks fold morsels in
  // morsel order, so per-key row order equals the serial build's insertion
  // order — probe output is then bit-identical to serial.
  const std::size_t num_partitions =
      ctx->scheduler != nullptr ? ctx->scheduler->num_threads() : 1;
  partitions_.assign(num_partitions == 0 ? 1 : num_partitions, BuildMap{});
  std::vector<MorselRange> partition_ids;
  partition_ids.reserve(partitions_.size());
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    partition_ids.push_back(MorselRange{p, 1, p});
  }
  const ValueVecHash hasher;
  SOFTDB_RETURN_IF_ERROR(ForEachMorsel(
      ctx, partition_ids,
      [this, &keyed, &hasher](const MorselRange& pm) -> Status {
        BuildMap& map = partitions_[pm.index];
        for (const KeyedRows& morsel_entries : keyed) {
          for (const auto& entry : morsel_entries) {
            if (hasher(entry.first) % partitions_.size() != pm.index) continue;
            map[entry.first].push_back(entry.second);
          }
        }
        return Status::OK();
      }));
  return Status::OK();
}

Status ParallelHashJoinOp::RunProbePhase(ExecContext* ctx) {
  probe_skip_.assign(probe_.scan_predicates.size(), false);
  bool provably_empty = false;
  ResolveScanRuntimeParams(probe_.runtime_params, probe_.scan_schema, ctx,
                           &probe_skip_, &provably_empty);
  if (provably_empty) return Status::OK();  // Serial probe scans nothing.
  ctx->stats.pages_read += probe_.table->NumPages();
  ChargeZoneMapBlocks(probe_.zone_skips, ctx);

  const std::vector<MorselRange> morsels =
      SplitMorsels(probe_.table->NumSlots(), morsel_rows_);
  output_.Reset(morsels.size());
  if (morsels.empty()) return Status::OK();

  std::vector<ExecStats> worker_stats(morsels.size());
  ExecPool<PipelineChain> pool([this] { return BuildPipelineChain(probe_); });
  const ValueVecHash hasher;
  SOFTDB_RETURN_IF_ERROR(ForEachMorsel(
      ctx, morsels,
      [this, ctx, &pool, &worker_stats, &hasher](const MorselRange& m) {
        std::vector<ColumnBatch>& out = output_.morsel(m.index);
        std::vector<Value> key;
        const auto probe = [&](const ColumnBatch& b,
                               ExecStats* stats) -> Status {
          for (std::size_t i = 0; i < b.sel_size(); ++i) {
            const std::size_t pos = b.sel()[i];
            if (!ExtractKey(b, pos, keys_, /*left=*/true, &key)) continue;
            const BuildMap& map =
                partitions_[hasher(key) % partitions_.size()];
            auto it = map.find(key);
            if (it == map.end()) continue;
            const std::vector<Value> probe_row = b.MaterializeRow(pos);
            for (const std::vector<Value>& right_row : it->second) {
              // Counted before the residual, exactly as HashJoinOp.
              ++stats->rows_joined;
              std::vector<Value> combined = probe_row;
              combined.insert(combined.end(), right_row.begin(),
                              right_row.end());
              SOFTDB_ASSIGN_OR_RETURN(bool pass,
                                      EvalPredicates(residual_, combined));
              if (!pass) continue;
              if (out.empty() || out.back().size() == kBatchCapacity) {
                out.emplace_back().Reset(schema_);
              }
              ColumnBatch& dst = out.back();
              for (std::size_t c = 0; c < combined.size(); ++c) {
                dst.column(c).AppendValue(combined[c]);
              }
              dst.set_size(dst.size() + 1);
            }
          }
          return Status::OK();
        };
        SOFTDB_RETURN_IF_ERROR(RunPipelineMorsel(
            &pool, m, &probe_skip_, *ctx, &worker_stats[m.index], probe));
        for (ColumnBatch& b : out) b.SelectAll(b.size());
        return Status::OK();
      }));
  MergeWorkerStats(worker_stats, &ctx->stats);
  return Status::OK();
}

Result<bool> ParallelHashJoinOp::NextBatch(ExecContext*, ColumnBatch* batch) {
  return output_.Next(batch);
}

}  // namespace softdb
