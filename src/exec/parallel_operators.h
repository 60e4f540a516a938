#ifndef SOFTDB_EXEC_PARALLEL_OPERATORS_H_
#define SOFTDB_EXEC_PARALLEL_OPERATORS_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "exec/morsel.h"
#include "exec/operator.h"
#include "exec/operators.h"
#include "plan/logical_plan.h"
#include "plan/predicate.h"
#include "storage/table.h"

namespace softdb {

/// One stage stacked above the scan leaf of a parallel pipeline.
struct PipelineStage {
  enum class Kind { kFilter, kProject };

  Kind kind = Kind::kFilter;
  std::vector<Predicate> predicates;  // kFilter.
  Schema schema;                      // kProject output schema.
  std::vector<ExprPtr> exprs;         // kProject expressions.

  PipelineStage Clone() const;
};

/// A parallel-safe scan pipeline: a sequential-scan leaf (with its §4.2
/// runtime parameters) plus a chain of filter/project stages. The planner
/// builds one spec per parallel subtree; each worker instantiates its own
/// executable chain from it, so no operator state is shared across
/// threads.
struct PipelineSpec {
  const Table* table = nullptr;
  Schema scan_schema;
  std::vector<Predicate> scan_predicates;
  std::vector<ScanRuntimeParameter> runtime_params;
  /// Plan-time zone-map skip set (may be null). The coordinator charges
  /// blocks_total/blocks_skipped once per query; worker chains drop rows
  /// of skipped blocks from their selection vectors without charging.
  ZoneMapSkips zone_skips;
  std::vector<PipelineStage> stages;

  /// Output schema of the full chain (top project, else the scan).
  const Schema& output_schema() const;

  PipelineSpec Clone() const;

  /// WireRuntimeParams compatibility (same surface as the scan ops).
  const std::vector<Predicate>& predicates() const { return scan_predicates; }
  void AddRuntimeParameter(std::size_t predicate_index, const Index* index,
                           SimplePredicate simple) {
    runtime_params.push_back(
        ScanRuntimeParameter{predicate_index, index, std::move(simple)});
  }
};

/// A per-worker executable instantiation of a PipelineSpec: the batch
/// operator chain, its morsel-bindable scan leaf, and the reused
/// ColumnBatch scratch. Leased from an ExecPool, one per live worker.
struct PipelineChain {
  OperatorPtr root;
  SeqScanOp* leaf = nullptr;
  ColumnBatch scratch;
};

std::unique_ptr<PipelineChain> BuildPipelineChain(const PipelineSpec& spec);

/// Per-morsel output buffers of a parallel operator, drained in morsel
/// order so output is bit-identical to serial execution.
class MorselOutput {
 public:
  /// Clears every buffer and sizes the output for `morsels` morsels.
  void Reset(std::size_t morsels);
  std::vector<ColumnBatch>& morsel(std::size_t i) { return batches_[i]; }
  /// Moves the next non-empty buffered batch into *batch; false at end.
  bool Next(ColumnBatch* batch);

 private:
  std::vector<std::vector<ColumnBatch>> batches_;
  std::size_t cursor_morsel_ = 0;
  std::size_t cursor_batch_ = 0;
};

/// Morsel-driven parallel scan pipeline (scan → filter* → project?).
///
/// Open resolves the §4.2 runtime parameters exactly once — every morsel
/// sees the same consistent SC snapshot and the per-query accounting
/// matches the serial scan — then runs one task per morsel on
/// ExecContext::scheduler (inline when absent). Workers drain a pooled
/// chain bound to their morsel's slot range into per-morsel owned
/// ColumnBatches with per-morsel ExecStats; the coordinator emits the
/// batches and sums the stats in morsel order, so output and stats are
/// bit-identical to serial execution.
class ParallelPipelineOp final : public Operator {
 public:
  ParallelPipelineOp(PipelineSpec spec, std::size_t morsel_rows);

  const char* name() const override { return "ParallelPipeline"; }
  const PipelineSpec& spec() const { return spec_; }
  std::size_t morsel_rows() const { return morsel_rows_; }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  PipelineSpec spec_;
  std::size_t morsel_rows_;
  std::vector<bool> skip_;  // Resolved §4.2 skip set, shared by morsels.
  MorselOutput output_;
};

/// Parallel hash join on equi keys over two pipeline inputs.
///
/// Three phases, each ending at a scheduler barrier: (1) build-side
/// morsels run in parallel, producing per-morsel (key, row) vectors;
/// (2) partition tasks fold those vectors — in morsel order, so per-key
/// row order matches the serial build — into hash-partitioned tables;
/// (3) probe-side morsels run in parallel, each probing the read-only
/// partitions and emitting matched rows (residual applied after
/// rows_joined counting, exactly like HashJoinOp) into per-morsel
/// batches emitted in morsel order. NULL keys never build or match.
class ParallelHashJoinOp final : public Operator {
 public:
  ParallelHashJoinOp(PipelineSpec probe, PipelineSpec build,
                     std::vector<JoinNode::EquiKey> keys,
                     std::vector<Predicate> residual,
                     std::size_t morsel_rows);

  const char* name() const override { return "ParallelHashJoin"; }
  const PipelineSpec& probe_spec() const { return probe_; }
  const PipelineSpec& build_spec() const { return build_; }
  const std::vector<Predicate>& residual() const { return residual_; }
  std::size_t morsel_rows() const { return morsel_rows_; }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  using BuildMap =
      std::unordered_map<std::vector<Value>, std::vector<std::vector<Value>>,
                         ValueVecHash, ValueVecEq>;

  Status RunBuildPhase(ExecContext* ctx);
  Status RunProbePhase(ExecContext* ctx);

  PipelineSpec probe_;
  PipelineSpec build_;
  std::vector<JoinNode::EquiKey> keys_;
  std::vector<Predicate> residual_;
  std::size_t morsel_rows_;

  std::vector<bool> probe_skip_;
  std::vector<bool> build_skip_;
  std::vector<BuildMap> partitions_;
  MorselOutput output_;  // Per probe morsel.
};

}  // namespace softdb

#endif  // SOFTDB_EXEC_PARALLEL_OPERATORS_H_
