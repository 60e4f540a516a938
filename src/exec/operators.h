#ifndef SOFTDB_EXEC_OPERATORS_H_
#define SOFTDB_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "exec/column_batch.h"
#include "exec/expr_eval.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"
#include "plan/predicate.h"
#include "storage/index.h"
#include "storage/table.h"

namespace softdb {

/// A §4.2 runtime plan parameter: predicates_[predicate_index] folds to
/// `simple`, which is re-checked against `index`'s maintained min/max at
/// every Open. Shared by the serial scan and the parallel coordinator.
struct ScanRuntimeParameter {
  std::size_t predicate_index;
  const Index* index;
  SimplePredicate simple;
};

/// Plan-time zone-map skip set for one sequential scan: element b == 1
/// means slot block [b*kZoneMapBlockRows, (b+1)*kZoneMapBlockRows) is
/// provably predicate-free — no live row in it can satisfy the scan's
/// conjunction — and the scan drops its rows without evaluation.
/// Blocks past the vector's end (appended after planning) are never
/// skipped. Computed once per physical planning by the PhysicalPlanner
/// from armed kBlockZoneMap SCs and shared by whichever path (serial or
/// morsel) executes the scan, so rows_scanned and the
/// blocks_total/blocks_skipped counters are identical across both.
using ZoneMapSkips = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Charges the scan-wide block counters for one consulted skip set.
/// Called exactly once per scan execution, by the operator that owns the
/// whole-table accounting (serial scans at Open; the parallel coordinator
/// before fanning out morsels).
void ChargeZoneMapBlocks(const ZoneMapSkips& skips, ExecContext* ctx);

/// Resolves `params` against the indexes' current domains at Open time.
/// Tautologies on non-nullable columns set the predicate's `skip` flag and
/// count a runtime_param_skip; the first contradiction sets
/// *provably_empty and returns immediately (no further params are
/// examined, and the caller must not charge any pages). `skip` must be
/// pre-sized to the predicate count.
void ResolveScanRuntimeParams(const std::vector<ScanRuntimeParameter>& params,
                              const Schema& schema, ExecContext* ctx,
                              std::vector<bool>* skip, bool* provably_empty);

/// Full-table scan: binds zero-copy column views over each run of
/// kBatchCapacity slots, builds the selection vector from the live bitmap,
/// and narrows it predicate-at-a-time. Charges the whole table's pages at
/// Open (a sequential scan touches every page).
///
/// Supports §4.2 runtime plan parameterization: a predicate may be tagged
/// with an index whose maintained min/max (the Sybase-style "SC") is
/// consulted at Open — if the current domain makes the predicate a
/// tautology it is skipped for this execution; if a contradiction, the
/// scan produces nothing without touching a page. The plan itself never
/// changes, so it stays valid across updates ("the actual values in the
/// ASC are not important ... the availability of this information at
/// runtime is").
class SeqScanOp final : public Operator {
 public:
  SeqScanOp(const Table* table, Schema schema,
                 std::vector<Predicate> preds);

  /// Tags predicates_[predicate_index] (which folds to `simple`) for
  /// runtime evaluation against `index`'s current min/max.
  void AddRuntimeParameter(std::size_t predicate_index, const Index* index,
                           SimplePredicate simple);

  /// Morsel mode (parallel engine): restricts the scan to slots
  /// [base, base+rows) with a pre-resolved §4.2 skip set (`skip` may be
  /// null: apply every predicate). Open then performs no page or
  /// runtime-parameter accounting — the parallel coordinator resolved the
  /// parameters once and charged the whole table up front, so per-query
  /// stats still match serial execution exactly. `skip` must outlive the
  /// scan's use.
  void BindMorsel(std::size_t base, std::size_t rows,
                  const std::vector<bool>* skip);

  /// Attaches a plan-time zone-map skip set (may be null: no zone maps
  /// armed). Rows in skipped blocks are passed over without liveness or
  /// predicate evaluation. In morsel mode the block counters are NOT
  /// charged here (the coordinator charged them once); rows of skipped
  /// blocks are simply dropped from the selection vector, so straddling
  /// morsels scan exactly the rows a serial scan scans.
  void SetZoneMapSkips(ZoneMapSkips skips) { zone_skips_ = std::move(skips); }
  const ZoneMapSkips& zone_map_skips() const { return zone_skips_; }

  const char* name() const override { return "SeqScan"; }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  const std::vector<ScanRuntimeParameter>& runtime_params() const {
    return runtime_params_;
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  const Table* table_;
  std::vector<Predicate> predicates_;
  std::vector<ScanRuntimeParameter> runtime_params_;
  std::vector<const Predicate*> effective_;  // Predicates applied this run.
  ZoneMapSkips zone_skips_;
  bool provably_empty_ = false;
  RowId next_ = 0;
  // Morsel mode state; end_ is NumSlots() outside morsel mode.
  bool morsel_mode_ = false;
  std::size_t morsel_base_ = 0;
  std::size_t morsel_end_ = 0;
  const std::vector<bool>* morsel_skip_ = nullptr;
};

/// Index range scan: touches only the leaf range plus the data pages of
/// qualifying rows, gathers those rows (which are not contiguous) into
/// owned batch columns, then filters residuals. Output order is the index
/// key order (the planner uses this to elide sorts).
class IndexRangeScanOp final : public Operator {
 public:
  IndexRangeScanOp(const Table* table, const Index* index, Schema schema,
                        std::optional<Value> lo, bool lo_inclusive,
                        std::optional<Value> hi, bool hi_inclusive,
                        std::vector<Predicate> residual);

  const char* name() const override { return "IndexRangeScan"; }
  const std::vector<Predicate>& residual() const { return residual_; }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  const Table* table_;
  const Index* index_;
  std::optional<Value> lo_, hi_;
  bool lo_inclusive_, hi_inclusive_;
  std::vector<Predicate> residual_;
  std::vector<const Predicate*> effective_;
  std::vector<RowId> rows_;
  std::size_t next_ = 0;
};

/// Residual filter: narrows the child's selection in place — no data
/// movement at all.
class FilterOp final : public Operator {
 public:
  FilterOp(OperatorPtr child, std::vector<Predicate> preds);

  const char* name() const override { return "Filter"; }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  OperatorPtr child_;
  std::vector<Predicate> predicates_;
  std::vector<const Predicate*> effective_;
};

/// Expression projection: evaluates each output expression over the
/// selected rows and emits a dense owned batch. Output column types are
/// the expressions' static result types, which are the schema's.
class ProjectOp final : public Operator {
 public:
  ProjectOp(OperatorPtr child, Schema schema,
                 std::vector<ExprPtr> exprs);

  const char* name() const override { return "Project"; }
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  ColumnBatch input_;
};

/// Hash join on equi keys with residual conditions; builds on the right
/// input, probes with the left, NULL keys never match. Matches may
/// overflow a batch, so probe progress (batch, position, match index)
/// carries across NextBatch calls. rows_joined counts enumerated pairs
/// before residual filtering.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
                  std::vector<JoinNode::EquiKey> keys,
                  std::vector<Predicate> residual);

  const char* name() const override { return "HashJoin"; }
  const std::vector<Predicate>& residual() const { return residual_; }
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<JoinNode::EquiKey> keys_;
  std::vector<Predicate> residual_;
  std::unordered_map<std::vector<Value>, std::vector<std::vector<Value>>,
                     ValueVecHash, ValueVecEq>
      build_;
  // Probe carry state.
  ColumnBatch probe_batch_;
  bool probe_valid_ = false;
  std::size_t probe_idx_ = 0;
  std::vector<Value> probe_row_;
  const std::vector<std::vector<Value>>* matches_ = nullptr;
  std::size_t match_idx_ = 0;
  // Dictionary fast path for a single VARCHAR key over a view-mode probe
  // column: memoizes probe-code → build-bucket lookups, so each distinct
  // probe string is boxed and hashed once per join instead of once per
  // row. Code equality ⇔ string equality, so results are identical to the
  // generic path. Keyed by the probe column's backing ColumnVector.
  const ColumnVector* probe_dict_source_ = nullptr;
  std::vector<const std::vector<std::vector<Value>>*> code_buckets_;
  std::vector<std::uint8_t> code_cached_;
};

/// Nested-loop join for non-equi conditions; materializes the right input
/// at Open. Output may overflow a batch, so the left cursor (batch,
/// position, right index) carries across NextBatch calls.
class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                   std::vector<Predicate> conditions);

  const char* name() const override { return "NestedLoopJoin"; }
  const std::vector<Predicate>& conditions() const { return conditions_; }
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<Predicate> conditions_;
  std::vector<std::vector<Value>> right_rows_;
  ColumnBatch left_batch_;
  bool left_batch_valid_ = false;
  std::size_t left_idx_ = 0;
  std::vector<Value> left_row_;
  bool left_valid_ = false;
  std::size_t right_idx_ = 0;
};

/// Hash aggregation; materializes groups at Open, evaluating group keys
/// and aggregate arguments a batch at a time. `key_flags` mirrors
/// AggregateNode::key_flags(): exprs with a cleared flag are carried in
/// the output but excluded from the grouping key (FD-pruned columns).
class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, Schema schema,
                  std::vector<ExprPtr> group_by,
                  std::vector<AggregateItem> aggregates,
                  std::vector<bool> key_flags = {});

  const char* name() const override { return "HashAggregate"; }
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateItem> aggregates_;
  std::vector<bool> key_flags_;
  std::vector<std::vector<Value>> results_;
  std::size_t next_ = 0;
};

/// Full in-memory sort. `presorted` (set by the planner when the input
/// already carries the needed order) turns it into a pass-through of the
/// child's batches while still letting EXPLAIN show where a sort *would*
/// be.
class SortOp final : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys, bool presorted);

  const char* name() const override { return "Sort"; }
  bool presorted() const { return presorted_; }
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  bool presorted_;
  std::vector<std::vector<Value>> rows_;
  std::size_t next_ = 0;
};

/// Concatenation of children: each child's batches pass straight through.
class UnionAllOp final : public Operator {
 public:
  UnionAllOp(Schema schema, std::vector<OperatorPtr> children);

  const char* name() const override { return "UnionAll"; }
  void AppendChildren(std::vector<const Operator*>* out) const override {
    for (const OperatorPtr& c : children_) out->push_back(c.get());
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  std::vector<OperatorPtr> children_;
  std::size_t current_ = 0;
};

/// LIMIT n: truncates the selection vector of the batch that reaches the
/// limit and stops pulling after it. The child may have produced (and
/// counted in ExecStats) a whole batch more than the limit keeps.
class LimitOp final : public Operator {
 public:
  LimitOp(OperatorPtr child, std::size_t limit);

  const char* name() const override { return "Limit"; }
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) override;

 private:
  OperatorPtr child_;
  std::size_t limit_;
  std::size_t produced_ = 0;
};

/// An operator producing zero rows (used when a branch is pruned away by a
/// contradiction, §5's union-all knock-off).
class EmptyOp final : public Operator {
 public:
  explicit EmptyOp(Schema schema) : Operator(std::move(schema)) {}
  const char* name() const override { return "Empty"; }
  Status Open(ExecContext*) override { return Status::OK(); }
  Result<bool> NextBatch(ExecContext*, ColumnBatch*) override {
    return false;
  }
};

/// Evaluates `predicates` (skipping estimation-only ones) against a row;
/// true only when every predicate evaluates to TRUE.
Result<bool> EvalPredicates(const std::vector<Predicate>& predicates,
                            const std::vector<Value>& row);

}  // namespace softdb

#endif  // SOFTDB_EXEC_OPERATORS_H_
