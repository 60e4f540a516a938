#ifndef SOFTDB_EXEC_OPERATOR_H_
#define SOFTDB_EXEC_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/result.h"
#include "common/value.h"
#include "exec/column_batch.h"
#include "storage/schema.h"

namespace softdb {

/// Runtime counters for one query execution. `pages_read` is the simulated
/// I/O metric the experiments report (the paper's join-hole and
/// predicate-introduction wins are measured in pages scanned).
struct ExecStats {
  std::uint64_t rows_scanned = 0;   // Rows examined by scans.
  std::uint64_t rows_emitted = 0;   // Rows surviving scan predicates.
  std::uint64_t pages_read = 0;     // Simulated page fetches.
  std::uint64_t rows_output = 0;    // Rows produced by the root.
  std::uint64_t rows_sorted = 0;    // Rows passing through Sort operators.
  std::uint64_t index_lookups = 0;  // Index range scans performed.
  std::uint64_t rows_joined = 0;    // Probe-side comparisons in joins.
  std::uint64_t runtime_param_skips = 0;  // §4.2 predicates skipped at Open.
  // Block-zone-map pruning: 1024-row blocks whose SMA interval provably
  // excludes every scan predicate, skipped without touching the rows, and
  // the number of blocks the scan covered in total. Serial and parallel
  // execution consult the same plan-time skip decisions, so both counters
  // ARE part of the serial/parallel stat-equality invariant.
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_total = 0;
  // Morsels executed by the parallel engine. An execution-strategy
  // detail: 0 on serial paths, so it is excluded from the serial/parallel
  // stat-equality invariant the differential fuzzer checks.
  std::uint64_t morsels = 0;
  // Transparent re-executions after a mid-query overturn of a
  // rewrite-consumed absolute SC (see DESIGN.md "Failure model"). Like
  // `morsels`, a robustness detail excluded from the serial/parallel
  // stat-equality invariant; 0 on every undisturbed execution.
  std::uint64_t degraded_retries = 0;
  // Rewrite-certificate checking (DESIGN.md §13): proof obligations the
  // post-planning CertificateChecker re-validated for this query, and how
  // many did not prove their conclusion (kInvalid verdicts — always 0
  // unless the rewriter mis-derived; debug builds abort the query
  // instead). Certificates are emitted at plan time, so both counters are
  // independent of execution and part of the stat-equality invariant.
  std::uint64_t certificates_checked = 0;
  std::uint64_t certificates_failed = 0;
  // Write-ahead-log activity attributed to this statement: records and
  // bytes appended, fsyncs issued (DESIGN.md §14). Durability
  // bookkeeping, not query work — 0 with the WAL off and on every SELECT,
  // and, like `morsels`, excluded from the serial/parallel stat-equality
  // invariant.
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_fsyncs = 0;

  void Reset() { *this = ExecStats{}; }

  /// Adds another counter set into this one. The parallel coordinator
  /// aggregates per-worker counters with this, in morsel order, so
  /// per-query totals are deterministic and equal to serial execution.
  void Accumulate(const ExecStats& other) {
    rows_scanned += other.rows_scanned;
    rows_emitted += other.rows_emitted;
    pages_read += other.pages_read;
    rows_output += other.rows_output;
    rows_sorted += other.rows_sorted;
    index_lookups += other.index_lookups;
    rows_joined += other.rows_joined;
    runtime_param_skips += other.runtime_param_skips;
    blocks_skipped += other.blocks_skipped;
    blocks_total += other.blocks_total;
    morsels += other.morsels;
    degraded_retries += other.degraded_retries;
    certificates_checked += other.certificates_checked;
    certificates_failed += other.certificates_failed;
    wal_records += other.wal_records;
    wal_bytes += other.wal_bytes;
    wal_fsyncs += other.wal_fsyncs;
  }
};

class TaskScheduler;

/// Shared execution context; owns the counters operators update. The
/// scheduler is borrowed from the engine (null: run everything inline on
/// the calling thread).
struct ExecContext {
  ExecStats stats;
  TaskScheduler* scheduler = nullptr;
  // Borrowed per-query limits; null means uncancellable with no deadline.
  const QueryContext* query = nullptr;
  // Route batch filters/projections through the branch-free kernels in
  // exec/kernels.h where eligible. The scalar expression walker is the
  // always-correct fallback; this flag exists so benches and the
  // differential fuzzer can A/B the two paths. Must be copied into
  // morsel-local contexts by the parallel coordinator.
  bool use_kernels = true;

  /// Full cancellation/deadline check. Called at batch and morsel
  /// boundaries, where the clock read is amortized over many rows.
  Status CheckInterrupt() const {
    return query == nullptr ? Status::OK() : query->Check();
  }
};

/// A pull-based vectorized physical operator: each call produces a
/// ColumnBatch (columns plus a selection vector) rather than a row. Every
/// output Value a batch materializes carries its schema column's type,
/// NULLs included.
class Operator {
 public:
  explicit Operator(Schema schema) : schema_(std::move(schema)) {}
  virtual ~Operator() = default;

  const Schema& schema() const { return schema_; }

  /// Stable operator name for diagnostics ("SeqScan", "HashJoin", ...).
  virtual const char* name() const { return "Operator"; }

  /// Appends this operator's direct children, letting analysis passes walk
  /// physical trees without knowing every subclass. Leaves append nothing.
  virtual void AppendChildren(std::vector<const Operator*>* out) const {
    (void)out;
  }

  /// Prepares for iteration (builds hash tables, sorts, ...). Must be
  /// called before NextBatch; may be called again to re-run.
  virtual Status Open(ExecContext* ctx) = 0;

  /// Produces the next non-empty batch into *batch (columns, size, and
  /// selection vector all set). Returns false at end of stream.
  virtual Result<bool> NextBatch(ExecContext* ctx, ColumnBatch* batch) = 0;

 protected:
  Schema schema_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// A fully materialized query result.
struct RowSet {
  Schema schema;
  std::vector<std::vector<Value>> rows;

  std::size_t NumRows() const { return rows.size(); }
  /// Tabular rendering for examples and benches.
  std::string ToString(std::size_t max_rows = 20) const;
};

/// Runs `root` to completion, collecting all rows and updating ctx->stats.
Result<RowSet> ExecuteToCompletion(Operator* root, ExecContext* ctx);

}  // namespace softdb

#endif  // SOFTDB_EXEC_OPERATOR_H_
