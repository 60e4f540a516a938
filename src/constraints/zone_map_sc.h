#ifndef SOFTDB_CONSTRAINTS_ZONE_MAP_SC_H_
#define SOFTDB_CONSTRAINTS_ZONE_MAP_SC_H_

#include <cstdint>
#include <limits>
#include <shared_mutex>
#include <string>
#include <vector>

#include "constraints/soft_constraint.h"
#include "storage/table.h"  // kZoneMapBlockRows

namespace softdb {

/// Block zone maps as a soft constraint: per-block (1024-row-aligned)
/// min/max/null-count Small Materialized Aggregates over one column's
/// numeric rendering, mined exactly at table load and folded
/// *incrementally* on DML — widen-only, Kläbe-style, so maintenance never
/// rescans the table. The constraint it asserts, per block b:
///
///   (1) every LIVE row in b with a non-NULL column value v has
///       min_b ≤ v ≤ max_b (and has_value_b is set);
///   (2) the number of LIVE NULL rows in b is ≤ null_count_b.
///
/// Both clauses are one-sided over-approximations, which is what makes
/// widen-only folding sound: inserts widen the envelope / bump the null
/// count, deletes are no-ops (the envelope just stays loose), updates
/// widen and — being the one mutation that can matter to an in-flight
/// plan — bump the epoch so the standard degraded-retry protocol applies.
/// Scans may therefore skip a block when the predicate's TRUE-region
/// misses [min_b, max_b] (comparisons), when null_count_b == 0 (IS NULL),
/// or when !has_value_b (IS NOT NULL and all comparisons).
///
/// Like every SC it is epoch-guarded and verified: VerifyAll recounts the
/// invariant against the data (catching a corrupted / stale map: its
/// confidence drops below 1 and planners stop consulting it), and
/// RepairFull re-mines the exact aggregates.
class ZoneMapSc final : public SoftConstraint {
 public:
  struct BlockSma {
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    bool has_value = false;          // Any non-NULL value folded?
    std::uint64_t null_count = 0;    // Upper bound on live NULL rows.
  };

  ZoneMapSc(std::string name, std::string table, ColumnIdx column)
      : SoftConstraint(std::move(name), ScKind::kBlockZoneMap,
                       std::move(table)),
        column_(column) {}

  ColumnIdx column() const { return column_; }

  /// Exact (re)computation of every block from the current live rows.
  /// Used at mining time and by RepairFull. Publishes the blocks and bumps
  /// the epoch under one lock: a re-mine may tighten envelopes a plan in
  /// flight skipped against.
  Status Mine(const Catalog& catalog);

  /// Incremental folds, called by the ScRegistry DML hooks under this
  /// SC's maintenance_mu(). FoldAppendedRow widens the row's block
  /// without an epoch bump (a loosened envelope cannot invalidate a skip
  /// decision made against pre-insert data under the engine's
  /// DML/query serialization). FoldUpdatedRow is called BEFORE the table
  /// cells mutate — it reads the old value from the catalog — and bumps
  /// the epoch when the update widens the block's bounds or raises its
  /// null count, invalidating in-flight plans that consumed this map.
  void FoldAppendedRow(RowId rid, const std::vector<Value>& row);
  Status FoldUpdatedRow(const Catalog& catalog, RowId rid,
                        const std::vector<Value>& new_row);

  /// Copy of the per-block SMAs (planners consult this snapshot under the
  /// params lock, then compute skip sets lock-free). When `epoch` is given
  /// it receives the epoch read under the same lock, so the blocks and the
  /// epoch a skip decision or its certificate records belong together.
  std::vector<BlockSma> SnapshotBlocks(std::uint64_t* epoch = nullptr) const {
    std::shared_lock<std::shared_mutex> lk(params_mu_);
    if (epoch != nullptr) *epoch = this->epoch();
    return blocks_;
  }

  /// Declares one block's SMA verbatim, growing the block vector as
  /// needed. This is the catalog-dump loader behind softdb_lint's ZONEMAP
  /// directive: a dumped map is re-stated block by block so the linter can
  /// cross-check it against the rest of the catalog without the data.
  void DeclareBlock(std::size_t block, BlockSma sma);

  /// Test hook: seed a corrupted (narrowed) block so VerifyAll's
  /// detection and RepairFull's re-mine can be exercised.
  void CorruptBlockForTest(std::size_t block, double min, double max,
                           std::uint64_t null_count);

  /// Zone maps are folded by position via the DML hooks, never checked
  /// row-at-a-time (a row without its RowId cannot be attributed to a
  /// block), so generic per-row maintenance treats every row as compliant.
  Result<bool> CheckRow(const Catalog& catalog,
                        const std::vector<Value>& row) const override {
    (void)catalog;
    (void)row;
    return true;
  }

  /// Exact repair: re-mine every block, then re-verify.
  Status RepairFull(const Catalog& catalog) override;

  std::string Describe() const override;

 protected:
  Result<ScVerifyOutcome> CountViolations(const Catalog& catalog) override;

 private:
  ColumnIdx column_;
  // Derived parameters under params_mu_: one SMA per kZoneMapBlockRows
  // slots, indexed by RowId / kZoneMapBlockRows (tombstoned slots
  // included — deletes are no-ops, the envelope is an over-approximation).
  std::vector<BlockSma> blocks_;
};

}  // namespace softdb

#endif  // SOFTDB_CONSTRAINTS_ZONE_MAP_SC_H_
