#include "constraints/zone_map_sc.h"

#include <algorithm>

#include "common/str_util.h"

namespace softdb {

namespace {

std::size_t BlockOf(RowId rid) { return rid / kZoneMapBlockRows; }

}  // namespace

Status ZoneMapSc::Mine(const Catalog& catalog) {
  SOFTDB_ASSIGN_OR_RETURN(Table * table, catalog.GetTable(table_));
  const ColumnVector& col = table->ColumnData(column_);
  const std::size_t slots = table->NumSlots();
  std::vector<BlockSma> fresh((slots + kZoneMapBlockRows - 1) /
                              kZoneMapBlockRows);
  for (RowId r = 0; r < slots; ++r) {
    if (!table->IsLive(r)) continue;
    BlockSma& b = fresh[BlockOf(r)];
    if (col.IsNull(r)) {
      ++b.null_count;
      continue;
    }
    const double x = col.GetNumeric(r);
    b.min = b.has_value ? std::min(b.min, x) : x;
    b.max = b.has_value ? std::max(b.max, x) : x;
    b.has_value = true;
  }
  std::unique_lock<std::shared_mutex> lk(params_mu_);
  blocks_ = std::move(fresh);
  BumpEpoch();
  return Status::OK();
}

void ZoneMapSc::FoldAppendedRow(RowId rid, const std::vector<Value>& row) {
  const Value& v = row[column_];
  std::unique_lock<std::shared_mutex> lk(params_mu_);
  const std::size_t blk = BlockOf(rid);
  if (blk >= blocks_.size()) blocks_.resize(blk + 1);
  BlockSma& b = blocks_[blk];
  if (v.is_null()) {
    ++b.null_count;
    return;
  }
  const double x = v.NumericValue();
  b.min = b.has_value ? std::min(b.min, x) : x;
  b.max = b.has_value ? std::max(b.max, x) : x;
  b.has_value = true;
  // No epoch bump: appends only loosen the envelope, and a plan in flight
  // was admitted against the pre-insert table state.
}

Status ZoneMapSc::FoldUpdatedRow(const Catalog& catalog, RowId rid,
                                 const std::vector<Value>& new_row) {
  SOFTDB_ASSIGN_OR_RETURN(Table * table, catalog.GetTable(table_));
  const Value old_v = table->Get(rid, column_);
  const Value& new_v = new_row[column_];
  bool widened = false;
  std::unique_lock<std::shared_mutex> lk(params_mu_);
  const std::size_t blk = BlockOf(rid);
  if (blk >= blocks_.size()) blocks_.resize(blk + 1);
  BlockSma& b = blocks_[blk];
  if (new_v.is_null()) {
    if (!old_v.is_null()) {
      // Non-null → NULL raises the block's possible live-null count. The
      // old value stays inside the (over-approximate) envelope.
      ++b.null_count;
      widened = true;
    }
  } else {
    const double x = new_v.NumericValue();
    if (!b.has_value) {
      b.min = x;
      b.max = x;
      b.has_value = true;
      widened = true;
    } else if (x < b.min) {
      b.min = x;
      widened = true;
    } else if (x > b.max) {
      b.max = x;
      widened = true;
    }
    // NULL → non-null leaves null_count as an upper bound (one-sided
    // invariant); no tightening is attempted online.
  }
  if (widened) {
    // Unlike appends, an update can move a row that an in-flight skip
    // decision already passed over; the epoch bump routes such plans
    // through the standard degraded retry. Bumped under params_mu_, so a
    // snapshot never pairs the widened blocks with the old epoch.
    BumpEpoch();
  }
  return Status::OK();
}

void ZoneMapSc::DeclareBlock(std::size_t block, BlockSma sma) {
  std::unique_lock<std::shared_mutex> lk(params_mu_);
  if (block >= blocks_.size()) blocks_.resize(block + 1);
  blocks_[block] = sma;
}

void ZoneMapSc::CorruptBlockForTest(std::size_t block, double min, double max,
                                    std::uint64_t null_count) {
  DeclareBlock(block, BlockSma{min, max, /*has_value=*/true, null_count});
}

Status ZoneMapSc::RepairFull(const Catalog& catalog) {
  SOFTDB_RETURN_IF_ERROR(Mine(catalog));
  return Verify(catalog).status();
}

Result<ScVerifyOutcome> ZoneMapSc::CountViolations(const Catalog& catalog) {
  SOFTDB_ASSIGN_OR_RETURN(Table * table, catalog.GetTable(table_));
  const ColumnVector& col = table->ColumnData(column_);
  const std::vector<BlockSma> blocks = SnapshotBlocks();
  ScVerifyOutcome out;
  // Actual live NULL rows per block, tallied to charge any excess over the
  // stored upper bound as violations.
  std::vector<std::uint64_t> live_nulls(blocks.size(), 0);
  for (RowId r = 0; r < table->NumSlots(); ++r) {
    if (!table->IsLive(r)) continue;
    ++out.rows;
    const std::size_t blk = BlockOf(r);
    if (col.IsNull(r)) {
      if (blk < live_nulls.size()) ++live_nulls[blk];
      // A live NULL in a block the map has never seen: charged below via
      // the stored-bound comparison (stored count is implicitly 0).
      if (blk >= blocks.size()) ++out.violations;
      continue;
    }
    if (blk >= blocks.size() || !blocks[blk].has_value) {
      ++out.violations;
      continue;
    }
    const double x = col.GetNumeric(r);
    if (x < blocks[blk].min || x > blocks[blk].max) ++out.violations;
  }
  for (std::size_t blk = 0; blk < blocks.size(); ++blk) {
    if (live_nulls[blk] > blocks[blk].null_count) {
      out.violations += live_nulls[blk] - blocks[blk].null_count;
    }
  }
  return out;
}

std::string ZoneMapSc::Describe() const {
  std::size_t nblocks;
  std::size_t armed = 0;
  {
    std::shared_lock<std::shared_mutex> lk(params_mu_);
    nblocks = blocks_.size();
    for (const BlockSma& b : blocks_) {
      if (b.has_value) ++armed;
    }
  }
  return StrFormat(
      "SC %s ON %s: BLOCK ZONE MAP col%u (%zu blocks x %zu rows, %zu with "
      "values, conf %.4f, %s)",
      name_.c_str(), table_.c_str(), column_, nblocks, kZoneMapBlockRows,
      armed, confidence(), ScStateName(state()));
}

}  // namespace softdb
