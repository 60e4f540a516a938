#ifndef SOFTDB_EXEC_COLUMN_BATCH_H_
#define SOFTDB_EXEC_COLUMN_BATCH_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/column_vector.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace softdb {

/// Rows per batch in the vectorized engine. 1024 keeps a batch of a few
/// int64/double columns inside L2 while amortizing per-batch overheads
/// (virtual dispatch, selection bookkeeping) over enough rows to vanish.
inline constexpr std::size_t kBatchCapacity = 1024;

/// Selection-vector index type; kBatchCapacity must fit.
using SelIdx = std::uint16_t;
static_assert(kBatchCapacity <= 1u << 16);

/// One column of a batch: either a zero-copy *view* of a contiguous run of
/// a storage ColumnVector (sequential scans) or an *owned* buffer
/// (index-scan gathers, projections, join outputs). Accessors take batch
/// positions (0..size); view mode adds the base row offset internally.
class BatchColumn {
 public:
  TypeId type() const { return type_; }

  /// Points this column at rows [base, base+n) of `source` without copying.
  void SetView(const ColumnVector* source, std::size_t base) {
    type_ = source->type();
    view_ = source;
    base_ = base;
    ClearOwned();
  }

  /// Switches to owned mode with empty buffers of the given type.
  void ResetOwned(TypeId type) {
    type_ = type;
    view_ = nullptr;
    base_ = 0;
    ClearOwned();
  }

  bool IsNull(std::size_t pos) const {
    return view_ ? view_->RawNulls()[base_ + pos] != 0 : nulls_[pos] != 0;
  }
  std::int64_t Int64(std::size_t pos) const {
    return view_ ? view_->RawInts()[base_ + pos] : ints_[pos];
  }
  double Double(std::size_t pos) const {
    return view_ ? view_->RawDoubles()[base_ + pos] : doubles_[pos];
  }
  const std::string& String(std::size_t pos) const {
    return view_ ? view_->RawStrings()[base_ + pos] : strings_[pos];
  }

  /// Materializes one cell exactly as ColumnVector::Get / Table::GetRow
  /// would; owned NULLs carry the column's type.
  Value GetValue(std::size_t pos) const;

  /// Contiguous raw spans for the kernel layer, uniform across view and
  /// owned mode (the view/owned asymmetry fix): every pointer is
  /// pre-offset so index 0 is batch position 0, and is valid for at least
  /// the enclosing batch's size() rows.
  ///
  /// Null-handling contract: `nulls[pos] != 0` marks SQL NULL, and the
  /// payload of a NULL row in the typed buffer is *unspecified* (storage
  /// happens to write 0 / "") — kernels must mask NULL rows out of every
  /// result rather than branch on payloads. Exactly the buffer matching
  /// the column's physical family is populated: `i64` for int-like types
  /// (BIGINT, DATE, BOOLEAN), `f64` for DOUBLE, `str` for VARCHAR; all
  /// others stay nullptr. `codes` carries the dictionary codes of a
  /// view-mode VARCHAR column (owned string buffers are materialized, so
  /// `codes` is nullptr there and code kernels fall back to `str`).
  struct RawSpans {
    const std::int64_t* i64 = nullptr;
    const double* f64 = nullptr;
    const std::string* str = nullptr;
    const std::int32_t* codes = nullptr;
    const std::uint8_t* nulls = nullptr;
  };
  RawSpans RawData() const;

  /// The storage column a view-mode column points at (nullptr in owned
  /// mode). Dictionary lookups (FindCode) go through this.
  const ColumnVector* view_source() const { return view_; }

  /// Owned-mode appends. AppendValue mirrors ColumnVector::Append's type
  /// coercion, so rows rebuilt from materialized Values stay identical.
  void AppendValue(const Value& v);
  /// Raw typed appends (projection outputs). The payload of a null entry is
  /// ignored; null strings may pass nullptr.
  void AppendRawInt64(std::int64_t v, bool null) {
    nulls_.push_back(null ? 1 : 0);
    ints_.push_back(null ? 0 : v);
  }
  void AppendRawDouble(double v, bool null) {
    nulls_.push_back(null ? 1 : 0);
    doubles_.push_back(null ? 0.0 : v);
  }
  void AppendRawString(const std::string* v, bool null) {
    nulls_.push_back(null ? 1 : 0);
    if (null) {
      strings_.emplace_back();
    } else {
      strings_.push_back(*v);
    }
  }
  /// Copies one cell from another batch column (typed, no Value boxing).
  void AppendFrom(const BatchColumn& src, std::size_t pos);

  /// Gathers `n` arbitrary rows of `src` into owned buffers (index scans,
  /// whose qualifying rows are not contiguous).
  void GatherFrom(const ColumnVector& src, const RowId* rows, std::size_t n);

 private:
  void ClearOwned() {
    ints_.clear();
    doubles_.clear();
    strings_.clear();
    nulls_.clear();
  }

  TypeId type_ = TypeId::kInt64;
  const ColumnVector* view_ = nullptr;
  std::size_t base_ = 0;
  // Owned buffers (used when view_ == nullptr).
  std::vector<std::int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<std::uint8_t> nulls_;
};

/// A fixed-capacity batch of rows in columnar layout plus a selection
/// vector: `sel()[0..sel_size())` lists the positions (ascending) that are
/// logically present. Operators narrow the selection in place (filters)
/// or emit densely-packed batches with an identity selection (projections,
/// joins). Capacity is kBatchCapacity rows.
class ColumnBatch {
 public:
  /// Re-shapes for `schema` (column count + types) and clears rows and
  /// selection. Owned columns start empty.
  void Reset(const Schema& schema);

  /// Points every column at rows [base, base+n) of `table` (zero-copy) and
  /// sets size to n. Selection is left empty for the caller to fill.
  void BindTableView(const Table& table, std::size_t base, std::size_t n);

  std::size_t NumColumns() const { return columns_.size(); }
  BatchColumn& column(std::size_t i) { return columns_[i]; }
  const BatchColumn& column(std::size_t i) const { return columns_[i]; }

  std::size_t size() const { return size_; }
  void set_size(std::size_t n) { size_ = n; }

  const SelIdx* sel() const { return sel_.data(); }
  SelIdx* mutable_sel() { return sel_.data(); }
  std::size_t sel_size() const { return sel_size_; }
  void set_sel_size(std::size_t n) { sel_size_ = n; }

  /// Identity selection over the first n rows.
  void SelectAll(std::size_t n) {
    size_ = n;
    sel_size_ = n;
    for (std::size_t i = 0; i < n; ++i) sel_[i] = static_cast<SelIdx>(i);
  }

  /// True when the selection vector is well-formed: strictly ascending
  /// (hence duplicate-free), every entry in [0, size()), and no more
  /// entries than rows. Every operator must preserve this; PlanVerifier
  /// and the differential fuzzer check it.
  bool SelectionValid() const {
    if (sel_size_ > size_) return false;
    for (std::size_t i = 0; i < sel_size_; ++i) {
      if (sel_[i] >= size_) return false;
      if (i > 0 && sel_[i] <= sel_[i - 1]) return false;
    }
    return true;
  }

  /// Materializes one row in column order (Table::GetRow order for scans).
  std::vector<Value> MaterializeRow(std::size_t pos) const;

  /// Replaces this batch with an owned, densely packed copy of `src`'s
  /// selected rows (same column types, identity selection), so the copy
  /// outlives the storage views and scratch buffers `src` points into.
  void CopySelectedFrom(const ColumnBatch& src);

 private:
  std::vector<BatchColumn> columns_;
  std::size_t size_ = 0;
  std::array<SelIdx, kBatchCapacity> sel_{};
  std::size_t sel_size_ = 0;
};

}  // namespace softdb

#endif  // SOFTDB_EXEC_COLUMN_BATCH_H_
