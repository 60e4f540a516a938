#include "storage/index.h"

#include <algorithm>

namespace softdb {

namespace {

// Key ordering; same-typed keys only (enforced by the column type).
bool KeyLess(const Value& a, const Value& b) {
  auto cmp = a.Compare(b);
  return cmp.ok() && *cmp < 0;
}

// 1 when key-order neighbours `a` and `b` live on different data pages.
std::size_t PageSwitch(RowId a, RowId b) {
  return a / kRowsPerPage != b / kRowsPerPage ? 1 : 0;
}

}  // namespace

Index::Index(std::string name, const Table* table, ColumnIdx column)
    : name_(std::move(name)), table_(table), column_(column) {
  Rebuild();
}

void Index::Rebuild() {
  entries_.clear();
  entries_.reserve(table_->NumRows());
  const ColumnVector& col = table_->ColumnData(column_);
  for (RowId row = 0; row < table_->NumSlots(); ++row) {
    if (!table_->IsLive(row) || col.IsNull(row)) continue;
    entries_.push_back(Entry{col.Get(row), row});
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              auto cmp = a.key.Compare(b.key);
              if (cmp.ok() && *cmp != 0) return *cmp < 0;
              return a.row < b.row;
            });
  page_switches_ = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    page_switches_ += PageSwitch(entries_[i - 1].row, entries_[i].row);
  }
}

Status Index::Insert(const Value& key, RowId row) {
  if (key.is_null()) return Status::OK();
  Entry e{key, row};
  auto it = std::upper_bound(entries_.begin(), entries_.end(), e,
                             [](const Entry& a, const Entry& b) {
                               auto cmp = a.key.Compare(b.key);
                               if (cmp.ok() && *cmp != 0) return *cmp < 0;
                               return a.row < b.row;
                             });
  // Splicing between two neighbours replaces their adjacency with two.
  const bool has_prev = it != entries_.begin();
  const bool has_next = it != entries_.end();
  if (has_prev && has_next) {
    page_switches_ -= PageSwitch((it - 1)->row, it->row);
  }
  if (has_prev) page_switches_ += PageSwitch((it - 1)->row, row);
  if (has_next) page_switches_ += PageSwitch(row, it->row);
  entries_.insert(it, std::move(e));
  return Status::OK();
}

Status Index::Remove(const Value& key, RowId row) {
  if (key.is_null()) return Status::OK();
  std::size_t i = LowerBound(key, /*inclusive=*/true);
  for (; i < entries_.size(); ++i) {
    auto cmp = entries_[i].key.Compare(key);
    if (!cmp.ok() || *cmp != 0) break;
    if (entries_[i].row == row) {
      const bool has_prev = i > 0;
      const bool has_next = i + 1 < entries_.size();
      if (has_prev) page_switches_ -= PageSwitch(entries_[i - 1].row, row);
      if (has_next) page_switches_ -= PageSwitch(row, entries_[i + 1].row);
      if (has_prev && has_next) {
        page_switches_ += PageSwitch(entries_[i - 1].row, entries_[i + 1].row);
      }
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      return Status::OK();
    }
  }
  return Status::NotFound("index entry not found");
}

std::size_t Index::LowerBound(const Value& key, bool inclusive) const {
  if (inclusive) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& e, const Value& k) { return KeyLess(e.key, k); });
    return static_cast<std::size_t>(it - entries_.begin());
  }
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), key,
      [](const Value& k, const Entry& e) { return KeyLess(k, e.key); });
  return static_cast<std::size_t>(it - entries_.begin());
}

std::vector<RowId> Index::RangeScan(const std::optional<Value>& lo,
                                    bool lo_inclusive,
                                    const std::optional<Value>& hi,
                                    bool hi_inclusive) const {
  std::size_t begin = lo.has_value() ? LowerBound(*lo, lo_inclusive) : 0;
  std::size_t end = entries_.size();
  if (hi.has_value()) {
    // First entry strictly past the upper bound.
    end = LowerBound(*hi, /*inclusive=*/!hi_inclusive);
  }
  std::vector<RowId> out;
  if (end > begin) out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    if (table_->IsLive(entries_[i].row)) out.push_back(entries_[i].row);
  }
  return out;
}

std::size_t Index::RangeSize(const std::optional<Value>& lo, bool lo_inclusive,
                             const std::optional<Value>& hi,
                             bool hi_inclusive) const {
  std::size_t begin = lo.has_value() ? LowerBound(*lo, lo_inclusive) : 0;
  std::size_t end = entries_.size();
  if (hi.has_value()) end = LowerBound(*hi, /*inclusive=*/!hi_inclusive);
  return end > begin ? end - begin : 0;
}

double Index::PageSwitchDensity() const {
  if (entries_.empty()) return 1.0;
  // The first entry always fetches a page.
  return static_cast<double>(page_switches_ + 1) /
         static_cast<double>(entries_.size());
}

std::optional<Value> Index::MinKey() const {
  for (const Entry& e : entries_) {
    if (table_->IsLive(e.row)) return e.key;
  }
  return std::nullopt;
}

std::optional<Value> Index::MaxKey() const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (table_->IsLive(it->row)) return it->key;
  }
  return std::nullopt;
}

}  // namespace softdb
