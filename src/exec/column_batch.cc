#include "exec/column_batch.h"

#include <cmath>

namespace softdb {

namespace {

bool IntBacked(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDate || t == TypeId::kBool;
}

}  // namespace

Value BatchColumn::GetValue(std::size_t pos) const {
  if (view_ != nullptr) return view_->Get(base_ + pos);
  if (nulls_[pos]) return Value::Null(type_);
  switch (type_) {
    case TypeId::kInt64:
      return Value::Int64(ints_[pos]);
    case TypeId::kDate:
      return Value::Date(ints_[pos]);
    case TypeId::kBool:
      return Value::Bool(ints_[pos] != 0);
    case TypeId::kDouble:
      return Value::Double(doubles_[pos]);
    case TypeId::kString:
      return Value::String(strings_[pos]);
  }
  return Value::Null(type_);
}

BatchColumn::RawSpans BatchColumn::RawData() const {
  RawSpans s;
  if (view_ != nullptr) {
    s.nulls = view_->RawNulls() + base_;
    if (IntBacked(type_)) {
      s.i64 = view_->RawInts() + base_;
    } else if (type_ == TypeId::kDouble) {
      s.f64 = view_->RawDoubles() + base_;
    } else {
      s.str = view_->RawStrings() + base_;
      s.codes = view_->RawCodes() + base_;
    }
    return s;
  }
  s.nulls = nulls_.data();
  if (IntBacked(type_)) {
    s.i64 = ints_.data();
  } else if (type_ == TypeId::kDouble) {
    s.f64 = doubles_.data();
  } else {
    s.str = strings_.data();
  }
  return s;
}

void BatchColumn::AppendValue(const Value& v) {
  nulls_.push_back(v.is_null() ? 1 : 0);
  if (IntBacked(type_)) {
    if (v.is_null()) {
      ints_.push_back(0);
    } else if (v.type() == TypeId::kDouble) {
      ints_.push_back(static_cast<std::int64_t>(std::llround(v.AsDouble())));
    } else {
      ints_.push_back(v.AsInt64());
    }
  } else if (type_ == TypeId::kDouble) {
    doubles_.push_back(v.is_null() ? 0.0 : v.NumericValue());
  } else {
    if (v.is_null()) {
      strings_.emplace_back();
    } else {
      strings_.push_back(v.AsString());
    }
  }
}

void BatchColumn::AppendFrom(const BatchColumn& src, std::size_t pos) {
  const bool null = src.IsNull(pos);
  nulls_.push_back(null ? 1 : 0);
  if (IntBacked(type_)) {
    ints_.push_back(null ? 0 : src.Int64(pos));
  } else if (type_ == TypeId::kDouble) {
    doubles_.push_back(null ? 0.0 : src.Double(pos));
  } else {
    if (null) {
      strings_.emplace_back();
    } else {
      strings_.push_back(src.String(pos));
    }
  }
}

void BatchColumn::GatherFrom(const ColumnVector& src, const RowId* rows,
                             std::size_t n) {
  ResetOwned(src.type());
  nulls_.reserve(n);
  const std::uint8_t* src_nulls = src.RawNulls();
  if (IntBacked(type_)) {
    ints_.reserve(n);
    const std::int64_t* buf = src.RawInts();
    for (std::size_t i = 0; i < n; ++i) {
      nulls_.push_back(src_nulls[rows[i]]);
      ints_.push_back(buf[rows[i]]);
    }
  } else if (type_ == TypeId::kDouble) {
    doubles_.reserve(n);
    const double* buf = src.RawDoubles();
    for (std::size_t i = 0; i < n; ++i) {
      nulls_.push_back(src_nulls[rows[i]]);
      doubles_.push_back(buf[rows[i]]);
    }
  } else {
    strings_.reserve(n);
    const std::string* buf = src.RawStrings();
    for (std::size_t i = 0; i < n; ++i) {
      nulls_.push_back(src_nulls[rows[i]]);
      strings_.push_back(buf[rows[i]]);
    }
  }
}

void ColumnBatch::Reset(const Schema& schema) {
  columns_.resize(schema.NumColumns());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].ResetOwned(schema.Column(static_cast<ColumnIdx>(i)).type);
  }
  size_ = 0;
  sel_size_ = 0;
}

void ColumnBatch::BindTableView(const Table& table, std::size_t base,
                                std::size_t n) {
  const std::size_t cols = table.schema().NumColumns();
  columns_.resize(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    columns_[i].SetView(&table.ColumnData(static_cast<ColumnIdx>(i)), base);
  }
  size_ = n;
  sel_size_ = 0;
}

std::vector<Value> ColumnBatch::MaterializeRow(std::size_t pos) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const BatchColumn& col : columns_) out.push_back(col.GetValue(pos));
  return out;
}

void ColumnBatch::CopySelectedFrom(const ColumnBatch& src) {
  columns_.resize(src.NumColumns());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    BatchColumn& dst = columns_[c];
    const BatchColumn& from = src.column(c);
    dst.ResetOwned(from.type());
    for (std::size_t i = 0; i < src.sel_size(); ++i) {
      dst.AppendFrom(from, src.sel()[i]);
    }
  }
  SelectAll(src.sel_size());
}

}  // namespace softdb
