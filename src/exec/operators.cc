#include "exec/operators.h"

#include <algorithm>
#include <set>

#include "common/failpoint.h"

namespace softdb {

Result<bool> EvalPredicates(const std::vector<Predicate>& predicates,
                            const std::vector<Value>& row) {
  for (const Predicate& p : predicates) {
    if (p.estimation_only) continue;
    SOFTDB_ASSIGN_OR_RETURN(Value v, p.expr->Eval(row));
    if (v.is_null() || !v.AsBool()) return false;
  }
  return true;
}

namespace {

// Classification of a simple predicate against the current [min, max]
// domain an index maintains — the §4.2 runtime check. 0 = undecided,
// 1 = tautology (skip the predicate), -1 = contradiction (empty scan).
int ClassifyAgainstDomain(const SimplePredicate& sp, const Value& min_key,
                          const Value& max_key) {
  if (sp.constant.is_null()) return -1;
  if (sp.constant.type() == TypeId::kString) return 0;
  const double c = sp.constant.NumericValue();
  const double lo = min_key.NumericValue();
  const double hi = max_key.NumericValue();
  switch (sp.op) {
    case CompareOp::kLe:
      return c >= hi ? 1 : (c < lo ? -1 : 0);
    case CompareOp::kLt:
      return c > hi ? 1 : (c <= lo ? -1 : 0);
    case CompareOp::kGe:
      return c <= lo ? 1 : (c > hi ? -1 : 0);
    case CompareOp::kGt:
      return c < lo ? 1 : (c >= hi ? -1 : 0);
    case CompareOp::kEq:
      return (c < lo || c > hi) ? -1 : 0;
    case CompareOp::kNe:
      return (c < lo || c > hi) ? 1 : 0;
  }
  return 0;
}

}  // namespace

void ChargeZoneMapBlocks(const ZoneMapSkips& skips, ExecContext* ctx) {
  if (skips == nullptr) return;
  ctx->stats.blocks_total += skips->size();
  for (const std::uint8_t s : *skips) ctx->stats.blocks_skipped += s;
}

void ResolveScanRuntimeParams(const std::vector<ScanRuntimeParameter>& params,
                              const Schema& schema, ExecContext* ctx,
                              std::vector<bool>* skip, bool* provably_empty) {
  for (const ScanRuntimeParameter& param : params) {
    // Runtime checks on nullable columns can only prove emptiness when the
    // predicate itself rejects NULLs — which simple comparisons do — so
    // both outcomes are sound: tautology-skip only skips row evaluation
    // for rows that would pass, and contradiction means no row passes.
    auto min_key = param.index->MinKey();
    auto max_key = param.index->MaxKey();
    if (!min_key.has_value() || !max_key.has_value()) continue;
    const int cls = ClassifyAgainstDomain(param.simple, *min_key, *max_key);
    if (cls > 0 && !schema.Column(param.simple.column).nullable) {
      (*skip)[param.predicate_index] = true;
      ++ctx->stats.runtime_param_skips;
    } else if (cls < 0) {
      *provably_empty = true;
      return;
    }
  }
}

namespace {

std::vector<const Predicate*> PredicatePointers(
    const std::vector<Predicate>& preds) {
  std::vector<const Predicate*> out;
  out.reserve(preds.size());
  for (const Predicate& p : preds) out.push_back(&p);
  return out;
}

}  // namespace

// ------------------------------------------------------------------ SeqScan

SeqScanOp::SeqScanOp(const Table* table, Schema schema,
                               std::vector<Predicate> preds)
    : Operator(std::move(schema)), table_(table),
      predicates_(std::move(preds)) {}

void SeqScanOp::AddRuntimeParameter(std::size_t predicate_index,
                                         const Index* index,
                                         SimplePredicate simple) {
  runtime_params_.push_back(
      ScanRuntimeParameter{predicate_index, index, std::move(simple)});
}

void SeqScanOp::BindMorsel(std::size_t base, std::size_t rows,
                                const std::vector<bool>* skip) {
  morsel_mode_ = true;
  morsel_base_ = base;
  morsel_end_ = base + rows;
  morsel_skip_ = skip;
}

Status SeqScanOp::Open(ExecContext* ctx) {
  provably_empty_ = false;
  effective_.clear();

  if (morsel_mode_) {
    // The coordinator already resolved the §4.2 parameters and charged
    // page + skip accounting once for the whole table.
    next_ = morsel_base_;
    for (std::size_t i = 0; i < predicates_.size(); ++i) {
      if (morsel_skip_ == nullptr || !(*morsel_skip_)[i]) {
        effective_.push_back(&predicates_[i]);
      }
    }
    return Status::OK();
  }

  next_ = 0;
  std::vector<bool> skip(predicates_.size(), false);
  ResolveScanRuntimeParams(runtime_params_, schema_, ctx, &skip,
                           &provably_empty_);
  if (provably_empty_) return Status::OK();  // No pages touched at all.
  for (std::size_t i = 0; i < predicates_.size(); ++i) {
    if (!skip[i]) effective_.push_back(&predicates_[i]);
  }
  ctx->stats.pages_read += table_->NumPages();
  // Zone maps narrow rows evaluated, not pages: the block skip model saves
  // predicate work and row materialization, while the page accounting
  // stays that of a full sequential pass.
  ChargeZoneMapBlocks(zone_skips_, ctx);
  return Status::OK();
}

Result<bool> SeqScanOp::NextBatch(ExecContext* ctx, ColumnBatch* batch) {
  if (provably_empty_) return false;
  const std::uint8_t* live = table_->LiveBitmap();
  const std::size_t end = morsel_mode_ ? morsel_end_ : table_->NumSlots();
  // Slot -> "its zone-map block is skippable". Serial batches are
  // kZoneMapBlockRows-aligned so whole batches drop; morsel batches may
  // straddle a block boundary and drop rows from the selection vector
  // instead — either way exactly the rows of skipped blocks are skipped.
  const auto block_skipped = [this](std::size_t slot) {
    const std::size_t blk = slot / kZoneMapBlockRows;
    return blk < zone_skips_->size() && (*zone_skips_)[blk] != 0;
  };
  while (next_ < end) {
    // Batch granularity: one full interrupt check and one failpoint
    // evaluation per batch produced.
    SOFTDB_RETURN_IF_ERROR(ctx->CheckInterrupt());
    SOFTDB_INJECT_FAULT("exec.batch_scan",
                        Status::Internal("injected batch-scan fault"));
    const std::size_t base = next_;
    const std::size_t n = std::min(kBatchCapacity, end - base);
    next_ += n;
    if (zone_skips_ != nullptr && block_skipped(base) &&
        block_skipped(base + n - 1)) {
      continue;  // Every overlapped block is skippable: drop the batch.
    }
    batch->BindTableView(*table_, base, n);
    SelIdx* sel = batch->mutable_sel();
    std::size_t count = 0;
    if (zone_skips_ == nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        if (live[base + i]) sel[count++] = static_cast<SelIdx>(i);
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (live[base + i] && !block_skipped(base + i)) {
          sel[count++] = static_cast<SelIdx>(i);
        }
      }
    }
    ctx->stats.rows_scanned += count;
    SOFTDB_ASSIGN_OR_RETURN(
        std::size_t kept,
        FilterSelection(effective_, *batch, sel, count, ctx->use_kernels));
    batch->set_sel_size(kept);
    ctx->stats.rows_emitted += kept;
    if (kept > 0) return true;
  }
  return false;
}

// ----------------------------------------------------------- IndexRangeScan

IndexRangeScanOp::IndexRangeScanOp(
    const Table* table, const Index* index, Schema schema,
    std::optional<Value> lo, bool lo_inclusive, std::optional<Value> hi,
    bool hi_inclusive, std::vector<Predicate> residual)
    : Operator(std::move(schema)), table_(table), index_(index),
      lo_(std::move(lo)), hi_(std::move(hi)), lo_inclusive_(lo_inclusive),
      hi_inclusive_(hi_inclusive), residual_(std::move(residual)) {
  effective_ = PredicatePointers(residual_);
}

Status IndexRangeScanOp::Open(ExecContext* ctx) {
  next_ = 0;
  rows_ = index_->RangeScan(lo_, lo_inclusive_, hi_, hi_inclusive_);
  ++ctx->stats.index_lookups;
  // Leaf pages of the index range plus the distinct data pages fetched.
  ctx->stats.pages_read += (rows_.size() + kRowsPerPage - 1) / kRowsPerPage;
  std::set<std::uint64_t> data_pages;
  for (RowId r : rows_) data_pages.insert(r / kRowsPerPage);
  ctx->stats.pages_read += data_pages.size();
  return Status::OK();
}

Result<bool> IndexRangeScanOp::NextBatch(ExecContext* ctx,
                                              ColumnBatch* batch) {
  while (next_ < rows_.size()) {
    SOFTDB_RETURN_IF_ERROR(ctx->CheckInterrupt());
    SOFTDB_INJECT_FAULT("exec.batch_scan",
                        Status::Internal("injected batch-scan fault"));
    const std::size_t n = std::min(kBatchCapacity, rows_.size() - next_);
    batch->Reset(schema_);
    for (std::size_t c = 0; c < batch->NumColumns(); ++c) {
      batch->column(c).GatherFrom(
          table_->ColumnData(static_cast<ColumnIdx>(c)), rows_.data() + next_,
          n);
    }
    batch->SelectAll(n);
    next_ += n;
    ctx->stats.rows_scanned += n;
    SOFTDB_ASSIGN_OR_RETURN(
        std::size_t kept,
        FilterSelection(effective_, *batch, batch->mutable_sel(), n,
                        ctx->use_kernels));
    batch->set_sel_size(kept);
    ctx->stats.rows_emitted += kept;
    if (kept > 0) return true;
  }
  return false;
}

// ------------------------------------------------------------------- Filter

FilterOp::FilterOp(OperatorPtr child,
                             std::vector<Predicate> preds)
    : Operator(child->schema()), child_(std::move(child)),
      predicates_(std::move(preds)) {
  effective_ = PredicatePointers(predicates_);
}

Status FilterOp::Open(ExecContext* ctx) { return child_->Open(ctx); }

Result<bool> FilterOp::NextBatch(ExecContext* ctx, ColumnBatch* batch) {
  while (true) {
    SOFTDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, batch));
    if (!has) return false;
    SOFTDB_ASSIGN_OR_RETURN(
        std::size_t kept,
        FilterSelection(effective_, *batch, batch->mutable_sel(),
                        batch->sel_size(), ctx->use_kernels));
    batch->set_sel_size(kept);
    if (kept > 0) return true;
  }
}

// ------------------------------------------------------------------ Project

ProjectOp::ProjectOp(OperatorPtr child, Schema schema,
                               std::vector<ExprPtr> exprs)
    : Operator(std::move(schema)), child_(std::move(child)),
      exprs_(std::move(exprs)) {}

Status ProjectOp::Open(ExecContext* ctx) { return child_->Open(ctx); }

Result<bool> ProjectOp::NextBatch(ExecContext* ctx, ColumnBatch* batch) {
  while (true) {
    SOFTDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &input_));
    if (!has) return false;
    const std::size_t n = input_.sel_size();
    if (n == 0) continue;
    batch->Reset(schema_);
    BatchVec vec;
    for (std::size_t j = 0; j < exprs_.size(); ++j) {
      SOFTDB_RETURN_IF_ERROR(
          EvalExprBatch(*exprs_[j], input_, input_.sel(), n, &vec));
      BatchColumn& col = batch->column(j);
      // Output columns take the expressions' static result types (the
      // plan schema's), so NULLs carry the column's type.
      col.ResetOwned(vec.type);
      if (vec.type == TypeId::kDouble) {
        for (std::size_t i = 0; i < n; ++i) {
          col.AppendRawDouble(vec.f64[i], vec.null[i] != 0);
        }
      } else if (vec.type == TypeId::kString) {
        for (std::size_t i = 0; i < n; ++i) {
          col.AppendRawString(vec.str[i], vec.null[i] != 0);
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          col.AppendRawInt64(vec.i64[i], vec.null[i] != 0);
        }
      }
    }
    batch->SelectAll(n);
    return true;
  }
}

// ----------------------------------------------------------------- HashJoin

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                                 std::vector<JoinNode::EquiKey> keys,
                                 std::vector<Predicate> residual)
    : Operator(Schema::Concat(left->schema(), right->schema())),
      left_(std::move(left)), right_(std::move(right)), keys_(std::move(keys)),
      residual_(std::move(residual)) {}

Status HashJoinOp::Open(ExecContext* ctx) {
  SOFTDB_INJECT_FAULT("exec.hash_join_build",
                      Status::ResourceExhausted(
                          "injected hash-join build allocation failure"));
  build_.clear();
  probe_valid_ = false;
  probe_idx_ = 0;
  matches_ = nullptr;
  match_idx_ = 0;
  probe_dict_source_ = nullptr;
  code_buckets_.clear();
  code_cached_.clear();
  SOFTDB_RETURN_IF_ERROR(right_->Open(ctx));
  ColumnBatch rb;
  while (true) {
    SOFTDB_RETURN_IF_ERROR(ctx->CheckInterrupt());
    auto has = right_->NextBatch(ctx, &rb);
    if (!has.ok()) return has.status();
    if (!*has) break;
    for (std::size_t i = 0; i < rb.sel_size(); ++i) {
      const std::size_t pos = rb.sel()[i];
      std::vector<Value> key;
      key.reserve(keys_.size());
      bool null_key = false;
      for (const JoinNode::EquiKey& k : keys_) {
        if (rb.column(k.right).IsNull(pos)) {
          null_key = true;
          break;
        }
        key.push_back(rb.column(k.right).GetValue(pos));
      }
      if (null_key) continue;
      build_[std::move(key)].push_back(rb.MaterializeRow(pos));
    }
  }
  return left_->Open(ctx);
}

Result<bool> HashJoinOp::NextBatch(ExecContext* ctx, ColumnBatch* batch) {
  batch->Reset(schema_);
  std::size_t emitted = 0;
  while (emitted < kBatchCapacity) {
    if (matches_ != nullptr && match_idx_ < matches_->size()) {
      const std::vector<Value>& right_row = (*matches_)[match_idx_++];
      ++ctx->stats.rows_joined;
      std::vector<Value> combined = probe_row_;
      combined.insert(combined.end(), right_row.begin(), right_row.end());
      SOFTDB_ASSIGN_OR_RETURN(bool pass, EvalPredicates(residual_, combined));
      if (pass) {
        for (std::size_t c = 0; c < combined.size(); ++c) {
          batch->column(c).AppendValue(combined[c]);
        }
        ++emitted;
      }
      continue;
    }
    matches_ = nullptr;
    if (!probe_valid_ || probe_idx_ >= probe_batch_.sel_size()) {
      auto has = left_->NextBatch(ctx, &probe_batch_);
      if (!has.ok()) return has.status();
      if (!*has) break;
      probe_valid_ = true;
      probe_idx_ = 0;
      continue;
    }
    const std::size_t pos = probe_batch_.sel()[probe_idx_++];
    if (keys_.size() == 1) {
      // Dictionary fast path: compare int32 codes, not std::string.
      const BatchColumn& pc = probe_batch_.column(keys_[0].left);
      if (pc.type() == TypeId::kString) {
        const BatchColumn::RawSpans raw = pc.RawData();
        const ColumnVector* src = pc.view_source();
        if (raw.codes != nullptr && src != nullptr) {
          const std::int32_t code = raw.codes[pos];
          if (code == ColumnVector::kNullCode) continue;
          if (src != probe_dict_source_) {
            probe_dict_source_ = src;
            code_buckets_.clear();
            code_cached_.clear();
          }
          const auto c = static_cast<std::size_t>(code);
          if (c >= code_cached_.size()) {
            code_cached_.resize(c + 1, 0);
            code_buckets_.resize(c + 1, nullptr);
          }
          if (!code_cached_[c]) {
            std::vector<Value> key;
            key.push_back(pc.GetValue(pos));
            auto it = build_.find(key);
            code_buckets_[c] = it == build_.end() ? nullptr : &it->second;
            code_cached_[c] = 1;
          }
          if (code_buckets_[c] == nullptr) continue;
          matches_ = code_buckets_[c];
          match_idx_ = 0;
          probe_row_ = probe_batch_.MaterializeRow(pos);
          continue;
        }
      }
    }
    std::vector<Value> key;
    key.reserve(keys_.size());
    bool null_key = false;
    for (const JoinNode::EquiKey& k : keys_) {
      if (probe_batch_.column(k.left).IsNull(pos)) {
        null_key = true;
        break;
      }
      key.push_back(probe_batch_.column(k.left).GetValue(pos));
    }
    if (null_key) continue;
    auto it = build_.find(key);
    if (it == build_.end()) continue;
    matches_ = &it->second;
    match_idx_ = 0;
    probe_row_ = probe_batch_.MaterializeRow(pos);
  }
  batch->SelectAll(emitted);
  return emitted > 0;
}


namespace {

/// Appends rows[*next ...) to `batch` as schema-typed owned columns, at
/// most kBatchCapacity of them. False once every row has been emitted.
bool EmitRows(const Schema& schema, std::vector<std::vector<Value>>* rows,
              std::size_t* next, ColumnBatch* batch) {
  if (*next >= rows->size()) return false;
  batch->Reset(schema);
  const std::size_t n = std::min(kBatchCapacity, rows->size() - *next);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<Value>& row = (*rows)[*next + i];
    for (std::size_t c = 0; c < row.size(); ++c) {
      batch->column(c).AppendValue(row[c]);
    }
  }
  *next += n;
  batch->SelectAll(n);
  return true;
}

}  // namespace

// ----------------------------------------------------------- NestedLoopJoin

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   std::vector<Predicate> conditions)
    : Operator(Schema::Concat(left->schema(), right->schema())),
      left_(std::move(left)), right_(std::move(right)),
      conditions_(std::move(conditions)) {}

Status NestedLoopJoinOp::Open(ExecContext* ctx) {
  right_rows_.clear();
  left_batch_valid_ = false;
  left_idx_ = 0;
  left_valid_ = false;
  right_idx_ = 0;
  SOFTDB_RETURN_IF_ERROR(right_->Open(ctx));
  ColumnBatch rb;
  while (true) {
    SOFTDB_RETURN_IF_ERROR(ctx->CheckInterrupt());
    SOFTDB_ASSIGN_OR_RETURN(bool has, right_->NextBatch(ctx, &rb));
    if (!has) break;
    for (std::size_t i = 0; i < rb.sel_size(); ++i) {
      right_rows_.push_back(rb.MaterializeRow(rb.sel()[i]));
    }
  }
  return left_->Open(ctx);
}

Result<bool> NestedLoopJoinOp::NextBatch(ExecContext* ctx,
                                         ColumnBatch* batch) {
  batch->Reset(schema_);
  std::size_t emitted = 0;
  while (emitted < kBatchCapacity) {
    if (!left_valid_) {
      if (!left_batch_valid_ || left_idx_ >= left_batch_.sel_size()) {
        SOFTDB_ASSIGN_OR_RETURN(bool has, left_->NextBatch(ctx, &left_batch_));
        if (!has) break;
        left_batch_valid_ = true;
        left_idx_ = 0;
        continue;
      }
      left_row_ = left_batch_.MaterializeRow(left_batch_.sel()[left_idx_++]);
      left_valid_ = true;
      right_idx_ = 0;
    }
    if (right_idx_ >= right_rows_.size()) {
      left_valid_ = false;
      continue;
    }
    const std::vector<Value>& right_row = right_rows_[right_idx_++];
    ++ctx->stats.rows_joined;
    std::vector<Value> combined = left_row_;
    combined.insert(combined.end(), right_row.begin(), right_row.end());
    SOFTDB_ASSIGN_OR_RETURN(bool pass, EvalPredicates(conditions_, combined));
    if (!pass) continue;
    for (std::size_t c = 0; c < combined.size(); ++c) {
      batch->column(c).AppendValue(combined[c]);
    }
    ++emitted;
  }
  batch->SelectAll(emitted);
  return emitted > 0;
}

// -------------------------------------------------------------- HashAggregate

namespace {

struct AggState {
  std::int64_t count = 0;
  double sum = 0.0;
  std::optional<Value> min;
  std::optional<Value> max;
  bool any = false;
  TypeId sum_type = TypeId::kInt64;
};

}  // namespace

HashAggregateOp::HashAggregateOp(OperatorPtr child, Schema schema,
                                 std::vector<ExprPtr> group_by,
                                 std::vector<AggregateItem> aggregates,
                                 std::vector<bool> key_flags)
    : Operator(std::move(schema)), child_(std::move(child)),
      group_by_(std::move(group_by)), aggregates_(std::move(aggregates)),
      key_flags_(std::move(key_flags)) {
  if (key_flags_.size() != group_by_.size()) {
    key_flags_.assign(group_by_.size(), true);
  }
}

Status HashAggregateOp::Open(ExecContext* ctx) {
  results_.clear();
  next_ = 0;
  SOFTDB_RETURN_IF_ERROR(child_->Open(ctx));

  struct GroupData {
    std::vector<Value> output_values;  // All group exprs, first row seen.
    std::vector<AggState> states;
  };
  std::unordered_map<std::vector<Value>, GroupData, ValueVecHash, ValueVecEq>
      groups;
  std::vector<std::vector<Value>> group_order;  // Keys in first-seen order.

  ColumnBatch in;
  std::vector<BatchVec> group_vals(group_by_.size());
  std::vector<BatchVec> arg_vals(aggregates_.size());
  while (true) {
    SOFTDB_RETURN_IF_ERROR(ctx->CheckInterrupt());
    SOFTDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &in));
    if (!has) break;
    const std::size_t n = in.sel_size();
    for (std::size_t g = 0; g < group_by_.size(); ++g) {
      SOFTDB_RETURN_IF_ERROR(
          EvalExprBatch(*group_by_[g], in, in.sel(), n, &group_vals[g]));
    }
    for (std::size_t a = 0; a < aggregates_.size(); ++a) {
      if (aggregates_[a].fn == AggFn::kCountStar) continue;
      SOFTDB_RETURN_IF_ERROR(
          EvalExprBatch(*aggregates_[a].arg, in, in.sel(), n, &arg_vals[a]));
    }

    for (std::size_t r = 0; r < n; ++r) {
      std::vector<Value> all_values;
      all_values.reserve(group_by_.size());
      for (const BatchVec& g : group_vals) all_values.push_back(g.ValueAt(r));
      // Grouping key: only flagged exprs (FD-pruned columns are carried but
      // not compared).
      std::vector<Value> key;
      key.reserve(group_by_.size());
      for (std::size_t i = 0; i < group_by_.size(); ++i) {
        if (key_flags_[i]) key.push_back(all_values[i]);
      }
      auto it = groups.find(key);
      if (it == groups.end()) {
        GroupData data;
        data.output_values = std::move(all_values);
        data.states.resize(aggregates_.size());
        it = groups.emplace(key, std::move(data)).first;
        group_order.push_back(std::move(key));
      }
      std::vector<AggState>& states = it->second.states;
      for (std::size_t i = 0; i < aggregates_.size(); ++i) {
        const AggregateItem& agg = aggregates_[i];
        AggState& st = states[i];
        if (agg.fn == AggFn::kCountStar) {
          ++st.count;
          continue;
        }
        const BatchVec& arg = arg_vals[i];
        if (arg.null[r]) continue;
        ++st.count;
        st.any = true;
        st.sum_type = arg.type;
        if (arg.type != TypeId::kString) st.sum += arg.NumericAt(r);
        if (agg.fn != AggFn::kMin && agg.fn != AggFn::kMax) continue;
        Value v = arg.ValueAt(r);
        if (!st.min.has_value()) {
          st.min = v;
          st.max = std::move(v);
        } else {
          auto lt = v.Compare(*st.min);
          if (lt.ok() && *lt < 0) st.min = v;
          auto gt = v.Compare(*st.max);
          if (gt.ok() && *gt > 0) st.max = std::move(v);
        }
      }
    }
  }

  // Grouped query with no groups at all: global aggregates still emit one
  // row (SQL semantics for aggregate queries without GROUP BY).
  if (group_order.empty() && group_by_.empty()) {
    GroupData data;
    data.states.resize(aggregates_.size());
    groups.emplace(std::vector<Value>{}, std::move(data));
    group_order.push_back({});
  }

  for (const std::vector<Value>& key : group_order) {
    const GroupData& group = groups[key];
    const std::vector<AggState>& states = group.states;
    std::vector<Value> out = group.output_values;
    for (std::size_t i = 0; i < aggregates_.size(); ++i) {
      const AggregateItem& agg = aggregates_[i];
      const AggState& st = states[i];
      switch (agg.fn) {
        case AggFn::kCountStar:
        case AggFn::kCount:
          out.push_back(Value::Int64(st.count));
          break;
        case AggFn::kSum:
          if (!st.any) {
            out.push_back(Value::Null(TypeId::kDouble));
          } else if (st.sum_type == TypeId::kDouble) {
            out.push_back(Value::Double(st.sum));
          } else {
            out.push_back(Value::Int64(static_cast<std::int64_t>(st.sum)));
          }
          break;
        case AggFn::kAvg:
          out.push_back(st.any ? Value::Double(st.sum /
                                               static_cast<double>(st.count))
                               : Value::Null(TypeId::kDouble));
          break;
        case AggFn::kMin:
          out.push_back(st.min.value_or(Value::Null()));
          break;
        case AggFn::kMax:
          out.push_back(st.max.value_or(Value::Null()));
          break;
      }
    }
    results_.push_back(std::move(out));
  }
  return Status::OK();
}

Result<bool> HashAggregateOp::NextBatch(ExecContext*, ColumnBatch* batch) {
  return EmitRows(schema_, &results_, &next_, batch);
}

// --------------------------------------------------------------------- Sort

SortOp::SortOp(OperatorPtr child, std::vector<SortKey> keys, bool presorted)
    : Operator(child->schema()), child_(std::move(child)),
      keys_(std::move(keys)), presorted_(presorted) {}

Status SortOp::Open(ExecContext* ctx) {
  rows_.clear();
  next_ = 0;
  SOFTDB_RETURN_IF_ERROR(child_->Open(ctx));
  if (presorted_) return Status::OK();  // Batches stream through NextBatch.

  // Key values per row, evaluated a batch at a time, keep the comparator
  // cheap.
  std::vector<std::vector<Value>> key_values;
  ColumnBatch in;
  BatchVec vec;
  while (true) {
    SOFTDB_RETURN_IF_ERROR(ctx->CheckInterrupt());
    SOFTDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, &in));
    if (!has) break;
    const std::size_t n = in.sel_size();
    const std::size_t first = rows_.size();
    for (std::size_t i = 0; i < n; ++i) {
      rows_.push_back(in.MaterializeRow(in.sel()[i]));
    }
    key_values.resize(rows_.size());
    for (const SortKey& k : keys_) {
      SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*k.expr, in, in.sel(), n, &vec));
      for (std::size_t i = 0; i < n; ++i) {
        key_values[first + i].push_back(vec.ValueAt(i));
      }
    }
  }

  ctx->stats.rows_sorted += rows_.size();
  std::vector<std::size_t> order(rows_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (std::size_t k = 0; k < keys_.size(); ++k) {
                       auto cmp = key_values[a][k].Compare(key_values[b][k]);
                       const int c = cmp.ok() ? *cmp : 0;
                       if (c != 0) return keys_[k].ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  std::vector<std::vector<Value>> sorted;
  sorted.reserve(rows_.size());
  for (std::size_t i : order) sorted.push_back(std::move(rows_[i]));
  rows_ = std::move(sorted);
  return Status::OK();
}

Result<bool> SortOp::NextBatch(ExecContext* ctx, ColumnBatch* batch) {
  if (presorted_) return child_->NextBatch(ctx, batch);
  return EmitRows(schema_, &rows_, &next_, batch);
}

// ----------------------------------------------------------------- UnionAll

UnionAllOp::UnionAllOp(Schema schema, std::vector<OperatorPtr> children)
    : Operator(std::move(schema)), children_(std::move(children)) {}

Status UnionAllOp::Open(ExecContext* ctx) {
  current_ = 0;
  for (OperatorPtr& c : children_) SOFTDB_RETURN_IF_ERROR(c->Open(ctx));
  return Status::OK();
}

Result<bool> UnionAllOp::NextBatch(ExecContext* ctx, ColumnBatch* batch) {
  while (current_ < children_.size()) {
    SOFTDB_ASSIGN_OR_RETURN(bool has,
                            children_[current_]->NextBatch(ctx, batch));
    if (has) return true;
    ++current_;
  }
  return false;
}

// -------------------------------------------------------------------- Limit

LimitOp::LimitOp(OperatorPtr child, std::size_t limit)
    : Operator(child->schema()), child_(std::move(child)), limit_(limit) {}

Status LimitOp::Open(ExecContext* ctx) {
  produced_ = 0;
  return child_->Open(ctx);
}

Result<bool> LimitOp::NextBatch(ExecContext* ctx, ColumnBatch* batch) {
  if (produced_ >= limit_) return false;
  SOFTDB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(ctx, batch));
  if (!has) return false;
  batch->set_sel_size(std::min(batch->sel_size(), limit_ - produced_));
  produced_ += batch->sel_size();
  return true;
}

}  // namespace softdb
