#include "exec/expr_eval.h"

#include <array>
#include <numeric>

#include "exec/kernels.h"
#include "storage/column_vector.h"

namespace softdb {

namespace {

bool IsIntLike(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDate || t == TypeId::kBool;
}

bool SameFamily(TypeId a, TypeId b) {
  if (a == b) return true;
  return IsNumericType(a) && IsNumericType(b);
}

Status CompareMismatch(TypeId a, TypeId b) {
  return Status::TypeMismatch(std::string("cannot compare ") + TypeName(a) +
                              " with " + TypeName(b));
}

/// Three-way compare of two vec entries (caller has checked both non-null
/// and family-compatible). Mirrors Value::Compare's type dispatch: string
/// vs string lexicographic, int-like pairs in int64, anything else via the
/// double view.
int CompareAt(const BatchVec& l, std::size_t i, const BatchVec& r,
              std::size_t j) {
  if (l.type == TypeId::kString) {
    const std::string& a = *l.str[i];
    const std::string& b = *r.str[j];
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (IsIntLike(l.type) && IsIntLike(r.type)) {
    const std::int64_t a = l.i64[i];
    const std::int64_t b = r.i64[j];
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  const double a = l.NumericAt(i);
  const double b = r.NumericAt(j);
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

bool ApplyCompareOp(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

Status EvalColumnRef(const ColumnRefExpr& e, const ColumnBatch& batch,
                     const SelIdx* sel, std::size_t n, BatchVec* out) {
  if (!e.bound()) {
    return Status::Internal("unbound column ref: " + e.name());
  }
  if (e.index() >= batch.NumColumns()) {
    return Status::Internal("row too narrow");
  }
  const BatchColumn& col = batch.column(e.index());
  out->Resize(col.type(), n);
  if (col.type() == TypeId::kDouble) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos = sel[i];
      out->null[i] = col.IsNull(pos) ? 1 : 0;
      out->f64[i] = col.Double(pos);
    }
  } else if (col.type() == TypeId::kString) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos = sel[i];
      out->null[i] = col.IsNull(pos) ? 1 : 0;
      out->str[i] = &col.String(pos);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos = sel[i];
      out->null[i] = col.IsNull(pos) ? 1 : 0;
      out->i64[i] = col.Int64(pos);
    }
  }
  return Status::OK();
}

Status EvalLiteral(const LiteralExpr& e, std::size_t n, BatchVec* out) {
  const Value& v = e.value();
  out->Resize(v.type(), n);
  if (v.is_null()) {
    out->null.assign(n, 1);
    return Status::OK();
  }
  if (v.type() == TypeId::kDouble) {
    std::fill(out->f64.begin(), out->f64.end(), v.AsDouble());
  } else if (v.type() == TypeId::kString) {
    std::fill(out->str.begin(), out->str.end(), &v.AsString());
  } else {
    std::fill(out->i64.begin(), out->i64.end(), v.AsInt64());
  }
  return Status::OK();
}

Status EvalComparison(const ComparisonExpr& e, const ColumnBatch& batch,
                      const SelIdx* sel, std::size_t n, BatchVec* out) {
  BatchVec l, r;
  SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*e.left(), batch, sel, n, &l));
  SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*e.right(), batch, sel, n, &r));
  out->Resize(TypeId::kBool, n);
  if (!SameFamily(l.type, r.type)) {
    // Expr::Eval only reaches Value::Compare — and its error — for rows
    // where both sides are non-null; rows with a NULL side yield NULL first.
    for (std::size_t i = 0; i < n; ++i) {
      if (l.null[i] || r.null[i]) {
        out->null[i] = 1;
        continue;
      }
      return CompareMismatch(l.type, r.type);
    }
    return Status::OK();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (l.null[i] || r.null[i]) {
      out->null[i] = 1;
      continue;
    }
    out->i64[i] = ApplyCompareOp(e.op(), CompareAt(l, i, r, i)) ? 1 : 0;
  }
  return Status::OK();
}

Status EvalLogical(const LogicalExpr& e, const ColumnBatch& batch,
                   const SelIdx* sel, std::size_t n, BatchVec* out) {
  const bool is_and = e.kind() == ExprKind::kAnd;
  out->Resize(TypeId::kBool, n);
  // Kleene AND/OR with Expr::Eval's per-row short-circuit: child k is
  // evaluated only for rows no earlier child already decided (false for
  // AND, true for OR) — this keeps error reachability identical, not just
  // values. `live` holds result indexes still undecided.
  std::vector<std::uint32_t> live(n);
  std::iota(live.begin(), live.end(), 0u);
  std::vector<std::uint8_t> saw_null(n, 0);
  std::vector<SelIdx> sub(n);
  std::vector<std::uint32_t> next_live;
  BatchVec cv;
  for (const ExprPtr& child : e.children()) {
    if (live.empty()) break;
    for (std::size_t j = 0; j < live.size(); ++j) sub[j] = sel[live[j]];
    SOFTDB_RETURN_IF_ERROR(
        EvalExprBatch(*child, batch, sub.data(), live.size(), &cv));
    next_live.clear();
    for (std::size_t j = 0; j < live.size(); ++j) {
      const std::uint32_t idx = live[j];
      if (cv.null[j]) {
        saw_null[idx] = 1;
        next_live.push_back(idx);
        continue;
      }
      const bool b = cv.i64[j] != 0;
      if (b == is_and) {
        next_live.push_back(idx);  // Non-deciding; keep evaluating.
      } else {
        out->i64[idx] = b ? 1 : 0;  // Decided (false for AND, true for OR).
        out->null[idx] = 0;
      }
    }
    live.swap(next_live);
  }
  for (std::uint32_t idx : live) {
    if (saw_null[idx]) {
      out->null[idx] = 1;
    } else {
      out->i64[idx] = is_and ? 1 : 0;
      out->null[idx] = 0;
    }
  }
  return Status::OK();
}

Status EvalNot(const NotExpr& e, const ColumnBatch& batch, const SelIdx* sel,
               std::size_t n, BatchVec* out) {
  BatchVec child;
  SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*e.child(), batch, sel, n, &child));
  out->Resize(TypeId::kBool, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (child.null[i]) {
      out->null[i] = 1;
    } else {
      out->i64[i] = child.i64[i] != 0 ? 0 : 1;
    }
  }
  return Status::OK();
}

Status EvalArithmetic(const ArithmeticExpr& e, const ColumnBatch& batch,
                      const SelIdx* sel, std::size_t n, BatchVec* out) {
  BatchVec l, r;
  SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*e.left(), batch, sel, n, &l));
  SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*e.right(), batch, sel, n, &r));
  const TypeId rt = e.result_type();
  out->Resize(rt, n);
  // Kernel fast paths for the homogeneous-type cases: hoist the op switch
  // out of the loop, merge NULLs branch-free, and let the payload loop
  // autovectorize. kDiv keeps the scalar loop (divide-by-zero → NULL is a
  // per-row decision), as do mixed-type operand combinations.
  if (e.op() != ArithOp::kDiv && n > 0) {
    if (rt == TypeId::kDouble && l.type == TypeId::kDouble &&
        r.type == TypeId::kDouble) {
      kernels::NullOrMask(l.null.data(), r.null.data(), n,
                          out->null.data());
      kernels::ArithF64(e.op(), l.f64.data(), r.f64.data(), n,
                        out->f64.data());
      return Status::OK();
    }
    if (rt != TypeId::kDouble && rt != TypeId::kString &&
        IsIntLike(l.type) && IsIntLike(r.type)) {
      kernels::NullOrMask(l.null.data(), r.null.data(), n,
                          out->null.data());
      kernels::ArithI64ViaDouble(e.op(), l.i64.data(), r.i64.data(), n,
                                 out->i64.data());
      return Status::OK();
    }
  }
  if (rt == TypeId::kDouble) {
    for (std::size_t i = 0; i < n; ++i) {
      if (l.null[i] || r.null[i]) {
        out->null[i] = 1;
        continue;
      }
      const double a = l.NumericAt(i);
      const double b = r.NumericAt(i);
      switch (e.op()) {
        case ArithOp::kAdd:
          out->f64[i] = a + b;
          break;
        case ArithOp::kSub:
          out->f64[i] = a - b;
          break;
        case ArithOp::kMul:
          out->f64[i] = a * b;
          break;
        case ArithOp::kDiv:
          if (b == 0.0) {
            out->null[i] = 1;
          } else {
            out->f64[i] = a / b;
          }
          break;
      }
    }
    return Status::OK();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (l.null[i] || r.null[i]) {
      out->null[i] = 1;
      continue;
    }
    // Expr::Eval routes int arithmetic through NumericValue() (a double
    // round-trip); replicate the exact cast chain for bit-identical output.
    const std::int64_t a = static_cast<std::int64_t>(l.NumericAt(i));
    const std::int64_t b = static_cast<std::int64_t>(r.NumericAt(i));
    switch (e.op()) {
      case ArithOp::kAdd:
        out->i64[i] = a + b;
        break;
      case ArithOp::kSub:
        out->i64[i] = a - b;
        break;
      case ArithOp::kMul:
        out->i64[i] = a * b;
        break;
      case ArithOp::kDiv:
        if (b == 0) {
          out->null[i] = 1;
        } else {
          out->i64[i] = a / b;
        }
        break;
    }
  }
  return Status::OK();
}

Status EvalBetween(const BetweenExpr& e, const ColumnBatch& batch,
                   const SelIdx* sel, std::size_t n, BatchVec* out) {
  BatchVec v, lo, hi;
  SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*e.input(), batch, sel, n, &v));
  SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*e.lo(), batch, sel, n, &lo));
  SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*e.hi(), batch, sel, n, &hi));
  out->Resize(TypeId::kBool, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (v.null[i] || lo.null[i] || hi.null[i]) {
      out->null[i] = 1;
      continue;
    }
    if (!SameFamily(v.type, lo.type)) return CompareMismatch(v.type, lo.type);
    const int cl = CompareAt(v, i, lo, i);
    if (!SameFamily(v.type, hi.type)) return CompareMismatch(v.type, hi.type);
    const int ch = CompareAt(v, i, hi, i);
    out->i64[i] = (cl >= 0 && ch <= 0) ? 1 : 0;
  }
  return Status::OK();
}

Status EvalInList(const InListExpr& e, const ColumnBatch& batch,
                  const SelIdx* sel, std::size_t n, BatchVec* out) {
  BatchVec v;
  SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*e.input(), batch, sel, n, &v));
  std::vector<BatchVec> items(e.list().size());
  for (std::size_t k = 0; k < e.list().size(); ++k) {
    SOFTDB_RETURN_IF_ERROR(
        EvalExprBatch(*e.list()[k], batch, sel, n, &items[k]));
  }
  out->Resize(TypeId::kBool, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (v.null[i]) {
      out->null[i] = 1;
      continue;
    }
    bool saw_null = false;
    bool matched = false;
    for (const BatchVec& item : items) {
      if (item.null[i]) {
        saw_null = true;
        continue;
      }
      if (!SameFamily(v.type, item.type)) {
        return CompareMismatch(v.type, item.type);
      }
      if (CompareAt(v, i, item, i) == 0) {
        matched = true;
        break;
      }
    }
    if (matched) {
      out->i64[i] = 1;
    } else if (saw_null) {
      out->null[i] = 1;
    } else {
      out->i64[i] = 0;
    }
  }
  return Status::OK();
}

/// Fills `mask[0..batch.size())` for `sp` when it has kernel shape; false
/// means "not eligible, use the scalar path" (which also owns every case
/// that can raise a type error — kernels only run where no row can error).
bool KernelCompareMask(const SimplePredicate& sp, const ColumnBatch& batch,
                       std::uint8_t* mask) {
  if (sp.column >= batch.NumColumns()) return false;
  const BatchColumn& col = batch.column(sp.column);
  const Value& c = sp.constant;
  if (c.is_null()) return false;  // NULL constant: result NULL everywhere.
  const BatchColumn::RawSpans raw = col.RawData();
  const std::size_t size = batch.size();
  if (col.type() == TypeId::kString) {
    // Dictionary-code equality; ordering predicates need the strings.
    if (c.type() != TypeId::kString) return false;
    if (sp.op != CompareOp::kEq && sp.op != CompareOp::kNe) return false;
    if (raw.codes == nullptr || col.view_source() == nullptr) return false;
    const auto code = col.view_source()->FindCode(c.AsString());
    kernels::CodeEqMask(raw.codes, size, sp.op == CompareOp::kNe,
                        code.value_or(kernels::kAbsentCode), mask);
    return true;
  }
  if (c.type() == TypeId::kString) return false;  // Family mismatch: error.
  if (raw.i64 != nullptr) {
    if (IsIntLike(c.type())) {
      kernels::CompareMaskI64(raw.i64, raw.nulls, size, sp.op, c.AsInt64(),
                              mask);
    } else {
      kernels::CompareMaskI64AsF64(raw.i64, raw.nulls, size, sp.op,
                                   c.AsDouble(), mask);
    }
    return true;
  }
  if (raw.f64 != nullptr) {
    kernels::CompareMaskF64(raw.f64, raw.nulls, size, sp.op,
                            c.NumericValue(), mask);
    return true;
  }
  return false;
}

/// Kernel dispatch for one filter conjunct: true iff `expr` was fully
/// evaluated into `mask` (over the whole batch). `tmp` is scratch for
/// multi-part shapes (BETWEEN = two compares ANDed).
bool TryKernelFilter(const Expr& expr, const ColumnBatch& batch,
                     std::uint8_t* mask, std::uint8_t* tmp) {
  switch (expr.kind()) {
    case ExprKind::kComparison: {
      SimplePredicate sp;
      if (!MatchSimplePredicate(expr, &sp)) return false;
      return KernelCompareMask(sp, batch, mask);
    }
    case ExprKind::kBetween: {
      std::vector<SimplePredicate> sps;
      if (!ExpandSimplePredicates(expr, &sps) || sps.empty()) return false;
      if (!KernelCompareMask(sps[0], batch, mask)) return false;
      for (std::size_t k = 1; k < sps.size(); ++k) {
        if (!KernelCompareMask(sps[k], batch, tmp)) return false;
        kernels::AndMask(tmp, batch.size(), mask);
      }
      return true;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      if (in.input()->kind() != ExprKind::kColumnRef) return false;
      const auto& cr = static_cast<const ColumnRefExpr&>(*in.input());
      if (!cr.bound() || cr.index() >= batch.NumColumns()) return false;
      const BatchColumn& col = batch.column(cr.index());
      if (col.type() != TypeId::kString) return false;
      const BatchColumn::RawSpans raw = col.RawData();
      if (raw.codes == nullptr || col.view_source() == nullptr) return false;
      std::vector<std::int32_t> targets;
      targets.reserve(in.list().size());
      for (const ExprPtr& item : in.list()) {
        if (item->kind() != ExprKind::kLiteral) return false;
        const Value& v = static_cast<const LiteralExpr&>(*item).value();
        // A NULL item flips non-matches to NULL (scalar semantics) and a
        // non-string item is a per-row type error; both fall back.
        if (v.is_null() || v.type() != TypeId::kString) return false;
        const auto code = col.view_source()->FindCode(v.AsString());
        if (code.has_value()) targets.push_back(*code);
      }
      kernels::CodeInMask(raw.codes, batch.size(), targets.data(),
                          targets.size(), mask);
      return true;
    }
    case ExprKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpr&>(expr);
      if (e.input()->kind() != ExprKind::kColumnRef) return false;
      const auto& cr = static_cast<const ColumnRefExpr&>(*e.input());
      if (!cr.bound() || cr.index() >= batch.NumColumns()) return false;
      kernels::IsNullMask(batch.column(cr.index()).RawData().nulls,
                          batch.size(), e.negated(), mask);
      return true;
    }
    default:
      return false;
  }
}

Status EvalIsNull(const IsNullExpr& e, const ColumnBatch& batch,
                  const SelIdx* sel, std::size_t n, BatchVec* out) {
  BatchVec child;
  SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*e.input(), batch, sel, n, &child));
  out->Resize(TypeId::kBool, n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_null = child.null[i] != 0;
    out->i64[i] = (e.negated() ? !is_null : is_null) ? 1 : 0;
  }
  return Status::OK();
}

}  // namespace

void BatchVec::Resize(TypeId t, std::size_t n) {
  type = t;
  null.assign(n, 0);
  i64.clear();
  f64.clear();
  str.clear();
  if (t == TypeId::kDouble) {
    f64.resize(n);
  } else if (t == TypeId::kString) {
    str.resize(n);
  } else {
    i64.resize(n);
  }
}

Value BatchVec::ValueAt(std::size_t i) const {
  if (null[i]) return Value::Null(type);
  switch (type) {
    case TypeId::kDouble:
      return Value::Double(f64[i]);
    case TypeId::kString:
      return Value::String(*str[i]);
    case TypeId::kDate:
      return Value::Date(i64[i]);
    case TypeId::kBool:
      return Value::Bool(i64[i] != 0);
    case TypeId::kInt64:
      break;
  }
  return Value::Int64(i64[i]);
}

Status EvalExprBatch(const Expr& expr, const ColumnBatch& batch,
                     const SelIdx* sel, std::size_t n, BatchVec* out) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return EvalLiteral(static_cast<const LiteralExpr&>(expr), n, out);
    case ExprKind::kColumnRef:
      return EvalColumnRef(static_cast<const ColumnRefExpr&>(expr), batch,
                           sel, n, out);
    case ExprKind::kComparison:
      return EvalComparison(static_cast<const ComparisonExpr&>(expr), batch,
                            sel, n, out);
    case ExprKind::kAnd:
    case ExprKind::kOr:
      return EvalLogical(static_cast<const LogicalExpr&>(expr), batch, sel, n,
                         out);
    case ExprKind::kNot:
      return EvalNot(static_cast<const NotExpr&>(expr), batch, sel, n, out);
    case ExprKind::kArithmetic:
      return EvalArithmetic(static_cast<const ArithmeticExpr&>(expr), batch,
                            sel, n, out);
    case ExprKind::kBetween:
      return EvalBetween(static_cast<const BetweenExpr&>(expr), batch, sel, n,
                         out);
    case ExprKind::kInList:
      return EvalInList(static_cast<const InListExpr&>(expr), batch, sel, n,
                        out);
    case ExprKind::kIsNull:
      return EvalIsNull(static_cast<const IsNullExpr&>(expr), batch, sel, n,
                        out);
  }
  return Status::Internal("unknown expression kind in batch evaluator");
}

Result<std::size_t> FilterSelection(
    const std::vector<const Predicate*>& predicates, const ColumnBatch& batch,
    SelIdx* sel, std::size_t n, bool use_kernels) {
  BatchVec v;
  std::array<std::uint8_t, kBatchCapacity> mask;
  std::array<std::uint8_t, kBatchCapacity> tmp;
  for (const Predicate* p : predicates) {
    if (p->estimation_only) continue;
    if (n == 0) break;
    if (use_kernels && batch.size() <= kBatchCapacity &&
        TryKernelFilter(*p->expr, batch, mask.data(), tmp.data())) {
      n = kernels::FilterSelByMask(mask.data(), sel, n);
      continue;
    }
    SOFTDB_RETURN_IF_ERROR(EvalExprBatch(*p->expr, batch, sel, n, &v));
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!v.null[i] && v.i64[i] != 0) sel[kept++] = sel[i];
    }
    n = kept;
  }
  return n;
}

}  // namespace softdb
