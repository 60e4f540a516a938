#ifndef SOFTDB_EXEC_EXPR_EVAL_H_
#define SOFTDB_EXEC_EXPR_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/column_batch.h"
#include "plan/expr.h"
#include "plan/predicate.h"

namespace softdb {

/// A dense, typed vector of expression results for the selected rows of a
/// batch: entry i is the value for batch position sel[i]. Every bound Expr
/// has a static result type, so one payload buffer per vec suffices:
/// int-like types (BIGINT/DATE/BOOL) use `i64`, DOUBLE uses `f64`, VARCHAR
/// uses `str` (non-owning pointers into batch storage or literal exprs —
/// valid only while the source batch and expr tree are alive). `null[i]`
/// set means SQL NULL; the payload entry is then meaningless but present.
struct BatchVec {
  TypeId type = TypeId::kInt64;
  std::vector<std::int64_t> i64;
  std::vector<double> f64;
  std::vector<const std::string*> str;
  std::vector<std::uint8_t> null;

  void Resize(TypeId t, std::size_t n);
  double NumericAt(std::size_t i) const {
    return type == TypeId::kDouble ? f64[i]
                                   : static_cast<double>(i64[i]);
  }
  /// Boxes entry i as the Value Expr::Eval returns for that row.
  Value ValueAt(std::size_t i) const;
};

/// Evaluates `expr` column-at-a-time for the `n` batch positions listed in
/// `sel`, producing a dense BatchVec (result i belongs to batch position
/// sel[i]). Semantics — including Kleene AND/OR, NULL propagation, the
/// per-row short-circuit order that decides *whether* a type-mismatch
/// error is reachable, and error messages — are exactly those of
/// Expr::Eval, which the test-only reference evaluator runs per row.
Status EvalExprBatch(const Expr& expr, const ColumnBatch& batch,
                     const SelIdx* sel, std::size_t n, BatchVec* out);

/// Applies `predicates` (skipping estimation-only twins) to the batch's
/// positions listed in sel[0..n), compacting `sel` in place to the
/// positions where every predicate is TRUE. Returns the surviving count.
/// Equivalent to EvalPredicates per row, batched predicate-at-a-time.
///
/// When `use_kernels` is set (ExecContext::use_kernels), predicates of
/// kernel shape — `col op literal`, BETWEEN over literals, string
/// equality/IN against a dictionary-coded view column, IS [NOT] NULL —
/// run through the branch-free mask kernels in exec/kernels.h (bitmask
/// over the full batch, then selection compaction). Everything else, and
/// every shape whose evaluation could raise a type error, falls back to
/// EvalExprBatch; results are bit-identical either way.
Result<std::size_t> FilterSelection(
    const std::vector<const Predicate*>& predicates, const ColumnBatch& batch,
    SelIdx* sel, std::size_t n, bool use_kernels = true);

}  // namespace softdb

#endif  // SOFTDB_EXEC_EXPR_EVAL_H_
