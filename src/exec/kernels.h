#ifndef SOFTDB_EXEC_KERNELS_H_
#define SOFTDB_EXEC_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "exec/column_batch.h"
#include "plan/expr.h"

namespace softdb {
namespace kernels {

/// Branch-free batch kernels for the hot scan→filter path. Each mask
/// kernel fills `mask[0..n)` with 1 where the row passes and 0 otherwise,
/// always computing over the FULL contiguous range (dead and NULL rows
/// included — their payloads are defined-but-unspecified, see
/// BatchColumn::RawData's contract) so the loop body has no data-dependent
/// branches and autovectorizes. NULL rows never pass: a filter keeps a row
/// only when the predicate is TRUE, and NULL is not TRUE.
///
/// The scalar loops below are written to autovectorize under -O2; when the
/// build enables SOFTDB_SIMD on x86-64, explicit SSE2/AVX2 intrinsic
/// variants are compiled with per-function target attributes and selected
/// at runtime via cpuid, so the binary stays safe on older hosts. Every
/// variant is bit-identical to the scalar evaluator's semantics (int-like
/// pairs compare in int64, mixed numeric in double via the same
/// NumericValue widening, NaN behaves as scalar <,==,!= do).

/// mask[i] = !null[i] && (data[i] op constant), int64 compare.
void CompareMaskI64(const std::int64_t* data, const std::uint8_t* nulls,
                    std::size_t n, CompareOp op, std::int64_t constant,
                    std::uint8_t* mask);

/// mask[i] = !null[i] && ((double)data[i] op constant) — an int-like
/// column against a DOUBLE constant, using Expr::Eval's widening.
void CompareMaskI64AsF64(const std::int64_t* data, const std::uint8_t* nulls,
                         std::size_t n, CompareOp op, double constant,
                         std::uint8_t* mask);

/// mask[i] = !null[i] && (data[i] op constant), double compare.
void CompareMaskF64(const double* data, const std::uint8_t* nulls,
                    std::size_t n, CompareOp op, double constant,
                    std::uint8_t* mask);

/// Dictionary-code equality for VARCHAR: mask[i] = code[i] == target (kEq)
/// or !null && code[i] != target (kNe). NULL rows carry
/// ColumnVector::kNullCode and never pass either op. Pass a negative
/// `target` other than kNullCode (e.g. kAbsentCode) when the constant is
/// not in the dictionary: no row can equal it, every non-NULL row differs.
inline constexpr std::int32_t kAbsentCode = -2;
void CodeEqMask(const std::int32_t* codes, std::size_t n, bool negated,
                std::int32_t target, std::uint8_t* mask);

/// Dictionary-code IN list: mask[i] = codes[i] ∈ targets[0..k). Targets
/// must be ≥ 0 (absent constants are simply omitted — they can match no
/// row). NULL rows (kNullCode) never match.
void CodeInMask(const std::int32_t* codes, std::size_t n,
                const std::int32_t* targets, std::size_t k,
                std::uint8_t* mask);

/// IS [NOT] NULL: mask[i] = null[i] != 0 (or its negation).
void IsNullMask(const std::uint8_t* nulls, std::size_t n, bool negated,
                std::uint8_t* mask);

/// In-place AND of two masks (conjunct accumulation).
void AndMask(const std::uint8_t* other, std::size_t n, std::uint8_t* mask);

/// out[i] = a[i] | b[i] — the NULL-propagation merge of binary operators.
void NullOrMask(const std::uint8_t* a, const std::uint8_t* b, std::size_t n,
                std::uint8_t* out);

/// Branch-free selection compaction: keeps sel[i] iff mask[sel[i]], packs
/// survivors to the front preserving order, returns the new length. This
/// is the bitmask→selection-vector step every kernel filter ends with.
std::size_t FilterSelByMask(const std::uint8_t* mask, SelIdx* sel,
                            std::size_t n);

/// Arithmetic over dense vectors with NULL masking done by the caller
/// (NullOrMask); kAdd/kSub/kMul only — kDiv keeps its scalar loop for the
/// divide-by-zero→NULL rule. The int64 variant replicates the row
/// engine's exact NumericValue() double round-trip on each operand.
void ArithF64(ArithOp op, const double* a, const double* b, std::size_t n,
              double* out);
void ArithI64ViaDouble(ArithOp op, const std::int64_t* a,
                       const std::int64_t* b, std::size_t n,
                       std::int64_t* out);

/// Host capability the bench records next to host_threads: "avx2", "sse2"
/// or "scalar" (reflects both the SOFTDB_SIMD build toggle and runtime
/// cpuid, i.e. what the kernels above will actually execute).
std::string SimdCapability();

}  // namespace kernels
}  // namespace softdb

#endif  // SOFTDB_EXEC_KERNELS_H_
