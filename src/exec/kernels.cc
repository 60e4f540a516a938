#include "exec/kernels.h"

#include "storage/column_vector.h"

#if defined(SOFTDB_SIMD) && defined(__x86_64__)
#define SOFTDB_SIMD_X86 1
#include <immintrin.h>
#endif

namespace softdb {
namespace kernels {

namespace {

/// Generic branch-free compare loop; the compiler specializes one copy per
/// (type, comparator) pair and autovectorizes it. `mask` bytes are 0/1.
template <typename T, typename Load, typename Cmp>
void CmpLoop(const T* data, const std::uint8_t* nulls, std::size_t n,
             std::uint8_t* mask, Load load, Cmp cmp) {
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] =
        static_cast<std::uint8_t>(cmp(load(data[i])) & (nulls[i] == 0));
  }
}

template <typename T, typename Load>
void CmpDispatch(const T* data, const std::uint8_t* nulls, std::size_t n,
                 CompareOp op, decltype(Load{}(T{})) c, std::uint8_t* mask,
                 Load load) {
  using V = decltype(Load{}(T{}));
  switch (op) {
    case CompareOp::kEq:
      CmpLoop(data, nulls, n, mask, load, [c](V v) { return v == c; });
      break;
    case CompareOp::kNe:
      CmpLoop(data, nulls, n, mask, load, [c](V v) { return v != c; });
      break;
    case CompareOp::kLt:
      CmpLoop(data, nulls, n, mask, load, [c](V v) { return v < c; });
      break;
    case CompareOp::kLe:
      CmpLoop(data, nulls, n, mask, load, [c](V v) { return v <= c; });
      break;
    case CompareOp::kGt:
      CmpLoop(data, nulls, n, mask, load, [c](V v) { return v > c; });
      break;
    case CompareOp::kGe:
      CmpLoop(data, nulls, n, mask, load, [c](V v) { return v >= c; });
      break;
  }
}

struct LoadI64 {
  std::int64_t operator()(std::int64_t v) const { return v; }
};
struct LoadI64AsF64 {
  double operator()(std::int64_t v) const { return static_cast<double>(v); }
};
struct LoadF64 {
  double operator()(double v) const { return v; }
};

#if defined(SOFTDB_SIMD_X86)

bool HasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

/// AVX2 int64 compare: 4 lanes per iteration, compare result collapsed to
/// per-byte 0/1 via movemask, NULLs masked scalar (cheap, byte loads).
/// Equality/ordering on two's-complement int64 matches the scalar loops
/// exactly; kNe/kLe/kGe are complements of the supported primitives *on
/// non-NULL rows*, and the null mask is applied after the complement.
__attribute__((target("avx2"))) void CompareMaskI64Avx2(
    const std::int64_t* data, const std::uint8_t* nulls, std::size_t n,
    CompareOp op, std::int64_t constant, std::uint8_t* mask) {
  const __m256i c = _mm256_set1_epi64x(constant);
  const bool invert =
      op == CompareOp::kNe || op == CompareOp::kLe || op == CompareOp::kGe;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    __m256i r;
    switch (op) {
      case CompareOp::kEq:
      case CompareOp::kNe:
        r = _mm256_cmpeq_epi64(v, c);
        break;
      case CompareOp::kGt:
      case CompareOp::kLe:
        r = _mm256_cmpgt_epi64(v, c);
        break;
      case CompareOp::kLt:
      case CompareOp::kGe:
        r = _mm256_cmpgt_epi64(c, v);
        break;
      default:
        r = _mm256_setzero_si256();
        break;
    }
    unsigned bits =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(r)));
    if (invert) bits = ~bits;
    for (std::size_t j = 0; j < 4; ++j) {
      mask[i + j] = static_cast<std::uint8_t>(((bits >> j) & 1u) &
                                              (nulls[i + j] == 0));
    }
  }
  for (; i < n; ++i) {
    bool hit = false;
    switch (op) {
      case CompareOp::kEq:
        hit = data[i] == constant;
        break;
      case CompareOp::kNe:
        hit = data[i] != constant;
        break;
      case CompareOp::kLt:
        hit = data[i] < constant;
        break;
      case CompareOp::kLe:
        hit = data[i] <= constant;
        break;
      case CompareOp::kGt:
        hit = data[i] > constant;
        break;
      case CompareOp::kGe:
        hit = data[i] >= constant;
        break;
    }
    mask[i] = static_cast<std::uint8_t>(hit & (nulls[i] == 0));
  }
}

/// AVX2 double compare. The ordered/unordered predicate choice mirrors the
/// scalar operators bit-for-bit: <, <=, >, >=, == are false on NaN
/// (ordered, non-signalling), != is true on NaN (unordered).
__attribute__((target("avx2"))) void CompareMaskF64Avx2(
    const double* data, const std::uint8_t* nulls, std::size_t n,
    CompareOp op, double constant, std::uint8_t* mask) {
  const __m256d c = _mm256_set1_pd(constant);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(data + i);
    __m256d r;
    switch (op) {
      case CompareOp::kEq:
        r = _mm256_cmp_pd(v, c, _CMP_EQ_OQ);
        break;
      case CompareOp::kNe:
        r = _mm256_cmp_pd(v, c, _CMP_NEQ_UQ);
        break;
      case CompareOp::kLt:
        r = _mm256_cmp_pd(v, c, _CMP_LT_OQ);
        break;
      case CompareOp::kLe:
        r = _mm256_cmp_pd(v, c, _CMP_LE_OQ);
        break;
      case CompareOp::kGt:
        r = _mm256_cmp_pd(v, c, _CMP_GT_OQ);
        break;
      case CompareOp::kGe:
        r = _mm256_cmp_pd(v, c, _CMP_GE_OQ);
        break;
      default:
        r = _mm256_setzero_pd();
        break;
    }
    const unsigned bits = static_cast<unsigned>(_mm256_movemask_pd(r));
    for (std::size_t j = 0; j < 4; ++j) {
      mask[i + j] = static_cast<std::uint8_t>(((bits >> j) & 1u) &
                                              (nulls[i + j] == 0));
    }
  }
  if (i < n) {
    CmpDispatch(data + i, nulls + i, n - i, op, constant, mask + i,
                LoadF64{});
  }
}

/// SSE2 double compare (x86-64 baseline; used when AVX2 is absent at
/// runtime). Same predicate/NaN contract as the AVX2 variant.
void CompareMaskF64Sse2(const double* data, const std::uint8_t* nulls,
                        std::size_t n, CompareOp op, double constant,
                        std::uint8_t* mask) {
  const __m128d c = _mm_set1_pd(constant);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_loadu_pd(data + i);
    __m128d r;
    switch (op) {
      case CompareOp::kEq:
        r = _mm_cmpeq_pd(v, c);
        break;
      case CompareOp::kNe:
        r = _mm_cmpneq_pd(v, c);
        break;
      case CompareOp::kLt:
        r = _mm_cmplt_pd(v, c);
        break;
      case CompareOp::kLe:
        r = _mm_cmple_pd(v, c);
        break;
      case CompareOp::kGt:
        r = _mm_cmpgt_pd(v, c);
        break;
      case CompareOp::kGe:
        r = _mm_cmpge_pd(v, c);
        break;
      default:
        r = _mm_setzero_pd();
        break;
    }
    const unsigned bits = static_cast<unsigned>(_mm_movemask_pd(r));
    mask[i] = static_cast<std::uint8_t>((bits & 1u) & (nulls[i] == 0));
    mask[i + 1] =
        static_cast<std::uint8_t>(((bits >> 1) & 1u) & (nulls[i + 1] == 0));
  }
  if (i < n) {
    CmpDispatch(data + i, nulls + i, n - i, op, constant, mask + i,
                LoadF64{});
  }
}

#endif  // SOFTDB_SIMD_X86

}  // namespace

void CompareMaskI64(const std::int64_t* data, const std::uint8_t* nulls,
                    std::size_t n, CompareOp op, std::int64_t constant,
                    std::uint8_t* mask) {
#if defined(SOFTDB_SIMD_X86)
  if (HasAvx2()) {
    CompareMaskI64Avx2(data, nulls, n, op, constant, mask);
    return;
  }
#endif
  CmpDispatch(data, nulls, n, op, constant, mask, LoadI64{});
}

void CompareMaskI64AsF64(const std::int64_t* data, const std::uint8_t* nulls,
                         std::size_t n, CompareOp op, double constant,
                         std::uint8_t* mask) {
  // The int→double widening dominates; the autovectorizer handles the
  // cvtqq path well enough that no intrinsic variant is warranted.
  CmpDispatch(data, nulls, n, op, constant, mask, LoadI64AsF64{});
}

void CompareMaskF64(const double* data, const std::uint8_t* nulls,
                    std::size_t n, CompareOp op, double constant,
                    std::uint8_t* mask) {
#if defined(SOFTDB_SIMD_X86)
  if (HasAvx2()) {
    CompareMaskF64Avx2(data, nulls, n, op, constant, mask);
  } else {
    CompareMaskF64Sse2(data, nulls, n, op, constant, mask);
  }
  return;
#endif
  CmpDispatch(data, nulls, n, op, constant, mask, LoadF64{});
}

void CodeEqMask(const std::int32_t* codes, std::size_t n, bool negated,
                std::int32_t target, std::uint8_t* mask) {
  constexpr std::int32_t kNull = ColumnVector::kNullCode;
  if (!negated) {
    // target is never kNullCode (callers map absent strings to
    // kAbsentCode), so NULL rows cannot match.
    for (std::size_t i = 0; i < n; ++i) {
      mask[i] = static_cast<std::uint8_t>(codes[i] == target);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      mask[i] =
          static_cast<std::uint8_t>((codes[i] != target) & (codes[i] != kNull));
    }
  }
}

void CodeInMask(const std::int32_t* codes, std::size_t n,
                const std::int32_t* targets, std::size_t k,
                std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t hit = 0;
    for (std::size_t t = 0; t < k; ++t) {
      hit |= static_cast<std::uint8_t>(codes[i] == targets[t]);
    }
    mask[i] = hit;
  }
}

void IsNullMask(const std::uint8_t* nulls, std::size_t n, bool negated,
                std::uint8_t* mask) {
  if (negated) {
    for (std::size_t i = 0; i < n; ++i) {
      mask[i] = static_cast<std::uint8_t>(nulls[i] == 0);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      mask[i] = static_cast<std::uint8_t>(nulls[i] != 0);
    }
  }
}

void AndMask(const std::uint8_t* other, std::size_t n, std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i) mask[i] &= other[i];
}

void NullOrMask(const std::uint8_t* a, const std::uint8_t* b, std::size_t n,
                std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(a[i] | b[i]);
  }
}

std::size_t FilterSelByMask(const std::uint8_t* mask, SelIdx* sel,
                            std::size_t n) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SelIdx s = sel[i];
    sel[kept] = s;
    kept += mask[s];
  }
  return kept;
}

void ArithF64(ArithOp op, const double* a, const double* b, std::size_t n,
              double* out) {
  switch (op) {
    case ArithOp::kAdd:
      for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
      break;
    case ArithOp::kSub:
      for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
      break;
    case ArithOp::kMul:
      for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
      break;
    case ArithOp::kDiv:
      break;  // kDiv keeps the scalar loop (divide-by-zero → NULL).
  }
}

void ArithI64ViaDouble(ArithOp op, const std::int64_t* a,
                       const std::int64_t* b, std::size_t n,
                       std::int64_t* out) {
  // Exactly Expr::Eval's cast chain (NumericValue widens through
  // double), preserved for bit-identical results on |v| ≥ 2^53.
  auto rt = [](std::int64_t v) {
    return static_cast<std::int64_t>(static_cast<double>(v));
  };
  switch (op) {
    case ArithOp::kAdd:
      for (std::size_t i = 0; i < n; ++i) out[i] = rt(a[i]) + rt(b[i]);
      break;
    case ArithOp::kSub:
      for (std::size_t i = 0; i < n; ++i) out[i] = rt(a[i]) - rt(b[i]);
      break;
    case ArithOp::kMul:
      for (std::size_t i = 0; i < n; ++i) out[i] = rt(a[i]) * rt(b[i]);
      break;
    case ArithOp::kDiv:
      break;  // kDiv keeps the scalar loop (divide-by-zero → NULL).
  }
}

std::string SimdCapability() {
#if defined(SOFTDB_SIMD_X86)
  return HasAvx2() ? "avx2" : "sse2";
#else
  return "scalar";
#endif
}

}  // namespace kernels
}  // namespace softdb
