// AVX2+FMA implementations of the tensor kernel primitives (tensor/simd.h).
//
// This is the only translation unit compiled with -mavx2 -mfma (see the
// AHNTP_KERNEL_AVX2 probe in the top-level CMakeLists.txt). When the probe
// fails — non-x86 target or a compiler without the flags — the same file
// compiles the CHECK-failing stubs at the bottom; they are unreachable
// because common/cpu.cc then refuses to resolve KernelIsa::kAvx2.

#include "tensor/simd.h"

#include <cstdint>
#include <type_traits>

#include "common/check.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace ahntp::tensor::simd {

namespace {

/// Shared FMA axpy body: 8-wide fused lanes plus a scalar tail. Every AVX2
/// caller (SpMM gather band, SpMMTransposed scatter, MatMul NN band) inlines
/// this exact sequence, which is what keeps the gather and scatter sparse
/// paths bitwise-identical to each other.
inline void AxpyBody(float* o, const float* x, float a, size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vo = _mm256_loadu_ps(o + i);
    __m256 vx = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(o + i, _mm256_fmadd_ps(va, vx, vo));
  }
  for (; i < n; ++i) o[i] = __builtin_fmaf(a, x[i], o[i]);
}

/// Fixed-order horizontal sum of a 4-lane double accumulator:
/// ((l0 + l1) + l2) + l3. The order is part of the determinism contract.
inline double HSum(__m256d acc) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// HSum of four accumulators at once, as one vector {HSum(c0), ..., HSum(c3)}:
/// a 4x4 transpose puts lane q of every accumulator in vector q, and the
/// vector adds run in HSum's ((l0 + l1) + l2) + l3 order.
inline __m256d HSum4(__m256d c0, __m256d c1, __m256d c2, __m256d c3) {
  const __m256d even01 = _mm256_unpacklo_pd(c0, c1);  // c0.0 c1.0 c0.2 c1.2
  const __m256d odd01 = _mm256_unpackhi_pd(c0, c1);   // c0.1 c1.1 c0.3 c1.3
  const __m256d even23 = _mm256_unpacklo_pd(c2, c3);
  const __m256d odd23 = _mm256_unpackhi_pd(c2, c3);
  const __m256d l0 = _mm256_permute2f128_pd(even01, even23, 0x20);
  const __m256d l1 = _mm256_permute2f128_pd(odd01, odd23, 0x20);
  const __m256d l2 = _mm256_permute2f128_pd(even01, even23, 0x31);
  const __m256d l3 = _mm256_permute2f128_pd(odd01, odd23, 0x31);
  return _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(l0, l1), l2), l3);
}

/// Calls fn(std::integral_constant<int, NV>{}) with NV = count, for a
/// count in 1..8 known only at run time: the register kernels below take
/// their vector count as a template argument so their accumulator arrays
/// live in registers.
template <typename Fn>
void WithVectorCount(size_t count, Fn&& fn) {
  switch (count) {
    case 1: fn(std::integral_constant<int, 1>{}); return;
    case 2: fn(std::integral_constant<int, 2>{}); return;
    case 3: fn(std::integral_constant<int, 3>{}); return;
    case 4: fn(std::integral_constant<int, 4>{}); return;
    case 5: fn(std::integral_constant<int, 5>{}); return;
    case 6: fn(std::integral_constant<int, 6>{}); return;
    case 7: fn(std::integral_constant<int, 7>{}); return;
    default: fn(std::integral_constant<int, 8>{}); return;
  }
}

/// Lane mask selecting the first `count` (1..8) float lanes.
inline __m256i HeadMask(size_t count) {
  static const int32_t kLanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                     0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLanes + 8 - count));
}

/// In-place 8x8 transpose: afterwards lane j of r[q] is lane q of the old
/// r[j].
inline void Transpose8x8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// acc = fma(va, vx, acc) in every lane where va != 0 (zero skip by blend).
inline __m256 FmaSkipZero(__m256 va, __m256 vx, __m256 acc) {
  const __m256 skip = _mm256_cmp_ps(va, _mm256_setzero_ps(), _CMP_EQ_OQ);
  return _mm256_blendv_ps(_mm256_fmadd_ps(va, vx, acc), acc, skip);
}

/// Rows [r0, r1) of out = a * x for x a (k x 1) column. Each row keeps its
/// own ascending-p FMA chain with the zero skip (the scalar-tail AxpyBody
/// chain for n = 1). Eight rows run as the lanes of one vector: 8x8 blocks
/// of a are transposed so column p of the block meets x[p]. Leftover rows
/// run the chain one row at a time.
void MatVecNN(const float* a, const float* x, float* out, size_t r0,
              size_t r1, size_t k) {
  size_t i = r0;
  for (; i + 8 <= r1; i += 8) {
    const float* rows = a + i * k;
    __m256 acc = _mm256_setzero_ps();
    size_t p = 0;
    for (; p + 8 <= k; p += 8) {
      __m256 block[8];
      for (size_t r = 0; r < 8; ++r) {
        block[r] = _mm256_loadu_ps(rows + r * k + p);
      }
      Transpose8x8(block);
      for (size_t q = 0; q < 8; ++q) {
        acc = FmaSkipZero(block[q], _mm256_broadcast_ss(x + p + q), acc);
      }
    }
    for (; p < k; ++p) {
      const __m256 column = _mm256_set_ps(
          rows[7 * k + p], rows[6 * k + p], rows[5 * k + p], rows[4 * k + p],
          rows[3 * k + p], rows[2 * k + p], rows[k + p], rows[p]);
      acc = FmaSkipZero(column, _mm256_broadcast_ss(x + p), acc);
    }
    _mm256_storeu_ps(out + i, acc);
  }
  for (; i < r1; ++i) {
    const float* row = a + i * k;
    float acc = 0.0f;
    for (size_t p = 0; p < k; ++p) {
      if (row[p] != 0.0f) acc = __builtin_fmaf(row[p], x[p], acc);
    }
    out[i] = acc;
  }
}

/// Rows [r0, r1) of out = a * b for n = 8 * NV: the whole output row stays
/// in NV registers across k, so each (row, p) costs NV loads of b and NV
/// FMAs with no load/store of out. Same per-element chain as AxpyBody.
template <int NV>
void RowTileNN(const float* a, const float* b, float* out, size_t r0,
               size_t r1, size_t k) {
  constexpr size_t n = 8 * NV;
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    __m256 acc[NV];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      if (arow[p] == 0.0f) continue;
      const __m256 va = _mm256_set1_ps(arow[p]);
      const float* brow = b + p * n;
      for (int v = 0; v < NV; ++v) {
        acc[v] = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 8 * v), acc[v]);
      }
    }
    for (int v = 0; v < NV; ++v) _mm256_storeu_ps(out + i * n + 8 * v, acc[v]);
  }
}

/// out[i0, i0 + rows) of a^T * g for a (k x lda) and g (k x 1), with
/// 8 * (NV - 1) < rows <= 8 * NV: a is streamed once, row by row, while the
/// output slice sits in NV registers. The zero skip is a blend, so a zero
/// multiplier leaves its accumulator untouched even when g[p] is inf/NaN.
template <int NV>
void MatVecTN(const float* a, const float* g, float* out, size_t i0,
              size_t rows, size_t k, size_t lda) {
  const __m256i last = HeadMask(rows - 8 * (NV - 1));
  __m256 acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_ps();
  for (size_t p = 0; p < k; ++p) {
    const float* arow = a + p * lda + i0;
    const __m256 vg = _mm256_broadcast_ss(g + p);
    for (int v = 0; v < NV; ++v) {
      const __m256 va = v + 1 < NV ? _mm256_loadu_ps(arow + 8 * v)
                                   : _mm256_maskload_ps(arow + 8 * v, last);
      acc[v] = FmaSkipZero(va, vg, acc[v]);
    }
  }
  for (int v = 0; v + 1 < NV; ++v) {
    _mm256_storeu_ps(out + i0 + 8 * v, acc[v]);
  }
  _mm256_maskstore_ps(out + i0 + 8 * (NV - 1), last, acc[NV - 1]);
}

/// out[r * ldo + c] for r < R, c < 4 = the DotF64 of a row r (rows `lda`
/// apart) against b row c (rows `ldb` apart): each converted load of a or b
/// feeds several 4-lane double accumulators, and the four columns of a row
/// are reduced together with HSum4 and DotF64's tail (a separate exact
/// product, then one add per element), so every result is DotF64's bit
/// for bit.
template <int R>
void DotTileF64(const float* a, size_t lda, const float* b, size_t ldb,
                size_t n, float* out, size_t ldo) {
  __m256d acc[R][4];
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < 4; ++c) acc[r][c] = _mm256_setzero_pd();
  }
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d db[4];
    for (int c = 0; c < 4; ++c) {
      db[c] = _mm256_cvtps_pd(_mm_loadu_ps(b + c * ldb + i));
    }
    for (int r = 0; r < R; ++r) {
      const __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + r * lda + i));
      for (int c = 0; c < 4; ++c) {
        acc[r][c] = _mm256_fmadd_pd(da, db[c], acc[r][c]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    __m256d sum = HSum4(acc[r][0], acc[r][1], acc[r][2], acc[r][3]);
    for (size_t t = i; t < n; ++t) {
      const __m256d bt = _mm256_set_pd(b[3 * ldb + t], b[2 * ldb + t],
                                       b[ldb + t], b[t]);
      sum = _mm256_add_pd(
          sum, _mm256_mul_pd(_mm256_set1_pd(a[r * lda + t]), bt));
    }
    _mm_storeu_ps(out + r * ldo, _mm256_cvtpd_ps(sum));
  }
}

/// Rows [i, i + R) of out = a^T * b over contraction rows [p0, p1), for
/// n = 8 * NV: an R x n output tile lives in registers for the whole
/// k-block, loaded from and stored back to `out` around it (an exact
/// round trip, so chaining blocks keeps each element's ascending-p FMA
/// chain). Each b row load feeds R rows; the zero skip is a blend.
template <int R, int NV>
void TileTN(const float* a, const float* b, float* out, size_t i,
            size_t p0, size_t p1, size_t m) {
  constexpr size_t n = 8 * NV;
  __m256 acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = _mm256_loadu_ps(out + (i + r) * n + 8 * v);
    }
  }
  for (size_t p = p0; p < p1; ++p) {
    const float* arow = a + p * m + i;
    const float* brow = b + p * n;
    __m256 vb[NV];
    for (int v = 0; v < NV; ++v) vb[v] = _mm256_loadu_ps(brow + 8 * v);
    for (int r = 0; r < R; ++r) {
      const __m256 va = _mm256_broadcast_ss(arow + r);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = FmaSkipZero(va, vb[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      _mm256_storeu_ps(out + (i + r) * n + 8 * v, acc[r][v]);
    }
  }
}

/// Rows [r0, r1) of out = a^T * b for n = 8 * NV, k-blocked so the block's
/// rows of a and b stay cache-resident across the row tiles. R rows per
/// tile keep R * NV accumulators plus NV b vectors within the 16 ymm
/// registers.
template <int NV>
void RowTileTN(const float* a, const float* b, float* out, size_t r0,
               size_t r1, size_t k, size_t m, size_t kblock) {
  constexpr int R = NV == 1 ? 8 : NV == 2 ? 4 : NV <= 4 ? 2 : 1;
  for (size_t p0 = 0; p0 < k; p0 += kblock) {
    const size_t p1 = p0 + kblock < k ? p0 + kblock : k;
    size_t i = r0;
    for (; i + R <= r1; i += R) TileTN<R, NV>(a, b, out, i, p0, p1, m);
    for (; i < r1; ++i) TileTN<1, NV>(a, b, out, i, p0, p1, m);
  }
}

}  // namespace

void AddF32(float* o, const float* a, const float* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void SubF32(float* o, const float* a, const float* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void MulF32(float* o, const float* a, const float* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void ScaleF32(float* o, const float* a, float s, size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] * s;
}

void AddScalarF32(float* o, const float* a, float s, size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] + s;
}

void ReluF32(float* o, const float* a, size_t n) {
  // blend, not max_ps: the scalar kernel keeps -0.0f and NaN unchanged
  // (x < 0 ? 0 : x), and this must stay bitwise-identical to it.
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(a + i);
    __m256 neg = _mm256_cmp_ps(x, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(o + i, _mm256_blendv_ps(x, zero, neg));
  }
  for (; i < n; ++i) o[i] = a[i] < 0.0f ? 0.0f : a[i];
}

void LeakyReluF32(float* o, const float* a, float slope, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(slope);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(a + i);
    __m256 neg = _mm256_cmp_ps(x, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(o + i,
                     _mm256_blendv_ps(x, _mm256_mul_ps(x, vs), neg));
  }
  for (; i < n; ++i) o[i] = a[i] < 0.0f ? a[i] * slope : a[i];
}

void ClampF32(float* o, const float* a, float lo, float hi, size_t n) {
  // Operand order matters: VMAXPS/VMINPS return the *second* operand when
  // either input is NaN, so putting the data second propagates NaN exactly
  // like std::min(std::max(x, lo), hi) does.
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(o + i,
                     _mm256_min_ps(vhi, _mm256_max_ps(vlo, x)));
  }
  for (; i < n; ++i) {
    float x = a[i] < lo ? lo : a[i];
    o[i] = x > hi ? hi : x;
  }
}

void AbsF32(float* o, const float* a, size_t n) {
  const __m256 mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_and_ps(_mm256_loadu_ps(a + i), mask));
  }
  for (; i < n; ++i) o[i] = __builtin_fabsf(a[i]);
}

void SqrtMaxF32(float* o, const float* a, float eps, size_t n) {
  const __m256 veps = _mm256_set1_ps(eps);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(o + i, _mm256_sqrt_ps(_mm256_max_ps(veps, x)));
  }
  for (; i < n; ++i) {
    float x = a[i] < eps ? eps : a[i];
    o[i] = __builtin_sqrtf(x);
  }
}

void AxpyF32(float* o, const float* x, float a, size_t n) {
  AxpyBody(o, x, a, n);
}

double DotF64(const float* a, const float* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    __m256d db = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    acc = _mm256_fmadd_pd(da, db, acc);
  }
  double sum = HSum(acc);
  for (; i < n; ++i) sum += static_cast<double>(a[i]) * b[i];
  return sum;
}

double SumF64(const float* a, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm_loadu_ps(a + i)));
  }
  double sum = HSum(acc);
  for (; i < n; ++i) sum += static_cast<double>(a[i]);
  return sum;
}

double SumSqF64(const float* a, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    acc = _mm256_fmadd_pd(da, da, acc);
  }
  double sum = HSum(acc);
  for (; i < n; ++i) sum += static_cast<double>(a[i]) * a[i];
  return sum;
}

void MatMulBandNN(const float* a, const float* b, float* out, size_t r0,
                  size_t r1, size_t k, size_t n, size_t kblock) {
  if (n == 1) {
    MatVecNN(a, b, out, r0, r1, k);
    return;
  }
  if (n >= 8 && n <= 64 && n % 8 == 0) {
    WithVectorCount(n / 8, [&](auto nv) {
      RowTileNN<nv>(a, b, out, r0, r1, k);
    });
    return;
  }
  // Same k-blocked i-k-j structure (and zero-skip) as the scalar band; only
  // the innermost j loop is fused.
  for (size_t p0 = 0; p0 < k; p0 += kblock) {
    const size_t p1 = p0 + kblock < k ? p0 + kblock : k;
    for (size_t i = r0; i < r1; ++i) {
      const float* arow = a + i * k;
      float* orow = out + i * n;
      for (size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        AxpyBody(orow, b + p * n, av, n);
      }
    }
  }
}

void MatMulBandNT(const float* a, const float* b, float* out, size_t r0,
                  size_t r1, size_t k, size_t nb) {
  if (k == 1) {
    // The outer product: DotF64 of one element is 0.0 + (double)a * b
    // (exact product, +0 for a -0 product), rounded once to float.
    const __m256d zero = _mm256_setzero_pd();
    for (size_t i = r0; i < r1; ++i) {
      const __m256d va = _mm256_set1_pd(a[i]);
      float* orow = out + i * nb;
      size_t j = 0;
      for (; j + 4 <= nb; j += 4) {
        const __m256d prod =
            _mm256_mul_pd(va, _mm256_cvtps_pd(_mm_loadu_ps(b + j)));
        _mm_storeu_ps(orow + j, _mm256_cvtpd_ps(_mm256_add_pd(prod, zero)));
      }
      for (; j < nb; ++j) orow[j] = static_cast<float>(DotF64(a + i, b + j, 1));
    }
    return;
  }
  // Two rows of a by four rows of b per tile; leftover rows and columns
  // fall back to single dots.
  const size_t nb4 = nb - nb % 4;
  size_t i = r0;
  for (; i + 2 <= r1; i += 2) {
    for (size_t j = 0; j < nb4; j += 4) {
      DotTileF64<2>(a + i * k, k, b + j * k, k, k, out + i * nb + j, nb);
    }
  }
  for (; i < r1; ++i) {
    for (size_t j = 0; j < nb4; j += 4) {
      DotTileF64<1>(a + i * k, k, b + j * k, k, k, out + i * nb + j, nb);
    }
  }
  for (i = r0; i < r1; ++i) {
    for (size_t j = nb4; j < nb; ++j) {
      out[i * nb + j] = static_cast<float>(DotF64(a + i * k, b + j * k, k));
    }
  }
}

void MatMulBandTN(const float* a, const float* b, float* out, size_t r0,
                  size_t r1, size_t k, size_t m, size_t n, size_t kblock) {
  if (n >= 8 && n <= 64 && n % 8 == 0) {
    WithVectorCount(n / 8, [&](auto nv) {
      RowTileTN<nv>(a, b, out, r0, r1, k, m, kblock);
    });
    return;
  }
  if (n == 1) {
    for (size_t i0 = r0; i0 < r1; i0 += 64) {
      const size_t rows = r1 - i0 < 64 ? r1 - i0 : 64;
      WithVectorCount((rows + 7) / 8, [&](auto nv) {
        MatVecTN<nv>(a, b, out, i0, rows, k, m);
      });
    }
    return;
  }
  // Outer-product order: row p of a and row p of b are each read once, and
  // every output element still sees its p terms in ascending order.
  for (size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (size_t i = r0; i < r1; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      AxpyBody(out + i * n, brow, av, n);
    }
  }
}

void SpMMRowBand(const int* row_ptr, const int* col_idx, const float* values,
                 const float* b, size_t bcols, float* out, size_t r0,
                 size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    float* orow = out + r * bcols;
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      AxpyBody(orow, b + static_cast<size_t>(col_idx[i]) * bcols, values[i],
               bcols);
    }
  }
}

void SpMVRows(const int* row_ptr, const int* col_idx, const float* values,
              const float* x, float* y, size_t r0, size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    __m256d acc = _mm256_setzero_pd();
    int i = row_ptr[r];
    const int end = row_ptr[r + 1];
    for (; i + 4 <= end; i += 4) {
      __m128 vals = _mm_loadu_ps(values + i);
      __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(col_idx + i));
      __m128 xs = _mm_i32gather_ps(x, idx, 4);
      acc = _mm256_fmadd_pd(_mm256_cvtps_pd(vals), _mm256_cvtps_pd(xs), acc);
    }
    double sum = HSum(acc);
    for (; i < end; ++i) {
      sum += static_cast<double>(values[i]) * x[static_cast<size_t>(col_idx[i])];
    }
    y[r] = static_cast<float>(sum);
  }
}

}  // namespace ahntp::tensor::simd

#else  // !(__AVX2__ && __FMA__): CHECK-failing stubs, never dispatched to.

namespace ahntp::tensor::simd {

namespace {
[[noreturn]] void NoAvx2() {
  AHNTP_CHECK(false) << "AVX2 kernels were not compiled into this build";
  __builtin_unreachable();
}
}  // namespace

void AddF32(float*, const float*, const float*, size_t) { NoAvx2(); }
void SubF32(float*, const float*, const float*, size_t) { NoAvx2(); }
void MulF32(float*, const float*, const float*, size_t) { NoAvx2(); }
void ScaleF32(float*, const float*, float, size_t) { NoAvx2(); }
void AddScalarF32(float*, const float*, float, size_t) { NoAvx2(); }
void ReluF32(float*, const float*, size_t) { NoAvx2(); }
void LeakyReluF32(float*, const float*, float, size_t) { NoAvx2(); }
void ClampF32(float*, const float*, float, float, size_t) { NoAvx2(); }
void AbsF32(float*, const float*, size_t) { NoAvx2(); }
void SqrtMaxF32(float*, const float*, float, size_t) { NoAvx2(); }
void AxpyF32(float*, const float*, float, size_t) { NoAvx2(); }
double DotF64(const float*, const float*, size_t) { NoAvx2(); }
double SumF64(const float*, size_t) { NoAvx2(); }
double SumSqF64(const float*, size_t) { NoAvx2(); }
void MatMulBandNN(const float*, const float*, float*, size_t, size_t, size_t,
                  size_t, size_t) {
  NoAvx2();
}
void MatMulBandNT(const float*, const float*, float*, size_t, size_t, size_t,
                  size_t) {
  NoAvx2();
}
void MatMulBandTN(const float*, const float*, float*, size_t, size_t, size_t,
                  size_t, size_t, size_t) {
  NoAvx2();
}
void SpMMRowBand(const int*, const int*, const float*, const float*, size_t,
                 float*, size_t, size_t) {
  NoAvx2();
}
void SpMVRows(const int*, const int*, const float*, const float*, float*,
              size_t, size_t) {
  NoAvx2();
}

}  // namespace ahntp::tensor::simd

#endif  // __AVX2__ && __FMA__
