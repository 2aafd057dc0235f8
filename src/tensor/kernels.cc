#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "tensor/simd.h"

namespace ahntp::tensor {

namespace {

/// Same serial threshold as matrix.cc: elementwise loops below ~32k floats
/// are not worth dispatching.
constexpr size_t kElementwiseGrain = size_t{1} << 15;

/// Applies `f` to every element. Per-element transforms are bit-identical
/// under any partitioning, so a fixed-grain ParallelFor keeps the
/// determinism contract while large (all-user) matrices still parallelize.
template <typename F>
void ElementwiseInto(Matrix* out, const Matrix& a, F f) {
  out->ResetShape(a.rows(), a.cols());
  const float* pa = a.data();
  float* po = out->data();
  ParallelFor(0, out->size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
  });
}

/// AVX2-dispatched variant: when the active ISA is kAvx2, each chunk runs
/// the vector primitive `vec(po + lo, pa + lo, hi - lo)` instead of the
/// scalar lambda. The exact-tier primitives perform the same per-element
/// operations, so this stays bitwise-identical to the scalar path; chunk
/// boundaries come from the fixed grain either way (thread-count
/// invariant).
template <typename F, typename Vec>
void ElementwiseIntoDispatch(Matrix* out, const Matrix& a, F f, Vec vec) {
  if (!simd::UseAvx2()) {
    ElementwiseInto(out, a, f);
    return;
  }
  out->ResetShape(a.rows(), a.cols());
  const float* pa = a.data();
  float* po = out->data();
  ParallelFor(0, out->size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    vec(po + lo, pa + lo, hi - lo);
  });
}

}  // namespace

void ReluInto(Matrix* out, const Matrix& a) {
  ElementwiseIntoDispatch(
      out, a, [](float x) { return x < 0.0f ? 0.0f : x; },
      [](float* o, const float* p, size_t n) { simd::ReluF32(o, p, n); });
}

void LeakyReluInto(Matrix* out, const Matrix& a, float negative_slope) {
  ElementwiseIntoDispatch(
      out, a,
      [negative_slope](float x) {
        return x < 0.0f ? x * negative_slope : x;
      },
      [negative_slope](float* o, const float* p, size_t n) {
        simd::LeakyReluF32(o, p, negative_slope, n);
      });
}

void SigmoidInto(Matrix* out, const Matrix& a) {
  ElementwiseInto(out, a,
                  [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

void TanhInto(Matrix* out, const Matrix& a) {
  ElementwiseInto(out, a, [](float x) { return std::tanh(x); });
}

void ExpInto(Matrix* out, const Matrix& a) {
  ElementwiseInto(out, a, [](float x) { return std::exp(x); });
}

void LogInto(Matrix* out, const Matrix& a, float epsilon) {
  ElementwiseInto(out, a, [epsilon](float x) {
    return std::log(std::max(x, epsilon));
  });
}

void ClampInto(Matrix* out, const Matrix& a, float lo, float hi) {
  AHNTP_CHECK_LE(lo, hi);
  ElementwiseIntoDispatch(
      out, a,
      [lo, hi](float x) { return std::min(std::max(x, lo), hi); },
      [lo, hi](float* o, const float* p, size_t n) {
        simd::ClampF32(o, p, lo, hi, n);
      });
}

void SqrtInto(Matrix* out, const Matrix& a, float epsilon) {
  ElementwiseIntoDispatch(
      out, a,
      [epsilon](float x) { return std::sqrt(std::max(x, epsilon)); },
      [epsilon](float* o, const float* p, size_t n) {
        simd::SqrtMaxF32(o, p, epsilon, n);
      });
}

void AbsInto(Matrix* out, const Matrix& a) {
  ElementwiseIntoDispatch(
      out, a, [](float x) { return std::fabs(x); },
      [](float* o, const float* p, size_t n) { simd::AbsF32(o, p, n); });
}

void PowScalarInto(Matrix* out, const Matrix& a, float exponent,
                   float epsilon) {
  ElementwiseInto(out, a, [exponent, epsilon](float x) {
    return std::pow(std::max(x, epsilon), exponent);
  });
}

void MulColBroadcastInto(Matrix* out, const Matrix& a, const Matrix& col) {
  AHNTP_CHECK_EQ(col.rows(), a.rows());
  AHNTP_CHECK_EQ(col.cols(), 1u);
  out->ResetShape(a.rows(), a.cols());
  const size_t cols = a.cols();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float s = col.At(r, 0);
      const float* arow = a.RowPtr(r);
      float* orow = out->RowPtr(r);
      if (avx2) {
        simd::ScaleF32(orow, arow, s, cols);
      } else {
        for (size_t c = 0; c < cols; ++c) orow[c] = arow[c] * s;
      }
    }
  });
}

void MulRowBroadcastInto(Matrix* out, const Matrix& a, const Matrix& row) {
  AHNTP_CHECK_EQ(row.rows(), 1u);
  AHNTP_CHECK_EQ(row.cols(), a.cols());
  out->ResetShape(a.rows(), a.cols());
  const float* brow = row.RowPtr(0);
  const size_t cols = a.cols();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* arow = a.RowPtr(r);
      float* orow = out->RowPtr(r);
      if (avx2) {
        simd::MulF32(orow, arow, brow, cols);
      } else {
        for (size_t c = 0; c < cols; ++c) orow[c] = arow[c] * brow[c];
      }
    }
  });
}

void RowNormsInto(Matrix* out, const Matrix& a, float epsilon) {
  AHNTP_CHECK(out != &a) << "RowNormsInto cannot alias its input";
  out->ResetShape(a.rows(), 1);
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(a.cols()),
              [&](size_t r0, size_t r1) {
                for (size_t r = r0; r < r1; ++r) {
                  double acc = 0.0;
                  const float* row = a.RowPtr(r);
                  if (avx2) {
                    acc = simd::SumSqF64(row, a.cols());
                  } else {
                    for (size_t c = 0; c < a.cols(); ++c) {
                      acc += static_cast<double>(row[c]) * row[c];
                    }
                  }
                  out->At(r, 0) =
                      static_cast<float>(std::sqrt(acc + epsilon));
                }
              });
}

void DivRowsByNormsInto(Matrix* out, const Matrix& a, const Matrix& norms) {
  AHNTP_CHECK_EQ(norms.rows(), a.rows());
  AHNTP_CHECK_EQ(norms.cols(), 1u);
  out->ResetShape(a.rows(), a.cols());
  const size_t cols = a.cols();
  // Multiplying by the reciprocal (not dividing) matches the tape's
  // RowL2Normalize bit for bit.
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float inv = 1.0f / norms.At(r, 0);
      const float* arow = a.RowPtr(r);
      float* orow = out->RowPtr(r);
      if (avx2) {
        simd::ScaleF32(orow, arow, inv, cols);
      } else {
        for (size_t c = 0; c < cols; ++c) orow[c] = arow[c] * inv;
      }
    }
  });
}

void RowwiseDotInto(Matrix* out, const Matrix& a, const Matrix& b) {
  AHNTP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  AHNTP_CHECK(out != &a && out != &b)
      << "RowwiseDotInto cannot alias an input";
  out->ResetShape(a.rows(), 1);
  const size_t cols = a.cols();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* arow = a.RowPtr(r);
      const float* brow = b.RowPtr(r);
      double acc = 0.0;
      if (avx2) {
        acc = simd::DotF64(arow, brow, cols);
      } else {
        for (size_t c = 0; c < cols; ++c) {
          acc += static_cast<double>(arow[c]) * brow[c];
        }
      }
      out->At(r, 0) = static_cast<float>(acc);
    }
  });
}

void RowSoftmaxInto(Matrix* out, const Matrix& a) {
  out->ResetShape(a.rows(), a.cols());
  const size_t cols = a.cols();
  ParallelFor(0, a.rows(), GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* arow = a.RowPtr(r);
      float* orow = out->RowPtr(r);
      float max_v = arow[0];
      for (size_t c = 1; c < cols; ++c) max_v = std::max(max_v, arow[c]);
      double sum = 0.0;
      for (size_t c = 0; c < cols; ++c) {
        orow[c] = std::exp(arow[c] - max_v);
        sum += orow[c];
      }
      float inv = static_cast<float>(1.0 / std::max(sum, 1e-30));
      for (size_t c = 0; c < cols; ++c) orow[c] *= inv;
    }
  });
}

void CheckSegments(const std::vector<int>& segments, size_t num_rows,
                   size_t num_segments) {
  AHNTP_CHECK_EQ(segments.size(), num_rows);
  for (int s : segments) {
    AHNTP_CHECK(s >= 0 && static_cast<size_t>(s) < num_segments)
        << "segment id " << s << " out of range [0," << num_segments << ")";
  }
}

void SegmentSumInto(Matrix* out, const Matrix& a,
                    const std::vector<int>& segments, size_t num_segments) {
  AHNTP_CHECK(out != &a) << "SegmentSumInto cannot alias its input";
  CheckSegments(segments, a.rows(), num_segments);
  out->ResetShape(num_segments, a.cols());
  out->Fill(0.0f);
  // Serial scatter: rows of a segment accumulate in ascending row order,
  // which is the determinism contract the tape op also follows.
  const bool avx2 = simd::UseAvx2();
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* src = a.RowPtr(r);
    float* dst = out->RowPtr(static_cast<size_t>(segments[r]));
    if (avx2) {
      simd::AddF32(dst, dst, src, a.cols());
    } else {
      for (size_t c = 0; c < a.cols(); ++c) dst[c] += src[c];
    }
  }
}

void SegmentMeanInto(Matrix* out, const Matrix& a,
                     const std::vector<int>& segments, size_t num_segments,
                     std::vector<float>* counts) {
  AHNTP_CHECK(out != &a) << "SegmentMeanInto cannot alias its input";
  CheckSegments(segments, a.rows(), num_segments);
  std::vector<float> local_counts;
  std::vector<float>& cnt = counts != nullptr ? *counts : local_counts;
  cnt.assign(num_segments, 0.0f);
  for (int s : segments) cnt[static_cast<size_t>(s)] += 1.0f;
  SegmentSumInto(out, a, segments, num_segments);
  for (size_t s = 0; s < num_segments; ++s) {
    if (cnt[s] > 0.0f) {
      float* row = out->RowPtr(s);
      for (size_t c = 0; c < a.cols(); ++c) row[c] /= cnt[s];
    }
  }
}

void SegmentSoftmaxInto(Matrix* out, const Matrix& a,
                        const std::vector<int>& segments,
                        size_t num_segments) {
  AHNTP_CHECK_EQ(a.cols(), 1u);
  AHNTP_CHECK(out != &a) << "SegmentSoftmaxInto cannot alias its input";
  CheckSegments(segments, a.rows(), num_segments);
  const size_t n = a.rows();
  out->ResetShape(n, 1);
  // Shifted exp for numerical stability; per-segment sums accumulate in
  // ascending row order (serial, deterministic).
  std::vector<float> max_per_seg(num_segments,
                                 -std::numeric_limits<float>::infinity());
  for (size_t r = 0; r < n; ++r) {
    size_t s = static_cast<size_t>(segments[r]);
    max_per_seg[s] = std::max(max_per_seg[s], a.At(r, 0));
  }
  std::vector<double> sum_per_seg(num_segments, 0.0);
  for (size_t r = 0; r < n; ++r) {
    size_t s = static_cast<size_t>(segments[r]);
    float e = std::exp(a.At(r, 0) - max_per_seg[s]);
    out->At(r, 0) = e;
    sum_per_seg[s] += e;
  }
  for (size_t r = 0; r < n; ++r) {
    size_t s = static_cast<size_t>(segments[r]);
    out->At(r, 0) =
        static_cast<float>(out->At(r, 0) / std::max(sum_per_seg[s], 1e-30));
  }
}

}  // namespace ahntp::tensor
