#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/metrics.h"
#include "common/parallel.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace ahntp::tensor {

namespace {

/// Elementwise loops shorter than this stay serial: below ~32k floats the
/// task-dispatch overhead exceeds the loop body.
constexpr size_t kElementwiseGrain = size_t{1} << 15;

/// Fixed reduction grain. Chunk boundaries must not depend on the thread
/// count (determinism contract in common/parallel.h), so this is a
/// constant, not a function of NumThreads().
constexpr size_t kReduceGrain = size_t{1} << 15;

/// Panel height for the blocked MatMul k-loop: 64 rows of B are streamed
/// repeatedly while they are still cache-resident.
constexpr size_t kMatMulKBlock = 64;

/// Output rows per chunk of the in-place a^T * b kernel. Every chunk
/// streams all k rows of a and b, so the chunk is sized by that pass, not by
/// the per-row cost: 64 rows is one register-resident slice of the n = 1
/// kernel. A constant, so chunking never depends on the thread count.
constexpr size_t kMatMulTNGrain = 64;

}  // namespace

Matrix::Matrix(size_t rows, size_t cols, const std::vector<float>& data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
  AHNTP_CHECK_EQ(rows_ * cols_, data_.size());
}

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  size_t cols = rows[0].size();
  Matrix out(rows.size(), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    AHNTP_CHECK_EQ(rows[r].size(), cols);
    for (size_t c = 0; c < cols; ++c) out.At(r, c) = rows[r][c];
  }
  return out;
}

Matrix Matrix::Identity(size_t n) {
  Matrix out(n, n);
  for (size_t i = 0; i < n; ++i) out.At(i, i) = 1.0f;
  return out;
}

Matrix Matrix::Randn(size_t rows, size_t cols, Rng* rng, float mean,
                     float stddev) {
  AHNTP_CHECK(rng != nullptr);
  Matrix out(rows, cols);
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
  return out;
}

Matrix Matrix::RandUniform(size_t rows, size_t cols, Rng* rng, float lo,
                           float hi) {
  AHNTP_CHECK(rng != nullptr);
  Matrix out(rows, cols);
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = rng->Uniform(lo, hi);
  }
  return out;
}

void Matrix::Fill(float value) {
  for (auto& v : data_) v = value;
}

void Matrix::Reshape(size_t rows, size_t cols) {
  AHNTP_CHECK_EQ(rows * cols, data_.size());
  rows_ = rows;
  cols_ = cols;
}

void Matrix::ResetShape(size_t rows, size_t cols) {
  // vector::resize never reallocates when the new size fits the current
  // capacity, so a warmed buffer is reshaped allocation-free.
  data_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  AHNTP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  float* a = data_.data();
  const float* b = other.data_.data();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, data_.size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    if (avx2) {
      simd::AddF32(a + lo, a + lo, b + lo, hi - lo);
    } else {
      for (size_t i = lo; i < hi; ++i) a[i] += b[i];
    }
  });
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  AHNTP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  float* a = data_.data();
  const float* b = other.data_.data();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, data_.size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    if (avx2) {
      simd::SubF32(a + lo, a + lo, b + lo, hi - lo);
    } else {
      for (size_t i = lo; i < hi; ++i) a[i] -= b[i];
    }
  });
  return *this;
}

Matrix& Matrix::operator*=(float scalar) {
  float* a = data_.data();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, data_.size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    if (avx2) {
      simd::ScaleF32(a + lo, a + lo, scalar, hi - lo);
    } else {
      for (size_t i = lo; i < hi; ++i) a[i] *= scalar;
    }
  });
  return *this;
}

float Matrix::Sum() const {
  const float* a = data_.data();
  const bool avx2 = simd::UseAvx2();
  double acc = ParallelReduce<double>(
      0, data_.size(), kReduceGrain, 0.0,
      [=](size_t lo, size_t hi) {
        if (avx2) return simd::SumF64(a + lo, hi - lo);
        double partial = 0.0;
        for (size_t i = lo; i < hi; ++i) partial += a[i];
        return partial;
      },
      [](double x, double y) { return x + y; });
  return static_cast<float>(acc);
}

float Matrix::Mean() const {
  if (data_.empty()) return 0.0f;
  return Sum() / static_cast<float>(data_.size());
}

float Matrix::MaxAbs() const {
  const float* a = data_.data();
  return ParallelReduce<float>(
      0, data_.size(), kReduceGrain, 0.0f,
      [=](size_t lo, size_t hi) {
        float best = 0.0f;
        for (size_t i = lo; i < hi; ++i) best = std::max(best, std::fabs(a[i]));
        return best;
      },
      [](float x, float y) { return std::max(x, y); });
}

float Matrix::FrobeniusNorm() const {
  const float* a = data_.data();
  const bool avx2 = simd::UseAvx2();
  double acc = ParallelReduce<double>(
      0, data_.size(), kReduceGrain, 0.0,
      [=](size_t lo, size_t hi) {
        if (avx2) return simd::SumSqF64(a + lo, hi - lo);
        double partial = 0.0;
        for (size_t i = lo; i < hi; ++i) {
          partial += static_cast<double>(a[i]) * a[i];
        }
        return partial;
      },
      [](double x, double y) { return x + y; });
  return static_cast<float>(std::sqrt(acc));
}

Matrix Matrix::RowCopy(size_t r) const {
  AHNTP_CHECK_LT(r, rows_);
  Matrix out(1, cols_);
  for (size_t c = 0; c < cols_; ++c) out.At(0, c) = At(r, c);
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  // Parallel over output rows: each chunk writes a disjoint row band of the
  // transpose (strided reads, contiguous writes).
  ParallelFor(0, cols_, GrainForCost(rows_), [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      float* orow = out.RowPtr(c);
      for (size_t r = 0; r < rows_; ++r) orow[r] = At(r, c);
    }
  });
  return out;
}

bool Matrix::AllClose(const Matrix& other, float tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Matrix::DebugString(size_t max_entries) const {
  std::ostringstream out;
  out << "Matrix " << rows_ << "x" << cols_ << " [";
  size_t shown = std::min(max_entries, data_.size());
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) out << ", ";
    out << data_[i];
  }
  if (shown < data_.size()) out << ", ...";
  out << "]";
  return out.str();
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix out;
  AddInto(&out, a, b);
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix out;
  SubInto(&out, a, b);
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  Matrix out;
  HadamardInto(&out, a, b);
  return out;
}

Matrix Scale(const Matrix& a, float scalar) {
  Matrix out;
  ScaleInto(&out, a, scalar);
  return out;
}

namespace {

/// Blocked i-k-j kernel for out[r0, r1) = a * b: the k loop is tiled so a
/// ~kMatMulKBlock-row panel of b is reused across every row of the band
/// while it is cache-hot. Per output element the additions still occur in
/// ascending-k order, so the result is bit-identical to the untiled i-k-j
/// loop and independent of the row partitioning (= thread count).
void MatMulRowBandNN(const Matrix& a, const Matrix& b, Matrix* out, size_t r0,
                     size_t r1) {
  const size_t k = a.cols();
  const size_t n = b.cols();
  for (size_t p0 = 0; p0 < k; p0 += kMatMulKBlock) {
    const size_t p1 = std::min(k, p0 + kMatMulKBlock);
    for (size_t i = r0; i < r1; ++i) {
      const float* arow = a.RowPtr(i);
      float* orow = out->RowPtr(i);
      for (size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = b.RowPtr(p);
        for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

/// out[r0, r1) rows of a * b^T: each output element is an independent dot
/// product of two contiguous rows.
void MatMulRowBandNT(const Matrix& a, const Matrix& b, Matrix* out, size_t r0,
                     size_t r1) {
  const size_t k = a.cols();
  const size_t n = b.rows();
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a.RowPtr(i);
    float* orow = out->RowPtr(i);
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b.RowPtr(j);
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(arow[p]) * brow[p];
      }
      orow[j] = static_cast<float>(acc);
    }
  }
}

/// Uncounted kernel body shared by MatMul and MatMulInto; the public
/// entries record their metrics exactly once even on the paths that
/// re-enter here after materializing a^T. `out` is reshaped (buffer reuse,
/// see Matrix::ResetShape) and fully overwritten.
void MatMulIntoImpl(Matrix* out, const Matrix& a, const Matrix& b,
                    bool transpose_a, bool transpose_b) {
  AHNTP_CHECK(out != &a && out != &b) << "MatMulInto cannot alias an input";
  const size_t m = transpose_a ? a.cols() : a.rows();
  const size_t k = transpose_a ? a.rows() : a.cols();
  const size_t k2 = transpose_b ? b.cols() : b.rows();
  const size_t n = transpose_b ? b.rows() : b.cols();
  AHNTP_CHECK_EQ(k, k2);
  const bool avx2 = simd::UseAvx2();
  if (transpose_a && (transpose_b || !avx2)) {
    // The scalar a^T forms (and a^T * b^T) materialize a^T (itself
    // row-parallel) and reuse the row-parallel kernels below at O(m*k)
    // extra traffic.
    MatMulIntoImpl(out, a.Transposed(), b, /*transpose_a=*/false,
                   transpose_b);
    return;
  }
  out->ResetShape(m, n);
  if (transpose_a) {
    // AVX2 reads a^T in place: each chunk owns output rows [r0, r1), i.e.
    // columns [r0, r1) of a, and accumulates into zeroed rows.
    out->Fill(0.0f);
    ParallelFor(0, m, kMatMulTNGrain, [&](size_t r0, size_t r1) {
      simd::MatMulBandTN(a.data(), b.data(), out->data(), r0, r1, k, m, n,
                         kMatMulKBlock);
    });
    return;
  }
  const size_t grain = GrainForCost(k * std::max<size_t>(n, 1));
  if (!transpose_b) {
    // The NN band kernel accumulates, so the reused buffer is zeroed first
    // (the NT kernel assigns every element and needs no clear).
    out->Fill(0.0f);
    ParallelFor(0, m, grain, [&](size_t r0, size_t r1) {
      if (avx2) {
        simd::MatMulBandNN(a.data(), b.data(), out->data(), r0, r1, k, n,
                           kMatMulKBlock);
      } else {
        MatMulRowBandNN(a, b, out, r0, r1);
      }
    });
  } else {
    ParallelFor(0, m, grain, [&](size_t r0, size_t r1) {
      if (avx2) {
        simd::MatMulBandNT(a.data(), b.data(), out->data(), r0, r1, k, n);
      } else {
        MatMulRowBandNT(a, b, out, r0, r1);
      }
    });
  }
}

void CountMatMul(const Matrix& a, const Matrix& b, bool transpose_a,
                 bool transpose_b) {
  const size_t m = transpose_a ? a.cols() : a.rows();
  const size_t k = transpose_a ? a.rows() : a.cols();
  const size_t n = transpose_b ? b.rows() : b.cols();
  AHNTP_METRIC_COUNT("tensor.matmul.calls", 1);
  AHNTP_METRIC_COUNT("tensor.matmul.flops",
                     static_cast<int64_t>(2 * m * k * n));
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b, bool transpose_a,
              bool transpose_b) {
  CountMatMul(a, b, transpose_a, transpose_b);
  Matrix out;
  MatMulIntoImpl(&out, a, b, transpose_a, transpose_b);
  return out;
}

void MatMulInto(Matrix* out, const Matrix& a, const Matrix& b,
                bool transpose_a, bool transpose_b) {
  AHNTP_CHECK(out != nullptr);
  CountMatMul(a, b, transpose_a, transpose_b);
  MatMulIntoImpl(out, a, b, transpose_a, transpose_b);
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row) {
  Matrix out;
  AddRowBroadcastInto(&out, a, row);
  return out;
}

Matrix RowSums(const Matrix& a) {
  Matrix out(a.rows(), 1);
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(a.cols()),
              [&](size_t r0, size_t r1) {
                for (size_t r = r0; r < r1; ++r) {
                  double acc = 0.0;
                  const float* row = a.RowPtr(r);
                  if (avx2) {
                    acc = simd::SumF64(row, a.cols());
                  } else {
                    for (size_t c = 0; c < a.cols(); ++c) acc += row[c];
                  }
                  out.At(r, 0) = static_cast<float>(acc);
                }
              });
  return out;
}

Matrix ColSums(const Matrix& a) {
  Matrix out(1, a.cols());
  // Parallel over column bands: each band's accumulators are private to its
  // chunk and every column still sums rows in ascending order.
  // Bands are at least one cache line (16 floats) wide: a band per column
  // would stream the whole matrix once per column.
  ParallelFor(0, a.cols(), std::max<size_t>(16, GrainForCost(a.rows())),
              [&](size_t c0, size_t c1) {
                for (size_t r = 0; r < a.rows(); ++r) {
                  const float* row = a.RowPtr(r);
                  float* orow = out.RowPtr(0);
                  for (size_t c = c0; c < c1; ++c) orow[c] += row[c];
                }
              });
  return out;
}

Matrix RowNorms(const Matrix& a, float epsilon) {
  Matrix out;
  RowNormsInto(&out, a, epsilon);
  return out;
}

Matrix ConcatCols(const std::vector<const Matrix*>& parts) {
  Matrix out;
  ConcatColsInto(&out, parts);
  return out;
}

Matrix ConcatRows(const std::vector<const Matrix*>& parts) {
  AHNTP_CHECK(!parts.empty());
  size_t cols = parts[0]->cols();
  size_t rows = 0;
  for (const Matrix* part : parts) {
    AHNTP_CHECK_EQ(part->cols(), cols);
    rows += part->rows();
  }
  Matrix out(rows, cols);
  size_t offset = 0;
  for (const Matrix* part : parts) {
    for (size_t r = 0; r < part->rows(); ++r) {
      const float* prow = part->RowPtr(r);
      float* orow = out.RowPtr(offset + r);
      for (size_t c = 0; c < cols; ++c) orow[c] = prow[c];
    }
    offset += part->rows();
  }
  return out;
}

Matrix GatherRows(const Matrix& a, const std::vector<int>& indices) {
  Matrix out;
  GatherRowsInto(&out, a, indices);
  return out;
}

// ---------------------------------------------------------------------------
// Out-parameter variants. Each reshapes `out` via ResetShape (buffer reuse,
// zero steady-state allocations) and performs the exact same per-element
// float operations as its allocating counterpart, in the same order, so the
// two families are bit-identical.
// ---------------------------------------------------------------------------

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b) {
  AHNTP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
}

}  // namespace

void AddInto(Matrix* out, const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  out->ResetShape(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, out->size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    if (avx2) {
      simd::AddF32(po + lo, pa + lo, pb + lo, hi - lo);
    } else {
      for (size_t i = lo; i < hi; ++i) po[i] = pa[i] + pb[i];
    }
  });
}

void SubInto(Matrix* out, const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  out->ResetShape(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, out->size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    if (avx2) {
      simd::SubF32(po + lo, pa + lo, pb + lo, hi - lo);
    } else {
      for (size_t i = lo; i < hi; ++i) po[i] = pa[i] - pb[i];
    }
  });
}

void HadamardInto(Matrix* out, const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  out->ResetShape(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, out->size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    if (avx2) {
      simd::MulF32(po + lo, pa + lo, pb + lo, hi - lo);
    } else {
      for (size_t i = lo; i < hi; ++i) po[i] = pa[i] * pb[i];
    }
  });
}

void ScaleInto(Matrix* out, const Matrix& a, float scalar) {
  out->ResetShape(a.rows(), a.cols());
  const float* pa = a.data();
  float* po = out->data();
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, out->size(), kElementwiseGrain, [=](size_t lo, size_t hi) {
    if (avx2) {
      simd::ScaleF32(po + lo, pa + lo, scalar, hi - lo);
    } else {
      for (size_t i = lo; i < hi; ++i) po[i] = pa[i] * scalar;
    }
  });
}

void AddScalarInto(Matrix* out, const Matrix& a, float scalar) {
  out->ResetShape(a.rows(), a.cols());
  const float* pa = a.data();
  float* po = out->data();
  if (simd::UseAvx2()) {
    simd::AddScalarF32(po, pa, scalar, out->size());
    return;
  }
  for (size_t i = 0; i < out->size(); ++i) po[i] = pa[i] + scalar;
}

void AddRowBroadcastInto(Matrix* out, const Matrix& a, const Matrix& row) {
  AHNTP_CHECK_EQ(row.rows(), 1u);
  AHNTP_CHECK_EQ(row.cols(), a.cols());
  out->ResetShape(a.rows(), a.cols());
  const float* brow = row.RowPtr(0);
  const bool avx2 = simd::UseAvx2();
  ParallelFor(0, a.rows(), GrainForCost(a.cols()),
              [out, &a, brow, avx2, cols = a.cols()](size_t r0, size_t r1) {
                for (size_t r = r0; r < r1; ++r) {
                  const float* arow = a.RowPtr(r);
                  float* orow = out->RowPtr(r);
                  if (avx2) {
                    simd::AddF32(orow, arow, brow, cols);
                  } else {
                    for (size_t c = 0; c < cols; ++c) {
                      orow[c] = arow[c] + brow[c];
                    }
                  }
                }
              });
}

void GatherRowsInto(Matrix* out, const Matrix& a,
                    const std::vector<int>& indices) {
  AHNTP_CHECK(out != &a) << "GatherRowsInto cannot alias its input";
  for (size_t i = 0; i < indices.size(); ++i) {
    AHNTP_CHECK(indices[i] >= 0 &&
                static_cast<size_t>(indices[i]) < a.rows());
  }
  out->ResetShape(indices.size(), a.cols());
  ParallelFor(0, indices.size(), GrainForCost(a.cols()),
              [&](size_t i0, size_t i1) {
                for (size_t i = i0; i < i1; ++i) {
                  const float* src = a.RowPtr(static_cast<size_t>(indices[i]));
                  float* dst = out->RowPtr(i);
                  for (size_t c = 0; c < a.cols(); ++c) dst[c] = src[c];
                }
              });
}

void ConcatColsInto(Matrix* out, const std::vector<const Matrix*>& parts) {
  AHNTP_CHECK(!parts.empty());
  size_t rows = parts[0]->rows();
  size_t cols = 0;
  for (const Matrix* part : parts) {
    AHNTP_CHECK(part != out) << "ConcatColsInto cannot alias an input";
    AHNTP_CHECK_EQ(part->rows(), rows);
    cols += part->cols();
  }
  out->ResetShape(rows, cols);
  ParallelFor(0, rows, GrainForCost(cols), [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      float* orow = out->RowPtr(r);
      size_t offset = 0;
      for (const Matrix* part : parts) {
        const float* prow = part->RowPtr(r);
        for (size_t c = 0; c < part->cols(); ++c) orow[offset + c] = prow[c];
        offset += part->cols();
      }
    }
  });
}

}  // namespace ahntp::tensor
