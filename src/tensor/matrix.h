#ifndef AHNTP_TENSOR_MATRIX_H_
#define AHNTP_TENSOR_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/recycle.h"

namespace ahntp::tensor {

/// Dense row-major float32 matrix. The single dense container used by the
/// autograd engine, the neural-network layers, and the models. A row vector
/// is a 1xN matrix; a column vector is Nx1. Storage goes through
/// RecyclingAllocator, so large buffers are reused under a RecycleScope.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Matrix filled with `value`.
  Matrix(size_t rows, size_t cols, float value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Copies `data` (size must be rows*cols).
  Matrix(size_t rows, size_t cols, const std::vector<float>& data);

  /// Builds from nested initializer-style data; all rows must be equal width.
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Ones(size_t rows, size_t cols) {
    return Matrix(rows, cols, 1.0f);
  }
  /// Identity matrix of size n.
  static Matrix Identity(size_t n);
  /// I.i.d. normal entries with the given mean/stddev.
  static Matrix Randn(size_t rows, size_t cols, Rng* rng, float mean = 0.0f,
                      float stddev = 1.0f);
  /// I.i.d. uniform entries in [lo, hi).
  static Matrix RandUniform(size_t rows, size_t cols, Rng* rng, float lo,
                            float hi);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) {
    AHNTP_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    AHNTP_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float& operator()(size_t r, size_t c) { return At(r, c); }
  float operator()(size_t r, size_t c) const { return At(r, c); }

  float* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const float* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float value);
  /// Reshapes in place; total element count must be preserved.
  void Reshape(size_t rows, size_t cols);

  /// Re-shapes to rows x cols reusing the existing buffer: storage only
  /// grows when rows*cols exceeds capacity(), never shrinks, and the
  /// contents are unspecified afterwards. The resize primitive behind
  /// Workspace buffer reuse — steady-state callers pay zero allocations.
  void ResetShape(size_t rows, size_t cols);

  /// Allocated element capacity of the underlying buffer (>= size()).
  size_t capacity() const { return data_.capacity(); }

  /// Elementwise in-place updates (shapes must match for matrix args).
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float scalar);

  /// Frobenius-norm helpers and reductions.
  float Sum() const;
  float Mean() const;
  float MaxAbs() const;
  float FrobeniusNorm() const;

  /// Copies row r into a new 1 x cols matrix.
  Matrix RowCopy(size_t r) const;

  /// Returns the transpose.
  Matrix Transposed() const;

  /// True if shapes match and all entries differ by at most `tol`.
  bool AllClose(const Matrix& other, float tol = 1e-5f) const;

  /// Compact debug string ("Matrix 3x4 [...]"); rows/cols clipped for size.
  std::string DebugString(size_t max_entries = 16) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float, RecyclingAllocator<float>> data_;
};

/// out = a + b (shape-checked).
Matrix Add(const Matrix& a, const Matrix& b);
/// out = a - b.
Matrix Sub(const Matrix& a, const Matrix& b);
/// Elementwise product.
Matrix Hadamard(const Matrix& a, const Matrix& b);
/// out = a * scalar.
Matrix Scale(const Matrix& a, float scalar);

/// General matrix multiply with optional transposes:
/// out = op(a) * op(b), op(x) = x or x^T.
Matrix MatMul(const Matrix& a, const Matrix& b, bool transpose_a = false,
              bool transpose_b = false);

/// Adds `row` (1 x cols) to every row of `a` (broadcast).
Matrix AddRowBroadcast(const Matrix& a, const Matrix& row);

/// Column vector (rows x 1) of per-row sums.
Matrix RowSums(const Matrix& a);
/// Row vector (1 x cols) of per-column sums.
Matrix ColSums(const Matrix& a);

/// Per-row L2 norms as a rows x 1 matrix.
Matrix RowNorms(const Matrix& a, float epsilon = 1e-12f);

/// Concatenates matrices left-to-right; all must share the row count.
Matrix ConcatCols(const std::vector<const Matrix*>& parts);
/// Stacks matrices top-to-bottom; all must share the column count.
Matrix ConcatRows(const std::vector<const Matrix*>& parts);

/// Gathers rows: out.row(i) = a.row(indices[i]).
Matrix GatherRows(const Matrix& a, const std::vector<int>& indices);

// ---------------------------------------------------------------------------
// Out-parameter kernel variants. Each reshapes `out` in place (see
// Matrix::ResetShape — storage is reused, so warmed buffers cost zero heap
// allocations) and is bit-identical to its allocating counterpart. Unless
// noted, `out` may alias `a` for the elementwise forms only.
// ---------------------------------------------------------------------------

/// out = op(a) * op(b). `out` must not alias an input (CHECKed for every
/// form). Under AVX2, a^T * b reads a in place and is allocation-free once
/// `out` is warmed; the scalar a^T forms and a^T * b^T materialize a^T.
void MatMulInto(Matrix* out, const Matrix& a, const Matrix& b,
                bool transpose_a = false, bool transpose_b = false);

void AddInto(Matrix* out, const Matrix& a, const Matrix& b);
void SubInto(Matrix* out, const Matrix& a, const Matrix& b);
void HadamardInto(Matrix* out, const Matrix& a, const Matrix& b);
void ScaleInto(Matrix* out, const Matrix& a, float scalar);
void AddScalarInto(Matrix* out, const Matrix& a, float scalar);
/// out = a + row broadcast over rows; `out` may alias `a`.
void AddRowBroadcastInto(Matrix* out, const Matrix& a, const Matrix& row);
/// out.row(i) = a.row(indices[i]); `out` must not alias `a`.
void GatherRowsInto(Matrix* out, const Matrix& a,
                    const std::vector<int>& indices);
/// Concatenates left-to-right; `out` must not alias any part.
void ConcatColsInto(Matrix* out, const std::vector<const Matrix*>& parts);

}  // namespace ahntp::tensor

#endif  // AHNTP_TENSOR_MATRIX_H_
