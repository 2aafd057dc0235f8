#ifndef AHNTP_TENSOR_QUANT_H_
#define AHNTP_TENSOR_QUANT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace ahntp::tensor {

/// Per-row symmetric int8 calibration: absmax[r] is the largest |x| seen in
/// row r of the activations being quantized. scale(r) = absmax[r] / 127, so
/// dequantization error is bounded by scale(r) / 2 per element.
struct RowCalibration {
  std::vector<float> absmax;

  size_t rows() const { return absmax.size(); }
};

/// Computes per-row absmax over `activations`. InvalidArgument when any
/// element is non-finite (a NaN/Inf absmax would silently zero or saturate
/// the whole row at quantization time).
Result<RowCalibration> CalibrateRowAbsmax(const Matrix& activations);

/// Validates externally supplied calibration stats before they are trusted:
/// the row count must match and every absmax must be finite and >= 0.
/// InvalidArgument otherwise — ingestion callers surface this instead of
/// crashing on fuzzed input.
Status ValidateCalibration(const RowCalibration& calib, size_t rows);

/// Row-major int8 matrix with one float scale per row (symmetric range,
/// zero-point-free): x ~= q * scale. All-zero rows get scale 0 and quantize
/// to exact zeros. Values saturate at +/-127 (never -128, keeping the range
/// symmetric).
class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;

  /// Quantizes `m` row by row using `calib` (which must already be
  /// validated against m.rows()). q = clamp(round(x * 127 / absmax)).
  static QuantizedMatrix Quantize(const Matrix& m, const RowCalibration& calib);

  /// Reassembles a matrix from serialized parts (the spill-block reader).
  /// Sizes must already be validated by the caller.
  static QuantizedMatrix FromParts(size_t rows, size_t cols,
                                   std::vector<int8_t> data,
                                   std::vector<float> scales);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Payload + scales, the spill/residency accounting unit.
  size_t bytes() const {
    return data_.size() * sizeof(int8_t) + scales_.size() * sizeof(float);
  }

  const int8_t* RowData(size_t r) const { return data_.data() + r * cols_; }
  const int8_t* data() const { return data_.data(); }
  const std::vector<float>& scales() const { return scales_; }
  float scale(size_t r) const { return scales_[r]; }

  /// Requantizes row r in place from `src` (cols() floats) with a fresh
  /// `absmax`. Runs exactly the Quantize() row loop, so a table patched row
  /// by row is bitwise-identical to a fresh Quantize() of the patched float
  /// table under the matching calibration — the invariant the dynamic
  /// delta-refresh path (DESIGN.md §17) relies on.
  void UpdateRow(size_t r, const float* src, float absmax);

  /// Dequantizes row r into dst[0, cols): dst[c] = q[c] * scale(r).
  void DequantizeRowInto(size_t r, float* dst) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<int8_t> data_;
  std::vector<float> scales_;
};

}  // namespace ahntp::tensor

#endif  // AHNTP_TENSOR_QUANT_H_
