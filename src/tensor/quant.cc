#include "tensor/quant.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ahntp::tensor {

Result<RowCalibration> CalibrateRowAbsmax(const Matrix& activations) {
  RowCalibration calib;
  calib.absmax.assign(activations.rows(), 0.0f);
  for (size_t r = 0; r < activations.rows(); ++r) {
    const float* row = activations.RowPtr(r);
    float best = 0.0f;
    for (size_t c = 0; c < activations.cols(); ++c) {
      if (!std::isfinite(row[c])) {
        return Status::InvalidArgument(
            "non-finite activation at row " + std::to_string(r) +
            " during int8 calibration");
      }
      best = std::max(best, std::fabs(row[c]));
    }
    calib.absmax[r] = best;
  }
  return calib;
}

Status ValidateCalibration(const RowCalibration& calib, size_t rows) {
  if (calib.absmax.size() != rows) {
    return Status::InvalidArgument(
        "calibration covers " + std::to_string(calib.absmax.size()) +
        " rows, embedding table has " + std::to_string(rows));
  }
  for (size_t r = 0; r < calib.absmax.size(); ++r) {
    float v = calib.absmax[r];
    if (!std::isfinite(v) || v < 0.0f) {
      return Status::InvalidArgument(
          "calibration absmax[" + std::to_string(r) +
          "] is not a finite non-negative value");
    }
  }
  return Status::Ok();
}

QuantizedMatrix QuantizedMatrix::Quantize(const Matrix& m,
                                          const RowCalibration& calib) {
  AHNTP_CHECK_EQ(calib.absmax.size(), m.rows());
  QuantizedMatrix out;
  out.rows_ = m.rows();
  out.cols_ = m.cols();
  out.data_.resize(m.size());
  out.scales_.resize(m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    const float absmax = calib.absmax[r];
    out.scales_[r] = absmax / 127.0f;
    const float inv = absmax > 0.0f ? 127.0f / absmax : 0.0f;
    const float* src = m.RowPtr(r);
    int8_t* dst = out.data_.data() + r * m.cols();
    for (size_t c = 0; c < m.cols(); ++c) {
      // lrintf rounds to nearest-even; the clamp covers rows quantized with
      // a stale (too small) absmax, saturating at the symmetric +/-127.
      long q = std::lrintf(src[c] * inv);
      q = std::min<long>(127, std::max<long>(-127, q));
      dst[c] = static_cast<int8_t>(q);
    }
  }
  return out;
}

QuantizedMatrix QuantizedMatrix::FromParts(size_t rows, size_t cols,
                                           std::vector<int8_t> data,
                                           std::vector<float> scales) {
  AHNTP_CHECK_EQ(data.size(), rows * cols);
  AHNTP_CHECK_EQ(scales.size(), rows);
  QuantizedMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.data_ = std::move(data);
  out.scales_ = std::move(scales);
  return out;
}

void QuantizedMatrix::UpdateRow(size_t r, const float* src, float absmax) {
  AHNTP_CHECK(r < rows_);
  scales_[r] = absmax / 127.0f;
  const float inv = absmax > 0.0f ? 127.0f / absmax : 0.0f;
  int8_t* dst = data_.data() + r * cols_;
  for (size_t c = 0; c < cols_; ++c) {
    long q = std::lrintf(src[c] * inv);
    q = std::min<long>(127, std::max<long>(-127, q));
    dst[c] = static_cast<int8_t>(q);
  }
}

void QuantizedMatrix::DequantizeRowInto(size_t r, float* dst) const {
  AHNTP_DCHECK(r < rows_);
  const float scale = scales_[r];
  const int8_t* src = data_.data() + r * cols_;
  for (size_t c = 0; c < cols_; ++c) {
    dst[c] = static_cast<float>(src[c]) * scale;
  }
}

}  // namespace ahntp::tensor
