#ifndef AHNTP_TENSOR_KERNELS_H_
#define AHNTP_TENSOR_KERNELS_H_

#include <vector>

#include "tensor/matrix.h"

namespace ahntp::tensor {

// ---------------------------------------------------------------------------
// Shared forward-math kernels.
//
// These free functions are the single implementation of every op's forward
// pass: the tape-building autograd ops (autograd/ops.cc) and the tape-free
// inference entry points (nn/infer.h, models/inference_plan.h) both call
// them, so the two forward paths cannot numerically diverge — parity is
// structural, not tested-into-existence (the parity gate in
// scripts/check_inference.sh then enforces it end to end).
//
// Every kernel reshapes `out` via Matrix::ResetShape (buffer reuse — zero
// heap allocations once warmed) and fully overwrites it. `out` may alias
// `a` for the elementwise kernels; the row/segment kernels note their own
// aliasing rules.
// ---------------------------------------------------------------------------

/// out = max(a, 0).
void ReluInto(Matrix* out, const Matrix& a);

/// out = a, negative entries scaled by `negative_slope`.
void LeakyReluInto(Matrix* out, const Matrix& a, float negative_slope);

/// out = 1 / (1 + exp(-a)).
void SigmoidInto(Matrix* out, const Matrix& a);

/// out = tanh(a).
void TanhInto(Matrix* out, const Matrix& a);

/// out = exp(a).
void ExpInto(Matrix* out, const Matrix& a);

/// out = log(max(a, epsilon)).
void LogInto(Matrix* out, const Matrix& a, float epsilon);

/// out = clamp(a, lo, hi).
void ClampInto(Matrix* out, const Matrix& a, float lo, float hi);

/// out = sqrt(max(a, epsilon)).
void SqrtInto(Matrix* out, const Matrix& a, float epsilon);

/// out = |a|.
void AbsInto(Matrix* out, const Matrix& a);

/// out = max(a, epsilon)^exponent.
void PowScalarInto(Matrix* out, const Matrix& a, float exponent,
                   float epsilon);

/// Scales row r of `a` by col(r, 0); col is (rows x 1).
void MulColBroadcastInto(Matrix* out, const Matrix& a, const Matrix& col);

/// Multiplies every row of `a` elementwise by `row` (1 x cols).
void MulRowBroadcastInto(Matrix* out, const Matrix& a, const Matrix& row);

/// Per-row L2 norms (sqrt(sum sq + epsilon)) as a rows x 1 matrix.
void RowNormsInto(Matrix* out, const Matrix& a, float epsilon);

/// Divides each row of `a` by norms(r, 0); `norms` is RowNormsInto output.
void DivRowsByNormsInto(Matrix* out, const Matrix& a, const Matrix& norms);

/// out(r, 0) = dot(a.row(r), b.row(r)); shapes must match.
void RowwiseDotInto(Matrix* out, const Matrix& a, const Matrix& b);

/// Row-wise softmax over columns.
void RowSoftmaxInto(Matrix* out, const Matrix& a);

/// out.row(s) = sum of rows r with segments[r] == s. Segment ids must lie
/// in [0, num_segments). `out` must not alias `a`.
void SegmentSumInto(Matrix* out, const Matrix& a,
                    const std::vector<int>& segments, size_t num_segments);

/// Like SegmentSumInto but divides by segment size (empty segments stay 0).
/// When `counts` is non-null it receives the per-segment sizes.
void SegmentMeanInto(Matrix* out, const Matrix& a,
                     const std::vector<int>& segments, size_t num_segments,
                     std::vector<float>* counts = nullptr);

/// Softmax of a column vector within each segment; `a` must be (n x 1).
/// `out` must not alias `a`.
void SegmentSoftmaxInto(Matrix* out, const Matrix& a,
                        const std::vector<int>& segments,
                        size_t num_segments);

/// CHECK-fails unless all segment ids lie in [0, num_segments) and
/// segments.size() == num_rows. Shared precondition of the segment ops.
void CheckSegments(const std::vector<int>& segments, size_t num_rows,
                   size_t num_segments);

}  // namespace ahntp::tensor

#endif  // AHNTP_TENSOR_KERNELS_H_
