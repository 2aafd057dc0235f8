#ifndef AHNTP_AUTOGRAD_OPS_H_
#define AHNTP_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"
#include "tensor/csr.h"

namespace ahntp::autograd {

// ---------------------------------------------------------------------------
// Dense linear algebra
// ---------------------------------------------------------------------------

/// C = A * B.
Variable MatMul(const Variable& a, const Variable& b);

/// Elementwise sum (shapes must match).
Variable Add(const Variable& a, const Variable& b);

/// Elementwise difference.
Variable Sub(const Variable& a, const Variable& b);

/// Elementwise product.
Variable Mul(const Variable& a, const Variable& b);

/// Elementwise product with a constant matrix (mask etc.).
Variable MulConst(const Variable& a, const tensor::Matrix& k);

/// a * scalar.
Variable Scale(const Variable& a, float scalar);

/// a + scalar (every entry).
Variable AddScalar(const Variable& a, float scalar);

/// Adds a 1 x cols bias row to every row of `a` (broadcast).
Variable AddRowBroadcast(const Variable& a, const Variable& bias);

/// Scales row i of `a` by col(i, 0); col is an (rows x 1) variable.
Variable MulColBroadcast(const Variable& a, const Variable& col);

// ---------------------------------------------------------------------------
// Sparse-times-dense (sparse operand is a constant, e.g. adjacency/incidence)
// ---------------------------------------------------------------------------

/// Y = S * X for a constant sparse S.
Variable SpMMConst(const tensor::CsrMatrix& s, const Variable& x);

/// Y = S^T * X for a constant sparse S (no transpose materialization).
Variable SpMMTransposedConst(const tensor::CsrMatrix& s, const Variable& x);

// ---------------------------------------------------------------------------
// Nonlinearities
// ---------------------------------------------------------------------------

Variable Relu(const Variable& a);
Variable LeakyRelu(const Variable& a, float negative_slope = 0.2f);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Exp(const Variable& a);
/// Natural log; inputs are clamped to >= epsilon for stability.
Variable Log(const Variable& a, float epsilon = 1e-12f);
/// Clamps values into [lo, hi]; gradient is zero outside the interval.
Variable Clamp(const Variable& a, float lo, float hi);

/// Elementwise square root of max(x, epsilon).
Variable Sqrt(const Variable& a, float epsilon = 1e-12f);

/// Elementwise absolute value; gradient is sign(x) (0 at 0).
Variable Abs(const Variable& a);

/// Elementwise x^p. Precondition: inputs strictly positive (clamped to
/// epsilon) — fractional exponents on negatives are undefined.
Variable PowScalar(const Variable& a, float exponent, float epsilon = 1e-12f);

/// Normalizes each row to zero mean / unit variance (LayerNorm core; the
/// affine gain/bias live in nn::LayerNorm).
Variable RowStandardize(const Variable& a, float epsilon = 1e-5f);

// ---------------------------------------------------------------------------
// Shape / selection
// ---------------------------------------------------------------------------

/// Concatenates variables left-to-right (same row count).
Variable ConcatCols(const std::vector<Variable>& parts);

/// out.row(i) = a.row(indices[i]); gradient scatter-adds back.
Variable GatherRows(const Variable& a, const std::vector<int>& indices);

// ---------------------------------------------------------------------------
// Segment operations (the primitives for hyperedge message passing and
// attention: rows are grouped by a segment id).
// ---------------------------------------------------------------------------

/// out.row(s) = sum of rows i with segments[i] == s. `segments` values must
/// lie in [0, num_segments).
Variable SegmentSum(const Variable& a, const std::vector<int>& segments,
                    size_t num_segments);

/// Like SegmentSum but divides by the segment size (empty segments stay 0).
Variable SegmentMean(const Variable& a, const std::vector<int>& segments,
                     size_t num_segments);

/// Softmax of a column vector within each segment: rows belonging to the
/// same segment are normalized to sum to 1. Precondition: a is (n x 1).
Variable SegmentSoftmax(const Variable& a, const std::vector<int>& segments,
                        size_t num_segments);

// ---------------------------------------------------------------------------
// Row-wise geometry
// ---------------------------------------------------------------------------

/// Divides each row by its L2 norm (plus epsilon).
Variable RowL2Normalize(const Variable& a, float epsilon = 1e-12f);

/// out(i, 0) = dot(a.row(i), b.row(i)). Shapes must match.
Variable RowwiseDot(const Variable& a, const Variable& b);

/// Cosine similarity of aligned rows: out(i,0) = cos(a.row(i), b.row(i)).
Variable PairwiseCosine(const Variable& a, const Variable& b,
                        float epsilon = 1e-12f);

/// Row-wise softmax over columns.
Variable RowSoftmax(const Variable& a);

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Sum of all entries -> 1x1.
Variable ReduceSum(const Variable& a);

/// Mean of all entries -> 1x1.
Variable ReduceMean(const Variable& a);

// ---------------------------------------------------------------------------
// Regularization
// ---------------------------------------------------------------------------

/// Inverted dropout; identity when !training, p == 0 or under an
/// InferenceMode scope.
Variable Dropout(const Variable& a, float p, Rng* rng, bool training);

}  // namespace ahntp::autograd

#endif  // AHNTP_AUTOGRAD_OPS_H_
