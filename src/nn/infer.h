#ifndef AHNTP_NN_INFER_H_
#define AHNTP_NN_INFER_H_

#include "nn/linear.h"
#include "nn/mlp.h"
#include "tensor/workspace.h"

namespace ahntp::nn {

// ---------------------------------------------------------------------------
// Tape-free inference entry points.
//
// Each runs a layer's eval-mode forward pass directly on tensor buffers:
// no autograd::Node allocations, no tape, no dropout. All math goes
// through the same tensor kernels as the Variable path (tensor/kernels.h),
// so the results are bit-identical to Forward() on a module in eval mode.
//
// Returned references point into `ws`; they stay valid until the
// workspace's next Reset(). A steady-state loop that repeats the same
// call sequence per iteration is allocation-free once warmed. That is what
// the plan's scoring chain and AHNTP's row-restricted refresh need; an
// all-user encode runs the module's Forward under autograd::InferenceMode
// instead (models::Encoder::InferUsers).
// ---------------------------------------------------------------------------

/// y = x * W (+ bias). Returns a workspace buffer of shape
/// (x.rows() x out_features).
tensor::Matrix& InferLinear(const Linear& layer, const tensor::Matrix& x,
                            tensor::Workspace* ws);

/// Applies `act` to `m` in place (kNone is a no-op).
void InferActivationInPlace(tensor::Matrix* m, Activation act,
                            float leaky_slope = 0.2f);

/// Full MLP forward in eval semantics (dropout skipped — exactly what the
/// tape does when training is off, so no RNG is drawn either way).
tensor::Matrix& InferMlp(const Mlp& mlp, const tensor::Matrix& x,
                         tensor::Workspace* ws);

}  // namespace ahntp::nn

#endif  // AHNTP_NN_INFER_H_
