#include "models/sgc.h"

#include "common/check.h"
#include "models/graph_ops.h"

namespace ahntp::models {

namespace {

tensor::Matrix Propagate(const ModelInputs& inputs, int steps) {
  AHNTP_CHECK(inputs.features != nullptr && inputs.graph != nullptr);
  AHNTP_CHECK_GE(steps, 1);
  tensor::CsrMatrix op = SymmetricNormalizedAdjacency(*inputs.graph);
  tensor::Matrix x = *inputs.features;
  for (int k = 0; k < steps; ++k) x = tensor::SpMM(op, x);
  return x;
}

}  // namespace

Sgc::Sgc(const ModelInputs& inputs, int propagation_steps)
    : propagated_(autograd::Constant(Propagate(inputs, propagation_steps))),
      linear_(inputs.features->cols(), inputs.hidden_dims.back(),
              inputs.rng) {}

autograd::Variable Sgc::EncodeUsers() {
  return linear_.Forward(propagated_);
}

}  // namespace ahntp::models
