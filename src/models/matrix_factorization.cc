#include "models/matrix_factorization.h"

#include "common/check.h"
#include "nn/init.h"

namespace ahntp::models {

MatrixFactorization::MatrixFactorization(const ModelInputs& inputs)
    : rank_(inputs.hidden_dims.back()) {
  AHNTP_CHECK(inputs.graph != nullptr && inputs.rng != nullptr);
  const size_t n = inputs.graph->num_nodes();
  trustor_ = autograd::Parameter(nn::XavierUniform(n, rank_, inputs.rng));
  trustee_ = autograd::Parameter(nn::XavierUniform(n, rank_, inputs.rng));
}

autograd::Variable MatrixFactorization::EncodeUsers() {
  return autograd::ConcatCols({trustor_, trustee_});
}

}  // namespace ahntp::models
