#include "models/atne_trust.h"

#include "common/check.h"
#include "models/graph_ops.h"
#include "nn/init.h"

namespace ahntp::models {

AtneTrust::AtneTrust(const ModelInputs& inputs)
    : features_(autograd::Constant(*inputs.features)),
      adjacency_op_(SymmetricNormalizedAdjacency(*inputs.graph)),
      out_dim_(inputs.hidden_dims.back()),
      last_reconstruction_(autograd::Constant(tensor::Matrix(1, 1))) {
  AHNTP_CHECK(inputs.features != nullptr && inputs.graph != nullptr &&
              inputs.rng != nullptr);
  const size_t c = inputs.features->cols();
  const size_t mid = inputs.hidden_dims.size() >= 2
                         ? inputs.hidden_dims[inputs.hidden_dims.size() - 2]
                         : inputs.hidden_dims.back() * 2;
  const size_t d = inputs.hidden_dims.back();
  attr_encoder_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{c, mid, d}, inputs.rng, nn::Activation::kRelu);
  attr_decoder_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{d, mid, c}, inputs.rng, nn::Activation::kRelu);
  structure_table_ = autograd::Parameter(
      nn::XavierUniform(inputs.graph->num_nodes(), d, inputs.rng));
  fusion_ = std::make_unique<nn::Linear>(2 * d, out_dim_, inputs.rng);
}

autograd::Variable AtneTrust::EncodeUsers() {
  autograd::Variable latent = attr_encoder_->Forward(features_);
  autograd::Variable reconstructed = attr_decoder_->Forward(latent);
  autograd::Variable err = autograd::Sub(reconstructed, features_);
  last_reconstruction_ = autograd::ReduceMean(autograd::Mul(err, err));
  autograd::Variable structure =
      autograd::SpMMConst(adjacency_op_, structure_table_);
  autograd::Variable fused =
      fusion_->Forward(autograd::ConcatCols({latent, structure}));
  return autograd::Relu(fused);
}

std::vector<autograd::Variable> AtneTrust::Parameters() const {
  std::vector<autograd::Variable> params;
  for (auto& p : attr_encoder_->Parameters()) params.push_back(p);
  for (auto& p : attr_decoder_->Parameters()) params.push_back(p);
  params.push_back(structure_table_);
  for (auto& p : fusion_->Parameters()) params.push_back(p);
  return params;
}

}  // namespace ahntp::models
