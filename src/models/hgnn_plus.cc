#include "models/hgnn_plus.h"

#include "common/check.h"

namespace ahntp::models {

HgnnPlus::HgnnPlus(const ModelInputs& inputs)
    : features_(autograd::Constant(*inputs.features)),
      out_dim_(inputs.hidden_dims.back()),
      dropout_(inputs.dropout),
      rng_(inputs.rng) {
  AHNTP_CHECK(inputs.features != nullptr && inputs.hypergraph != nullptr &&
              inputs.rng != nullptr);
  tensor::CsrMatrix op = inputs.hypergraph->NormalizedAdjacency();
  size_t in_dim = inputs.features->cols();
  for (size_t out : inputs.hidden_dims) {
    layers_.push_back(
        std::make_unique<SparseConvLayer>(op, in_dim, out, inputs.rng));
    in_dim = out;
  }
}

autograd::Variable HgnnPlus::EncodeUsers() {
  autograd::Variable h = features_;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = autograd::Relu(layers_[i]->Forward(h));
    if (i + 1 < layers_.size()) {
      h = autograd::Dropout(h, dropout_, rng_, training_);
    }
  }
  return h;
}

std::vector<autograd::Variable> HgnnPlus::Parameters() const {
  std::vector<autograd::Variable> params;
  for (const auto& layer : layers_) {
    for (auto& p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<nn::Module*> HgnnPlus::Submodules() {
  std::vector<nn::Module*> subs;
  for (const auto& layer : layers_) subs.push_back(layer.get());
  return subs;
}

}  // namespace ahntp::models
