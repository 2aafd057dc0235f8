#include "models/gat.h"

#include "common/check.h"

namespace ahntp::models {

Gat::Gat(const ModelInputs& inputs)
    : features_(autograd::Constant(*inputs.features)),
      out_dim_(inputs.hidden_dims.back()),
      dropout_(inputs.dropout),
      rng_(inputs.rng) {
  AHNTP_CHECK(inputs.features != nullptr && inputs.graph != nullptr &&
              inputs.rng != nullptr);
  AHNTP_CHECK(!inputs.hidden_dims.empty());
  AttentionEdges edges = BuildAttentionEdges(*inputs.graph);
  size_t in_dim = inputs.features->cols();
  for (size_t out : inputs.hidden_dims) {
    layers_.push_back(std::make_unique<GatLayer>(
        edges, inputs.graph->num_nodes(), in_dim, out, inputs.rng));
    in_dim = out;
  }
}

autograd::Variable Gat::EncodeUsers() {
  autograd::Variable h = features_;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) {
      h = autograd::Relu(h);
      h = autograd::Dropout(h, dropout_, rng_, training_);
    }
  }
  return h;
}

std::vector<autograd::Variable> Gat::Parameters() const {
  std::vector<autograd::Variable> params;
  for (const auto& layer : layers_) {
    for (auto& p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<nn::Module*> Gat::Submodules() {
  std::vector<nn::Module*> subs;
  for (const auto& layer : layers_) subs.push_back(layer.get());
  return subs;
}

}  // namespace ahntp::models
