#include "models/guardian.h"

#include "common/check.h"
#include "models/graph_ops.h"

namespace ahntp::models {

Guardian::Guardian(const ModelInputs& inputs)
    : features_(autograd::Constant(*inputs.features)),
      out_op_(DirectedNormalizedAdjacency(*inputs.graph, /*incoming=*/false)),
      in_op_(DirectedNormalizedAdjacency(*inputs.graph, /*incoming=*/true)),
      out_dim_(inputs.hidden_dims.back()),
      dropout_(inputs.dropout),
      rng_(inputs.rng) {
  AHNTP_CHECK(inputs.features != nullptr && inputs.graph != nullptr &&
              inputs.rng != nullptr);
  size_t in_dim = inputs.features->cols();
  for (size_t out : inputs.hidden_dims) {
    out_weights_.push_back(
        std::make_unique<nn::Linear>(in_dim, out, inputs.rng));
    in_weights_.push_back(std::make_unique<nn::Linear>(in_dim, out,
                                                       inputs.rng,
                                                       /*use_bias=*/false));
    in_dim = out;
  }
}

autograd::Variable Guardian::EncodeUsers() {
  autograd::Variable h = features_;
  for (size_t i = 0; i < out_weights_.size(); ++i) {
    autograd::Variable forward =
        out_weights_[i]->Forward(autograd::SpMMConst(out_op_, h));
    autograd::Variable backward =
        in_weights_[i]->Forward(autograd::SpMMConst(in_op_, h));
    h = autograd::Relu(autograd::Add(forward, backward));
    if (i + 1 < out_weights_.size()) {
      h = autograd::Dropout(h, dropout_, rng_, training_);
    }
  }
  return h;
}

std::vector<autograd::Variable> Guardian::Parameters() const {
  std::vector<autograd::Variable> params;
  for (const auto& layer : out_weights_) {
    for (auto& p : layer->Parameters()) params.push_back(p);
  }
  for (const auto& layer : in_weights_) {
    for (auto& p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<nn::Module*> Guardian::Submodules() {
  std::vector<nn::Module*> subs;
  for (const auto& layer : out_weights_) subs.push_back(layer.get());
  for (const auto& layer : in_weights_) subs.push_back(layer.get());
  return subs;
}

}  // namespace ahntp::models
