#include "models/kgtrust.h"

#include "common/check.h"
#include "models/graph_ops.h"

namespace ahntp::models {

namespace {

/// Ratings-weighted, L1-normalized purchase histogram over item categories:
/// the user-item "knowledge" profile.
tensor::Matrix BuildKnowledgeProfile(const data::SocialDataset& dataset) {
  tensor::Matrix profile(dataset.num_users,
                         static_cast<size_t>(dataset.num_item_categories));
  for (const data::Purchase& p : dataset.purchases) {
    int cat = dataset.item_categories[static_cast<size_t>(p.item)];
    profile.At(static_cast<size_t>(p.user), static_cast<size_t>(cat)) +=
        p.rating / 5.0f;
  }
  for (size_t u = 0; u < profile.rows(); ++u) {
    float total = 0.0f;
    for (size_t c = 0; c < profile.cols(); ++c) total += profile.At(u, c);
    if (total > 0.0f) {
      for (size_t c = 0; c < profile.cols(); ++c) profile.At(u, c) /= total;
    }
  }
  return profile;
}

}  // namespace

KgTrust::KgTrust(const ModelInputs& inputs)
    : features_(autograd::Constant(*inputs.features)),
      knowledge_(autograd::Constant(tensor::Matrix())),
      adjacency_op_(SymmetricNormalizedAdjacency(*inputs.graph)),
      out_dim_(inputs.hidden_dims.back()),
      dropout_(inputs.dropout),
      rng_(inputs.rng) {
  AHNTP_CHECK(inputs.features != nullptr && inputs.graph != nullptr &&
              inputs.dataset != nullptr && inputs.rng != nullptr);
  knowledge_ = autograd::Constant(BuildKnowledgeProfile(*inputs.dataset));
  const size_t knowledge_dim = inputs.hidden_dims.back() / 2;
  knowledge_proj_ = std::make_unique<nn::Linear>(
      knowledge_.cols(), knowledge_dim, inputs.rng);
  size_t in_dim = inputs.features->cols() + knowledge_dim;
  for (size_t out : inputs.hidden_dims) {
    self_weights_.push_back(
        std::make_unique<nn::Linear>(in_dim, out, inputs.rng));
    nbr_weights_.push_back(std::make_unique<nn::Linear>(in_dim, out,
                                                        inputs.rng,
                                                        /*use_bias=*/false));
    in_dim = out;
  }
}

autograd::Variable KgTrust::EncodeUsers() {
  autograd::Variable knowledge =
      autograd::Relu(knowledge_proj_->Forward(knowledge_));
  autograd::Variable h = autograd::ConcatCols({features_, knowledge});
  for (size_t i = 0; i < self_weights_.size(); ++i) {
    autograd::Variable self_term = self_weights_[i]->Forward(h);
    autograd::Variable nbr_term =
        nbr_weights_[i]->Forward(autograd::SpMMConst(adjacency_op_, h));
    h = autograd::Relu(autograd::Add(self_term, nbr_term));
    if (i + 1 < self_weights_.size()) {
      h = autograd::Dropout(h, dropout_, rng_, training_);
    }
  }
  return h;
}

std::vector<autograd::Variable> KgTrust::Parameters() const {
  std::vector<autograd::Variable> params = knowledge_proj_->Parameters();
  for (const auto& layer : self_weights_) {
    for (auto& p : layer->Parameters()) params.push_back(p);
  }
  for (const auto& layer : nbr_weights_) {
    for (auto& p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<nn::Module*> KgTrust::Submodules() {
  std::vector<nn::Module*> subs = {knowledge_proj_.get()};
  for (const auto& layer : self_weights_) subs.push_back(layer.get());
  for (const auto& layer : nbr_weights_) subs.push_back(layer.get());
  return subs;
}

}  // namespace ahntp::models
