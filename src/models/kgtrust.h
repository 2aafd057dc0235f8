#ifndef AHNTP_MODELS_KGTRUST_H_
#define AHNTP_MODELS_KGTRUST_H_

#include <memory>

#include "models/encoder.h"
#include "nn/linear.h"

namespace ahntp::models {

/// KGTrust baseline (Yu et al., WWW'23): a knowledge-augmented GNN with a
/// discriminative convolution. The knowledge branch embeds each user's
/// item-interaction profile (category-level purchase histogram weighted by
/// ratings, learned projection); the discriminative convolution keeps
/// separate self and neighbour weights per layer:
///   H' = ReLU(H W_self + A_hat H W_nbr).
class KgTrust : public Encoder {
 public:
  explicit KgTrust(const ModelInputs& inputs);

  autograd::Variable EncodeUsers() override;
  size_t embedding_dim() const override { return out_dim_; }
  std::string name() const override { return "KGTrust"; }
  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

 private:
  autograd::Variable features_;
  autograd::Variable knowledge_;  // n x num_categories (ratings-weighted)
  tensor::CsrMatrix adjacency_op_;
  std::unique_ptr<nn::Linear> knowledge_proj_;
  std::vector<std::unique_ptr<nn::Linear>> self_weights_;
  std::vector<std::unique_ptr<nn::Linear>> nbr_weights_;
  size_t out_dim_;
  float dropout_;
  Rng* rng_;
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_KGTRUST_H_
