#ifndef AHNTP_MODELS_GUARDIAN_H_
#define AHNTP_MODELS_GUARDIAN_H_

#include <memory>

#include "models/encoder.h"
#include "nn/linear.h"

namespace ahntp::models {

/// Guardian baseline (Lin et al., INFOCOM'20): GCN layers that model trust
/// propagation along edge direction and trust aggregation against it. Each
/// layer combines an outgoing-normalized and an incoming-normalized
/// propagation with separate weights:
///   H' = ReLU(D_out^{-1} A H W_out + D_in^{-1} A^T H W_in).
class Guardian : public Encoder {
 public:
  explicit Guardian(const ModelInputs& inputs);

  autograd::Variable EncodeUsers() override;
  size_t embedding_dim() const override { return out_dim_; }
  std::string name() const override { return "Guardian"; }
  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

 private:
  autograd::Variable features_;
  tensor::CsrMatrix out_op_;
  tensor::CsrMatrix in_op_;
  std::vector<std::unique_ptr<nn::Linear>> out_weights_;
  std::vector<std::unique_ptr<nn::Linear>> in_weights_;
  size_t out_dim_;
  float dropout_;
  Rng* rng_;
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_GUARDIAN_H_
