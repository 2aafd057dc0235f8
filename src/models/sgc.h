#ifndef AHNTP_MODELS_SGC_H_
#define AHNTP_MODELS_SGC_H_

#include "models/encoder.h"
#include "nn/linear.h"

namespace ahntp::models {

/// SGC baseline (Wu et al.): collapses GCN into one linear map over the
/// k-step propagated features A_hat^k X, which are precomputed once at
/// construction.
class Sgc : public Encoder {
 public:
  /// `propagation_steps` is SGC's k (default 2, the paper's common choice).
  explicit Sgc(const ModelInputs& inputs, int propagation_steps = 2);

  autograd::Variable EncodeUsers() override;
  size_t embedding_dim() const override { return linear_.out_features(); }
  std::string name() const override { return "SGC"; }
  std::vector<autograd::Variable> Parameters() const override {
    return linear_.Parameters();
  }
  std::vector<nn::Module*> Submodules() override { return {&linear_}; }

 private:
  autograd::Variable propagated_;  // A_hat^k X, constant
  nn::Linear linear_;
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_SGC_H_
