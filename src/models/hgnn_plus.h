#ifndef AHNTP_MODELS_HGNN_PLUS_H_
#define AHNTP_MODELS_HGNN_PLUS_H_

#include <memory>

#include "models/conv_layers.h"
#include "models/encoder.h"

namespace ahntp::models {

/// HGNN+ baseline (Gao et al., TPAMI'23): spectral hypergraph convolution
///   H' = ReLU(D_v^{-1/2} H W D_e^{-1} H^T D_v^{-1/2} H Theta)
/// stacked over the configured dims; the hyperedge-group weights W are fixed
/// to the hypergraph's edge weights (the trainable modality-mixing weights
/// of the original collapse to this in the single-modality setting here).
class HgnnPlus : public Encoder {
 public:
  explicit HgnnPlus(const ModelInputs& inputs);

  autograd::Variable EncodeUsers() override;
  size_t embedding_dim() const override { return out_dim_; }
  std::string name() const override { return "HGNN+"; }
  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

 private:
  autograd::Variable features_;
  std::vector<std::unique_ptr<SparseConvLayer>> layers_;
  size_t out_dim_;
  float dropout_;
  Rng* rng_;
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_HGNN_PLUS_H_
