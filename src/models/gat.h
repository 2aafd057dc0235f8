#ifndef AHNTP_MODELS_GAT_H_
#define AHNTP_MODELS_GAT_H_

#include <memory>

#include "models/conv_layers.h"
#include "models/encoder.h"

namespace ahntp::models {

/// GAT baseline (Section V-A.2(1)): stacked single-head graph attention
/// layers over the (undirected view of the) training trust graph.
class Gat : public Encoder {
 public:
  explicit Gat(const ModelInputs& inputs);

  autograd::Variable EncodeUsers() override;
  size_t embedding_dim() const override { return out_dim_; }
  std::string name() const override { return "GAT"; }
  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

 private:
  autograd::Variable features_;
  std::vector<std::unique_ptr<GatLayer>> layers_;
  size_t out_dim_;
  float dropout_;
  Rng* rng_;
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_GAT_H_
