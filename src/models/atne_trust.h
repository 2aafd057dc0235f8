#ifndef AHNTP_MODELS_ATNE_TRUST_H_
#define AHNTP_MODELS_ATNE_TRUST_H_

#include <memory>

#include "models/encoder.h"
#include "nn/mlp.h"

namespace ahntp::models {

/// AtNE-Trust baseline (Wang et al., ICDM'20): an attribute auto-encoder and
/// a structure embedding whose outputs a fusion layer combines. Pairwise
/// only — no high-order correlation, which is exactly why the paper expects
/// it to trail the graph/hypergraph methods.
///
/// Faithfulness notes (see DESIGN.md): the attribute branch is a proper
/// auto-encoder whose reconstruction error is exposed via AuxLoss(); the
/// structure branch embeds each user by propagating a trainable embedding
/// table one step over the (symmetric-normalized) adjacency, standing in for
/// the original's network-structure auto-encoder.
class AtneTrust : public Encoder {
 public:
  explicit AtneTrust(const ModelInputs& inputs);

  autograd::Variable EncodeUsers() override;
  size_t embedding_dim() const override { return out_dim_; }
  std::string name() const override { return "AtNE-Trust"; }
  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override {
    return {attr_encoder_.get(), attr_decoder_.get(), fusion_.get()};
  }

  bool HasAuxLoss() const override { return true; }
  autograd::Variable AuxLoss() const override { return last_reconstruction_; }

 private:
  autograd::Variable features_;
  tensor::CsrMatrix adjacency_op_;
  std::unique_ptr<nn::Mlp> attr_encoder_;
  std::unique_ptr<nn::Mlp> attr_decoder_;
  autograd::Variable structure_table_;  // n x d_struct trainable
  std::unique_ptr<nn::Linear> fusion_;
  size_t out_dim_;
  autograd::Variable last_reconstruction_;
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_ATNE_TRUST_H_
