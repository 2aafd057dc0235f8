#ifndef AHNTP_MODELS_ENCODER_H_
#define AHNTP_MODELS_ENCODER_H_

#include <string>
#include <vector>

#include "autograd/ops.h"
#include "data/dataset.h"
#include "graph/digraph.h"
#include "hypergraph/hypergraph.h"
#include "nn/module.h"

namespace ahntp::models {

/// Everything an encoder may consume. All models share the same `features`
/// (the paper's controlled-comparison protocol); graph models read `graph`
/// (the *training* trust graph — test edges are hidden), hypergraph models
/// read `hypergraph`, and KGTrust additionally reads `dataset` for its
/// user-item knowledge.
struct ModelInputs {
  const tensor::Matrix* features = nullptr;
  const graph::Digraph* graph = nullptr;
  const hypergraph::Hypergraph* hypergraph = nullptr;
  const data::SocialDataset* dataset = nullptr;
  /// Widths of the stacked conv layers; the paper's setting is 256-128-64.
  std::vector<size_t> hidden_dims = {256, 128, 64};
  float dropout = 0.1f;
  Rng* rng = nullptr;
};

/// A user encoder: produces an (num_users x d) embedding matrix on the
/// autograd tape. Implementations precompute their propagation operators at
/// construction and rebuild the tape on every EncodeUsers() call.
class Encoder : public nn::Module {
 public:
  /// Embeds all users. Respects Module::training() for dropout.
  virtual autograd::Variable EncodeUsers() = 0;

  /// Eval-mode embedding of all users: EncodeUsers() under an
  /// autograd::InferenceMode scope, so no tape is recorded, every
  /// intermediate is freed as soon as its handle drops, and dropout is the
  /// identity whatever training() says. Writes no training flags, and the
  /// result is bit-identical to EncodeUsers() with training off.
  tensor::Matrix InferUsers() {
    autograd::InferenceMode inference;
    return EncodeUsers().value();
  }

  /// Output embedding width.
  virtual size_t embedding_dim() const = 0;

  virtual std::string name() const = 0;

  /// Encoders with an auxiliary training objective (e.g. AtNE-Trust's
  /// reconstruction loss) override these; AuxLoss() is valid after the
  /// latest EncodeUsers() call and shares its tape.
  virtual bool HasAuxLoss() const { return false; }
  virtual autograd::Variable AuxLoss() const {
    return autograd::Constant(tensor::Matrix(1, 1));
  }
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_ENCODER_H_
