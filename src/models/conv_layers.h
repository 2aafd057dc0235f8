#ifndef AHNTP_MODELS_CONV_LAYERS_H_
#define AHNTP_MODELS_CONV_LAYERS_H_

#include <vector>

#include "autograd/ops.h"
#include "models/graph_ops.h"
#include "nn/linear.h"

namespace ahntp::models {

/// Generic propagation layer Y = act(Op * X * W + b) for a fixed sparse
/// operator Op (GCN's A_hat, a directed transition, a hypergraph spectral
/// adjacency, ...).
class SparseConvLayer : public nn::Module {
 public:
  SparseConvLayer(tensor::CsrMatrix op, size_t in_features,
                  size_t out_features, Rng* rng);

  autograd::Variable Forward(const autograd::Variable& x) const;

  std::vector<autograd::Variable> Parameters() const override {
    return linear_.Parameters();
  }
  std::vector<nn::Module*> Submodules() override { return {&linear_}; }

 private:
  tensor::CsrMatrix op_;
  nn::Linear linear_;
};

/// Single-head graph attention layer (Velickovic et al.), built on segment
/// ops over an edge-pair list: score(i <- j) = LeakyReLU(a_d^T Wh_i +
/// a_s^T Wh_j), softmax over j per destination i, output = sum_j alpha Wh_j.
class GatLayer : public nn::Module {
 public:
  GatLayer(AttentionEdges edges, size_t num_nodes, size_t in_features,
           size_t out_features, Rng* rng, float leaky_slope = 0.2f);

  autograd::Variable Forward(const autograd::Variable& x) const;

  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override { return {&transform_}; }

 private:
  AttentionEdges edges_;
  size_t num_nodes_;
  nn::Linear transform_;
  autograd::Variable attn_src_;  // out x 1
  autograd::Variable attn_dst_;  // out x 1
  float leaky_slope_;
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_CONV_LAYERS_H_
