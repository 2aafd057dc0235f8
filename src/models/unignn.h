#ifndef AHNTP_MODELS_UNIGNN_H_
#define AHNTP_MODELS_UNIGNN_H_

#include <memory>

#include "models/encoder.h"
#include "nn/init.h"
#include "nn/linear.h"

namespace ahntp::models {

/// Shared UniGNN plumbing: mean aggregation operators between vertices and
/// hyperedges, built once from the incidence structure.
struct UniOperators {
  tensor::CsrMatrix edge_mean;    // (m x n): D_e^{-1} H^T  — vertex -> edge
  tensor::CsrMatrix vertex_mean;  // (n x m): degree-normalized edge->vertex operator
  hypergraph::Hypergraph::IncidencePairs pairs;
  size_t num_vertices = 0;
  size_t num_edges = 0;
};
UniOperators BuildUniOperators(const hypergraph::Hypergraph& hg);

/// UniGCN baseline (Huang & Yang, IJCAI'21): per layer
///   h_e = mean_{v in e} x_v;  x_v' = ReLU(mean_{e ∋ v} h_e W).
class UniGcn : public Encoder {
 public:
  explicit UniGcn(const ModelInputs& inputs);

  autograd::Variable EncodeUsers() override;
  size_t embedding_dim() const override { return out_dim_; }
  std::string name() const override { return "UniGCN"; }
  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

 private:
  autograd::Variable features_;
  UniOperators ops_;
  std::vector<std::unique_ptr<nn::Linear>> layers_;
  size_t out_dim_;
  float dropout_;
  Rng* rng_;
};

/// UniGAT baseline: UniGCN's aggregation with attention over the
/// (vertex, hyperedge) incidence pairs replacing the plain vertex-side mean.
class UniGat : public Encoder {
 public:
  explicit UniGat(const ModelInputs& inputs);

  autograd::Variable EncodeUsers() override;
  size_t embedding_dim() const override { return out_dim_; }
  std::string name() const override { return "UniGAT"; }
  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

 private:
  autograd::Variable features_;
  UniOperators ops_;
  std::vector<std::unique_ptr<nn::Linear>> transforms_;
  std::vector<autograd::Variable> attn_vertex_;  // per layer, d x 1
  std::vector<autograd::Variable> attn_edge_;    // per layer, d x 1
  size_t out_dim_;
  float dropout_;
  float leaky_slope_ = 0.2f;
  Rng* rng_;
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_UNIGNN_H_
