#include "models/unignn.h"

#include <cmath>

#include "common/check.h"

namespace ahntp::models {

using autograd::Variable;

UniOperators BuildUniOperators(const hypergraph::Hypergraph& hg) {
  UniOperators ops;
  ops.num_vertices = hg.num_vertices();
  ops.num_edges = hg.num_edges();
  tensor::CsrMatrix incidence = hg.Incidence();
  ops.edge_mean = incidence.Transposed().RowNormalized();
  // UniGCN's vertex-side aggregation uses GCN-style degree normalization:
  //   x_i' = (1/sqrt(d_i)) sum_{e ∋ i} (1/sqrt(dbar_e)) W h_e,
  // where d_i = #edges of vertex i and dbar_e = average vertex degree over
  // the members of e (Huang & Yang, Eq. UniGCN).
  std::vector<int> vertex_edge_counts = hg.VertexEdgeCounts();
  std::vector<float> avg_edge_degree(hg.num_edges(), 0.0f);
  for (size_t e = 0; e < hg.num_edges(); ++e) {
    double acc = 0.0;
    for (int v : hg.EdgeVertices(e)) {
      acc += vertex_edge_counts[static_cast<size_t>(v)];
    }
    avg_edge_degree[e] =
        static_cast<float>(acc / static_cast<double>(hg.EdgeDegree(e)));
  }
  std::vector<tensor::Triplet> triplets;
  triplets.reserve(hg.TotalIncidences());
  for (size_t e = 0; e < hg.num_edges(); ++e) {
    float edge_scale = avg_edge_degree[e] > 0.0f
                           ? 1.0f / std::sqrt(avg_edge_degree[e])
                           : 0.0f;
    for (int v : hg.EdgeVertices(e)) {
      int d = vertex_edge_counts[static_cast<size_t>(v)];
      float vertex_scale =
          d > 0 ? 1.0f / std::sqrt(static_cast<float>(d)) : 0.0f;
      triplets.push_back({v, static_cast<int>(e), vertex_scale * edge_scale});
    }
  }
  ops.vertex_mean = tensor::CsrMatrix::FromTriplets(
      hg.num_vertices(), hg.num_edges(), std::move(triplets));
  ops.pairs = hg.Pairs();
  return ops;
}

UniGcn::UniGcn(const ModelInputs& inputs)
    : features_(autograd::Constant(*inputs.features)),
      ops_(BuildUniOperators(*inputs.hypergraph)),
      out_dim_(inputs.hidden_dims.back()),
      dropout_(inputs.dropout),
      rng_(inputs.rng) {
  AHNTP_CHECK(inputs.features != nullptr && inputs.hypergraph != nullptr &&
              inputs.rng != nullptr);
  size_t in_dim = inputs.features->cols();
  for (size_t out : inputs.hidden_dims) {
    layers_.push_back(std::make_unique<nn::Linear>(in_dim, out, inputs.rng));
    in_dim = out;
  }
}

Variable UniGcn::EncodeUsers() {
  Variable h = features_;
  for (size_t i = 0; i < layers_.size(); ++i) {
    Variable edge_feat = autograd::SpMMConst(ops_.edge_mean, h);
    Variable vertex_feat = autograd::SpMMConst(
        ops_.vertex_mean, layers_[i]->Forward(edge_feat));
    h = autograd::Relu(vertex_feat);
    if (i + 1 < layers_.size()) {
      h = autograd::Dropout(h, dropout_, rng_, training_);
    }
  }
  return h;
}

std::vector<Variable> UniGcn::Parameters() const {
  std::vector<Variable> params;
  for (const auto& layer : layers_) {
    for (auto& p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<nn::Module*> UniGcn::Submodules() {
  std::vector<nn::Module*> subs;
  for (const auto& layer : layers_) subs.push_back(layer.get());
  return subs;
}

UniGat::UniGat(const ModelInputs& inputs)
    : features_(autograd::Constant(*inputs.features)),
      ops_(BuildUniOperators(*inputs.hypergraph)),
      out_dim_(inputs.hidden_dims.back()),
      dropout_(inputs.dropout),
      rng_(inputs.rng) {
  AHNTP_CHECK(inputs.features != nullptr && inputs.hypergraph != nullptr &&
              inputs.rng != nullptr);
  size_t in_dim = inputs.features->cols();
  for (size_t out : inputs.hidden_dims) {
    transforms_.push_back(std::make_unique<nn::Linear>(in_dim, out, inputs.rng,
                                                       /*use_bias=*/false));
    attn_vertex_.push_back(
        autograd::Parameter(nn::XavierUniform(out, 1, inputs.rng)));
    attn_edge_.push_back(
        autograd::Parameter(nn::XavierUniform(out, 1, inputs.rng)));
    in_dim = out;
  }
}

Variable UniGat::EncodeUsers() {
  Variable h = features_;
  for (size_t i = 0; i < transforms_.size(); ++i) {
    Variable hx = transforms_[i]->Forward(h);  // n x d
    Variable he = autograd::SpMMConst(ops_.edge_mean, hx);  // m x d
    Variable hx_pairs = autograd::GatherRows(hx, ops_.pairs.vertex);
    Variable he_pairs = autograd::GatherRows(he, ops_.pairs.edge);
    Variable score = autograd::LeakyRelu(
        autograd::Add(autograd::MatMul(hx_pairs, attn_vertex_[i]),
                      autograd::MatMul(he_pairs, attn_edge_[i])),
        leaky_slope_);
    Variable alpha =
        autograd::SegmentSoftmax(score, ops_.pairs.vertex, ops_.num_vertices);
    Variable weighted = autograd::MulColBroadcast(he_pairs, alpha);
    h = autograd::Relu(
        autograd::SegmentSum(weighted, ops_.pairs.vertex, ops_.num_vertices));
    if (i + 1 < transforms_.size()) {
      h = autograd::Dropout(h, dropout_, rng_, training_);
    }
  }
  return h;
}

std::vector<Variable> UniGat::Parameters() const {
  std::vector<Variable> params;
  for (size_t i = 0; i < transforms_.size(); ++i) {
    for (auto& p : transforms_[i]->Parameters()) params.push_back(p);
    params.push_back(attn_vertex_[i]);
    params.push_back(attn_edge_[i]);
  }
  return params;
}

std::vector<nn::Module*> UniGat::Submodules() {
  std::vector<nn::Module*> subs;
  for (const auto& transform : transforms_) subs.push_back(transform.get());
  return subs;
}

}  // namespace ahntp::models
