#include "core/adaptive_conv.h"

#include "common/check.h"
#include "nn/infer.h"
#include "nn/init.h"
#include "tensor/kernels.h"

namespace ahntp::core {

using autograd::Variable;

AdaptiveHypergraphConv::AdaptiveHypergraphConv(
    const hypergraph::Hypergraph& hg, size_t in_features, size_t out_features,
    Rng* rng, bool use_attention, float leaky_slope, size_t num_heads)
    : num_vertices_(hg.num_vertices()),
      num_edges_(hg.num_edges()),
      out_features_(out_features),
      use_attention_(use_attention),
      leaky_slope_(leaky_slope),
      edge_weight_(
          autograd::Parameter(tensor::Matrix(hg.num_edges(), 1, 1.0f))) {
  AHNTP_CHECK_GT(num_edges_, 0u) << "hypergraph has no hyperedges";
  AHNTP_CHECK_GE(num_heads, 1u);
  if (!use_attention) num_heads = 1;  // heads only differ through attention
  AHNTP_CHECK_EQ(out_features % num_heads, 0u)
      << "out_features must divide evenly across attention heads";
  const size_t head_dim = out_features / num_heads;
  for (size_t h = 0; h < num_heads; ++h) {
    Head head;
    head.transform = std::make_unique<nn::Linear>(in_features, head_dim, rng,
                                                  /*use_bias=*/false);
    head.attn_vertex =
        autograd::Parameter(nn::XavierUniform(head_dim, 1, rng));
    head.attn_edge = autograd::Parameter(nn::XavierUniform(head_dim, 1, rng));
    heads_.push_back(std::move(head));
  }
  tensor::CsrMatrix incidence = hg.Incidence();
  edge_mean_ = incidence.Transposed().RowNormalized();
  vertex_mean_ = incidence.RowNormalized();
  pairs_ = hg.Pairs();
}

Variable AdaptiveHypergraphConv::RunHead(
    const Head& head, const Variable& x, const Variable& h_e,
    tensor::Matrix* attention_sum) const {
  // Eqs. 14-16: shared-attention reweighting of incident hyperedges.
  Variable wh_e = head.transform->Forward(h_e);  // m x d_h
  Variable wx = head.transform->Forward(x);      // n x d_h
  Variable wx_pairs = autograd::GatherRows(wx, pairs_.vertex);
  Variable whe_pairs = autograd::GatherRows(wh_e, pairs_.edge);
  Variable score = autograd::LeakyRelu(
      autograd::Add(autograd::MatMul(wx_pairs, head.attn_vertex),
                    autograd::MatMul(whe_pairs, head.attn_edge)),
      leaky_slope_);
  Variable alpha =
      autograd::SegmentSoftmax(score, pairs_.vertex, num_vertices_);
  *attention_sum += alpha.value();
  Variable weighted = autograd::MulColBroadcast(whe_pairs, alpha);
  return autograd::SegmentSum(weighted, pairs_.vertex, num_vertices_);
}

Variable AdaptiveHypergraphConv::Forward(const Variable& x) const {
  AHNTP_CHECK_EQ(x.rows(), num_vertices_);
  // Step 1: Mess_e (Eq. 10) and the adaptive reweighting h_e (Eq. 11).
  Variable mess_e = autograd::SpMMConst(edge_mean_, x);
  Variable h_e = autograd::MulColBroadcast(mess_e, edge_weight_);

  if (!use_attention_) {
    // Eqs. 12-13: mean over incident hyperedges, then theta + ReLU.
    Variable mess_v = autograd::SpMMConst(vertex_mean_, h_e);
    return autograd::Relu(heads_.front().transform->Forward(mess_v));
  }

  tensor::Matrix attention_sum(pairs_.vertex.size(), 1);
  std::vector<Variable> head_outputs;
  head_outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    head_outputs.push_back(RunHead(head, x, h_e, &attention_sum));
  }
  attention_sum *= 1.0f / static_cast<float>(heads_.size());
  last_attention_ = attention_sum;
  Variable combined = head_outputs.size() == 1
                          ? head_outputs.front()
                          : autograd::ConcatCols(head_outputs);
  return autograd::Relu(combined);
}

tensor::Matrix& AdaptiveHypergraphConv::InferRows(
    const tensor::Matrix& x, const std::vector<int>& vertices,
    tensor::Workspace* ws) const {
  using tensor::Matrix;
  AHNTP_CHECK_EQ(x.rows(), num_vertices_);
  AHNTP_CHECK(!vertices.empty());
  const size_t nv = vertices.size();
  std::vector<int> vertex_local(num_vertices_, -1);
  for (size_t i = 0; i < nv; ++i) {
    int v = vertices[i];
    AHNTP_CHECK(v >= 0 && static_cast<size_t>(v) < num_vertices_);
    if (i > 0) {
      AHNTP_CHECK_GT(v, vertices[i - 1]);
    }
    vertex_local[v] = static_cast<int>(i);
  }

  // Active hyperedges: the union of the requested vertices' incidence
  // lists, ascending. Completeness per vertex is what keeps the restricted
  // softmax segments identical to the full pass.
  const std::vector<int>& vm_ptr = vertex_mean_.row_ptr();
  const std::vector<int>& vm_col = vertex_mean_.col_idx();
  std::vector<char> edge_mark(num_edges_, 0);
  for (int v : vertices) {
    for (int k = vm_ptr[v]; k < vm_ptr[v + 1]; ++k) edge_mark[vm_col[k]] = 1;
  }
  std::vector<int> active;
  std::vector<int> edge_local(num_edges_, -1);
  for (size_t e = 0; e < num_edges_; ++e) {
    if (edge_mark[e]) {
      edge_local[e] = static_cast<int>(active.size());
      active.push_back(static_cast<int>(e));
    }
  }
  if (active.empty()) {
    // All requested vertices are isolated in this hypergraph: the full pass
    // aggregates nothing for them and ReLU(0) = 0.
    Matrix* out = ws->Acquire(nv, out_features_);
    out->Fill(0.0f);
    return *out;
  }
  const size_t na = active.size();

  // mess_e / h_e for the active edges only: the sub-CSR copies each active
  // edge's full row, so the SpMM accumulation order per row is unchanged.
  const std::vector<int>& em_ptr = edge_mean_.row_ptr();
  const std::vector<int>& em_col = edge_mean_.col_idx();
  const std::vector<float>& em_val = edge_mean_.values();
  std::vector<std::vector<int>> sub_cols(na);
  std::vector<std::vector<float>> sub_vals(na);
  for (size_t i = 0; i < na; ++i) {
    const int e = active[i];
    sub_cols[i].assign(em_col.begin() + em_ptr[e],
                       em_col.begin() + em_ptr[e + 1]);
    sub_vals[i].assign(em_val.begin() + em_ptr[e],
                       em_val.begin() + em_ptr[e + 1]);
  }
  tensor::CsrMatrix sub_edge_mean =
      tensor::CsrMatrix::FromSortedRows(na, num_vertices_, sub_cols, sub_vals);
  Matrix* mess_e = ws->Acquire(na, x.cols());
  tensor::SpMMInto(mess_e, sub_edge_mean, x);
  Matrix* w_col = ws->Acquire(na, 1);
  tensor::GatherRowsInto(w_col, edge_weight_.value(), active);
  Matrix* h_e = ws->Acquire(na, mess_e->cols());
  tensor::MulColBroadcastInto(h_e, *mess_e, *w_col);

  if (!use_attention_) {
    // Sub vertex-mean over requested rows; columns remapped to active-local
    // edge ids (monotone, so per-row entry order is preserved).
    std::vector<std::vector<int>> row_cols(nv);
    std::vector<std::vector<float>> row_vals(nv);
    const std::vector<float>& vm_val = vertex_mean_.values();
    for (size_t i = 0; i < nv; ++i) {
      const int v = vertices[i];
      for (int k = vm_ptr[v]; k < vm_ptr[v + 1]; ++k) {
        row_cols[i].push_back(edge_local[vm_col[k]]);
        row_vals[i].push_back(vm_val[k]);
      }
    }
    tensor::CsrMatrix sub_vertex_mean =
        tensor::CsrMatrix::FromSortedRows(nv, na, row_cols, row_vals);
    Matrix* mess_v = ws->Acquire(nv, h_e->cols());
    tensor::SpMMInto(mess_v, sub_vertex_mean, *h_e);
    Matrix& out = nn::InferLinear(*heads_.front().transform, *mess_v, ws);
    tensor::ReluInto(&out, out);
    return out;
  }

  // Restricted incidence pairs: edge-major over active edges, members
  // filtered to requested vertices — each requested vertex's segment is its
  // full-pass segment in the same relative order, relabeled to local ids.
  std::vector<int> pair_vertex;
  std::vector<int> pair_edge;
  for (size_t i = 0; i < na; ++i) {
    const int e = active[i];
    for (int k = em_ptr[e]; k < em_ptr[e + 1]; ++k) {
      const int v = em_col[k];
      if (vertex_local[v] >= 0) {
        pair_vertex.push_back(vertex_local[v]);
        pair_edge.push_back(static_cast<int>(i));
      }
    }
  }
  const size_t p = pair_vertex.size();
  Matrix* x_req = ws->Acquire(nv, x.cols());
  tensor::GatherRowsInto(x_req, x, vertices);
  std::vector<Matrix*> head_outputs;
  head_outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    Matrix& wh_e = nn::InferLinear(*head.transform, *h_e, ws);
    Matrix& wx = nn::InferLinear(*head.transform, *x_req, ws);
    Matrix* wx_pairs = ws->Acquire(p, wx.cols());
    tensor::GatherRowsInto(wx_pairs, wx, pair_vertex);
    Matrix* whe_pairs = ws->Acquire(p, wh_e.cols());
    tensor::GatherRowsInto(whe_pairs, wh_e, pair_edge);
    Matrix* score = ws->Acquire(p, 1);
    tensor::MatMulInto(score, *wx_pairs, head.attn_vertex.value());
    Matrix* score_edge = ws->Acquire(p, 1);
    tensor::MatMulInto(score_edge, *whe_pairs, head.attn_edge.value());
    tensor::AddInto(score, *score, *score_edge);
    tensor::LeakyReluInto(score, *score, leaky_slope_);
    Matrix* alpha = ws->Acquire(p, 1);
    tensor::SegmentSoftmaxInto(alpha, *score, pair_vertex, nv);
    tensor::MulColBroadcastInto(whe_pairs, *whe_pairs, *alpha);
    Matrix* agg = ws->Acquire(nv, whe_pairs->cols());
    tensor::SegmentSumInto(agg, *whe_pairs, pair_vertex, nv);
    head_outputs.push_back(agg);
  }
  Matrix* combined = head_outputs.front();
  if (head_outputs.size() > 1) {
    combined = ws->Acquire(nv, out_features_);
    std::vector<const Matrix*> parts(head_outputs.begin(),
                                     head_outputs.end());
    tensor::ConcatColsInto(combined, parts);
  }
  tensor::ReluInto(combined, *combined);
  return *combined;
}

void AdaptiveHypergraphConv::ResetStructure(
    const hypergraph::Hypergraph& hg, const std::vector<int>& new_from_old) {
  AHNTP_CHECK_EQ(hg.num_vertices(), num_vertices_);
  AHNTP_CHECK_GT(hg.num_edges(), 0u) << "hypergraph has no hyperedges";
  AHNTP_CHECK_EQ(new_from_old.size(), hg.num_edges());
  tensor::Matrix weights(hg.num_edges(), 1, 1.0f);
  const tensor::Matrix& old_weights = edge_weight_.value();
  for (size_t e = 0; e < hg.num_edges(); ++e) {
    const int old_e = new_from_old[e];
    if (old_e >= 0) {
      AHNTP_CHECK(static_cast<size_t>(old_e) < num_edges_);
      weights.At(e, 0) = old_weights.At(static_cast<size_t>(old_e), 0);
    }
  }
  edge_weight_ = autograd::Parameter(std::move(weights));
  num_edges_ = hg.num_edges();
  tensor::CsrMatrix incidence = hg.Incidence();
  edge_mean_ = incidence.Transposed().RowNormalized();
  vertex_mean_ = incidence.RowNormalized();
  pairs_ = hg.Pairs();
  last_attention_ = tensor::Matrix();
}

std::vector<Variable> AdaptiveHypergraphConv::Parameters() const {
  std::vector<Variable> params;
  for (const Head& head : heads_) {
    for (auto& p : head.transform->Parameters()) params.push_back(p);
    if (use_attention_) {
      params.push_back(head.attn_vertex);
      params.push_back(head.attn_edge);
    }
  }
  params.push_back(edge_weight_);
  return params;
}

std::vector<nn::Module*> AdaptiveHypergraphConv::Submodules() {
  std::vector<nn::Module*> subs;
  for (const Head& head : heads_) subs.push_back(head.transform.get());
  return subs;
}

}  // namespace ahntp::core
