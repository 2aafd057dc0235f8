#ifndef AHNTP_CORE_ADAPTIVE_CONV_H_
#define AHNTP_CORE_ADAPTIVE_CONV_H_

#include <memory>

#include "autograd/ops.h"
#include "hypergraph/hypergraph.h"
#include "nn/linear.h"
#include "tensor/workspace.h"

namespace ahntp::core {

/// The paper's two-step adaptive hypergraph convolution (Section IV-C).
///
/// Step 1 — vertex -> hyperedge (Eqs. 10-11):
///   Mess_e = mean_{v in e} x_v,   h_e = w_e * Mess_e
/// with a *trainable* per-hyperedge scalar w_e ("adaptive": each hyperedge
/// learns how loudly it speaks).
///
/// Step 2 — hyperedge -> vertex. With attention (Eqs. 14-16):
///   a_ie = LeakyReLU(beta^T [W x_i || W h_e]),
///   w_ie = softmax over the hyperedges of vertex i,
///   x_i' = ReLU(sum_e w_ie W h_e).
/// Without attention (the AHNTP_noatt ablation, Eqs. 12-13):
///   x_i' = ReLU(mean_{e ∋ i} h_e * theta).
class AdaptiveHypergraphConv : public nn::Module {
 public:
  /// `num_heads` > 1 enables multi-head attention: out_features is split
  /// evenly across heads, each with its own transform and beta, and the
  /// head outputs are concatenated (a natural extension of the paper's
  /// single-head design; requires out_features % num_heads == 0).
  AdaptiveHypergraphConv(const hypergraph::Hypergraph& hg, size_t in_features,
                         size_t out_features, Rng* rng,
                         bool use_attention = true, float leaky_slope = 0.2f,
                         size_t num_heads = 1);

  /// x is (num_vertices x in_features); returns (num_vertices x out).
  autograd::Variable Forward(const autograd::Variable& x) const;

  /// Tape-free forward restricted to `vertices` (ascending, deduplicated,
  /// in range): returns a (|vertices| x out_features) buffer whose i-th row
  /// is bit-identical to row vertices[i] of Forward(x). `x` is the FULL
  /// previous-layer matrix; only the incident hyperedges of the requested
  /// vertices are processed, so cost scales with the dirty neighbourhood
  /// instead of the graph. The restricted attention pass stays bitwise
  /// because every requested vertex's incidence segment is materialized
  /// whole (all its hyperedges) in the same relative order as the full
  /// edge-major pair list.
  tensor::Matrix& InferRows(const tensor::Matrix& x,
                            const std::vector<int>& vertices,
                            tensor::Workspace* ws) const;

  /// Rebuilds the incidence-derived structures (edge/vertex means,
  /// attention pairs, edge count) for a mutated hypergraph over the same
  /// vertex set. `new_from_old[e]` names the previous edge whose trained
  /// adaptive weight w_e edge e inherits, or -1 for a brand-new edge
  /// (weight 1, the init value). Head weights are untouched — they are
  /// structure-independent. Note: replaces the edge-weight parameter
  /// object, so optimizers holding the old Parameters() list must be
  /// rebuilt before further training (the serving path never trains).
  void ResetStructure(const hypergraph::Hypergraph& hg,
                      const std::vector<int>& new_from_old);

  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

  size_t out_features() const { return out_features_; }
  bool use_attention() const { return use_attention_; }
  size_t num_heads() const { return heads_.size(); }

  /// Incidence pairs this layer attends over (edge-major order).
  const hypergraph::Hypergraph::IncidencePairs& pairs() const {
    return pairs_;
  }

  /// Attention coefficients w_ie (Eq. 15) of the most recent Forward()
  /// call, one per incidence pair (head-averaged when multi-head) — the raw
  /// material for explanations. Empty before the first attention forward or
  /// when attention is off.
  const tensor::Matrix& last_attention() const { return last_attention_; }

 private:
  tensor::CsrMatrix edge_mean_;    // (m x n) D_e^{-1} H^T
  tensor::CsrMatrix vertex_mean_;  // (n x m) per-vertex mean over edges
  hypergraph::Hypergraph::IncidencePairs pairs_;
  /// One attention head: its own W and beta halves.
  struct Head {
    std::unique_ptr<nn::Linear> transform;  // W (theta when attention off)
    autograd::Variable attn_vertex;         // beta, vertex half (d_h x 1)
    autograd::Variable attn_edge;           // beta, hyperedge half (d_h x 1)
  };

  /// Runs one head's Eq. 14-16 pass; appends its attention snapshot.
  autograd::Variable RunHead(const Head& head, const autograd::Variable& x,
                             const autograd::Variable& h_e,
                             tensor::Matrix* attention_sum) const;

  size_t num_vertices_;
  size_t num_edges_;
  size_t out_features_;
  bool use_attention_;
  float leaky_slope_;
  std::vector<Head> heads_;
  autograd::Variable edge_weight_;   // (m x 1) trainable w_e, init 1
  mutable tensor::Matrix last_attention_;  // snapshot for explanations
};

}  // namespace ahntp::core

#endif  // AHNTP_CORE_ADAPTIVE_CONV_H_
