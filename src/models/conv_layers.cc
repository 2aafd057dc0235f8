#include "models/conv_layers.h"

#include "nn/init.h"

namespace ahntp::models {

using autograd::Variable;

SparseConvLayer::SparseConvLayer(tensor::CsrMatrix op, size_t in_features,
                                 size_t out_features, Rng* rng)
    : op_(std::move(op)), linear_(in_features, out_features, rng) {}

Variable SparseConvLayer::Forward(const Variable& x) const {
  return linear_.Forward(autograd::SpMMConst(op_, x));
}

GatLayer::GatLayer(AttentionEdges edges, size_t num_nodes, size_t in_features,
                   size_t out_features, Rng* rng, float leaky_slope)
    : edges_(std::move(edges)),
      num_nodes_(num_nodes),
      transform_(in_features, out_features, rng, /*use_bias=*/false),
      attn_src_(autograd::Parameter(nn::XavierUniform(out_features, 1, rng))),
      attn_dst_(autograd::Parameter(nn::XavierUniform(out_features, 1, rng))),
      leaky_slope_(leaky_slope) {}

Variable GatLayer::Forward(const Variable& x) const {
  Variable h = transform_.Forward(x);  // n x out
  Variable h_src = autograd::GatherRows(h, edges_.src);
  Variable h_dst = autograd::GatherRows(h, edges_.dst);
  Variable score = autograd::LeakyRelu(
      autograd::Add(autograd::MatMul(h_src, attn_src_),
                    autograd::MatMul(h_dst, attn_dst_)),
      leaky_slope_);
  Variable alpha = autograd::SegmentSoftmax(score, edges_.dst, num_nodes_);
  Variable weighted = autograd::MulColBroadcast(h_src, alpha);
  return autograd::SegmentSum(weighted, edges_.dst, num_nodes_);
}

std::vector<Variable> GatLayer::Parameters() const {
  std::vector<Variable> params = transform_.Parameters();
  params.push_back(attn_src_);
  params.push_back(attn_dst_);
  return params;
}

}  // namespace ahntp::models
