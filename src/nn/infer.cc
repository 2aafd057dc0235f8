#include "nn/infer.h"

#include "common/check.h"
#include "tensor/kernels.h"

namespace ahntp::nn {

using tensor::Matrix;

Matrix& InferLinear(const Linear& layer, const Matrix& x,
                    tensor::Workspace* ws) {
  AHNTP_CHECK(ws != nullptr);
  Matrix* out = ws->Acquire(x.rows(), layer.out_features());
  tensor::MatMulInto(out, x, layer.weight().value());
  if (layer.use_bias()) {
    tensor::AddRowBroadcastInto(out, *out, layer.bias().value());
  }
  return *out;
}

void InferActivationInPlace(Matrix* m, Activation act, float leaky_slope) {
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kRelu:
      tensor::ReluInto(m, *m);
      return;
    case Activation::kLeakyRelu:
      tensor::LeakyReluInto(m, *m, leaky_slope);
      return;
    case Activation::kSigmoid:
      tensor::SigmoidInto(m, *m);
      return;
    case Activation::kTanh:
      tensor::TanhInto(m, *m);
      return;
  }
}

Matrix& InferMlp(const Mlp& mlp, const Matrix& x, tensor::Workspace* ws) {
  AHNTP_CHECK(ws != nullptr);
  const Matrix* h = &x;
  Matrix* out = nullptr;
  for (size_t i = 0; i < mlp.num_layers(); ++i) {
    out = &InferLinear(mlp.layer(i), *h, ws);
    bool is_last = (i + 1 == mlp.num_layers());
    InferActivationInPlace(
        out, is_last ? mlp.output_activation() : mlp.hidden_activation());
    h = out;
  }
  return *out;
}

}  // namespace ahntp::nn
