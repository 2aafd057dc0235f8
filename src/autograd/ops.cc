#include "autograd/ops.h"

#include <cmath>

#include "common/check.h"
#include "tensor/kernels.h"

namespace ahntp::autograd {

using tensor::CsrMatrix;
using tensor::Matrix;

namespace {

/// Builds an op node. `backward` may capture raw Node pointers of inputs;
/// they stay alive because the node holds shared_ptrs to them. Under an
/// InferenceMode scope the node keeps only its value.
Variable MakeOp(Matrix value, std::vector<std::shared_ptr<Node>> inputs,
                std::function<void(Node&)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  if (InferenceMode::active()) return Variable(node);
  for (const auto& in : inputs) {
    if (in->requires_grad) node->requires_grad = true;
  }
  node->inputs = std::move(inputs);
  if (node->requires_grad) node->backward = std::move(backward);
  return Variable(node);
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  Matrix out = tensor::MatMul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(std::move(out), {an, bn}, [an, bn](Node& self) {
    if (an->requires_grad) {
      an->AccumulateGrad(tensor::MatMul(self.grad, bn->value,
                                        /*transpose_a=*/false,
                                        /*transpose_b=*/true));
    }
    if (bn->requires_grad) {
      bn->AccumulateGrad(tensor::MatMul(an->value, self.grad,
                                        /*transpose_a=*/true,
                                        /*transpose_b=*/false));
    }
  });
}

Variable Add(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(tensor::Add(a.value(), b.value()), {an, bn},
                [an, bn](Node& self) {
                  if (an->requires_grad) an->AccumulateGrad(self.grad);
                  if (bn->requires_grad) bn->AccumulateGrad(self.grad);
                });
}

Variable Sub(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(tensor::Sub(a.value(), b.value()), {an, bn},
                [an, bn](Node& self) {
                  if (an->requires_grad) an->AccumulateGrad(self.grad);
                  if (bn->requires_grad) {
                    bn->AccumulateGrad(tensor::Scale(self.grad, -1.0f));
                  }
                });
}

Variable Mul(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(tensor::Hadamard(a.value(), b.value()), {an, bn},
                [an, bn](Node& self) {
                  if (an->requires_grad) {
                    an->AccumulateGrad(tensor::Hadamard(self.grad, bn->value));
                  }
                  if (bn->requires_grad) {
                    bn->AccumulateGrad(tensor::Hadamard(self.grad, an->value));
                  }
                });
}

Variable MulConst(const Variable& a, const Matrix& k) {
  auto an = a.node();
  Matrix k_copy = k;
  return MakeOp(tensor::Hadamard(a.value(), k), {an},
                [an, k_copy](Node& self) {
                  an->AccumulateGrad(tensor::Hadamard(self.grad, k_copy));
                });
}

Variable Scale(const Variable& a, float scalar) {
  auto an = a.node();
  return MakeOp(tensor::Scale(a.value(), scalar), {an},
                [an, scalar](Node& self) {
                  an->AccumulateGrad(tensor::Scale(self.grad, scalar));
                });
}

Variable AddScalar(const Variable& a, float scalar) {
  auto an = a.node();
  Matrix out;
  tensor::AddScalarInto(&out, a.value(), scalar);
  return MakeOp(std::move(out), {an},
                [an](Node& self) { an->AccumulateGrad(self.grad); });
}

Variable AddRowBroadcast(const Variable& a, const Variable& bias) {
  AHNTP_CHECK_EQ(bias.rows(), 1u);
  AHNTP_CHECK_EQ(bias.cols(), a.cols());
  auto an = a.node();
  auto bn = bias.node();
  return MakeOp(tensor::AddRowBroadcast(a.value(), bias.value()), {an, bn},
                [an, bn](Node& self) {
                  if (an->requires_grad) an->AccumulateGrad(self.grad);
                  if (bn->requires_grad) {
                    bn->AccumulateGrad(tensor::ColSums(self.grad));
                  }
                });
}

Variable MulColBroadcast(const Variable& a, const Variable& col) {
  AHNTP_CHECK_EQ(col.rows(), a.rows());
  AHNTP_CHECK_EQ(col.cols(), 1u);
  auto an = a.node();
  auto cn = col.node();
  Matrix out;
  tensor::MulColBroadcastInto(&out, a.value(), col.value());
  return MakeOp(std::move(out), {an, cn}, [an, cn](Node& self) {
    if (an->requires_grad) {
      Matrix ga = self.grad;
      for (size_t r = 0; r < ga.rows(); ++r) {
        float s = cn->value.At(r, 0);
        float* row = ga.RowPtr(r);
        for (size_t c = 0; c < ga.cols(); ++c) row[c] *= s;
      }
      an->AccumulateGrad(ga);
    }
    if (cn->requires_grad) {
      Matrix gc(self.grad.rows(), 1);
      for (size_t r = 0; r < self.grad.rows(); ++r) {
        const float* grow = self.grad.RowPtr(r);
        const float* arow = an->value.RowPtr(r);
        double acc = 0.0;
        for (size_t c = 0; c < self.grad.cols(); ++c) acc += static_cast<double>(grow[c]) * arow[c];
        gc.At(r, 0) = static_cast<float>(acc);
      }
      cn->AccumulateGrad(gc);
    }
  });
}

Variable SpMMConst(const CsrMatrix& s, const Variable& x) {
  auto xn = x.node();
  // The sparse operand is shared so graphs built in a loop do not copy it.
  auto s_shared = std::make_shared<CsrMatrix>(s);
  return MakeOp(tensor::SpMM(*s_shared, x.value()), {xn},
                [xn, s_shared](Node& self) {
                  xn->AccumulateGrad(tensor::SpMMTransposed(*s_shared, self.grad));
                });
}

Variable SpMMTransposedConst(const CsrMatrix& s, const Variable& x) {
  auto xn = x.node();
  auto s_shared = std::make_shared<CsrMatrix>(s);
  return MakeOp(tensor::SpMMTransposed(*s_shared, x.value()), {xn},
                [xn, s_shared](Node& self) {
                  xn->AccumulateGrad(tensor::SpMM(*s_shared, self.grad));
                });
}

Variable Relu(const Variable& a) {
  auto an = a.node();
  Matrix out;
  tensor::ReluInto(&out, a.value());
  return MakeOp(std::move(out), {an}, [an](Node& self) {
    Matrix g = self.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      if (an->value.data()[i] <= 0.0f) g.data()[i] = 0.0f;
    }
    an->AccumulateGrad(g);
  });
}

Variable LeakyRelu(const Variable& a, float negative_slope) {
  auto an = a.node();
  Matrix out;
  tensor::LeakyReluInto(&out, a.value(), negative_slope);
  return MakeOp(std::move(out), {an}, [an, negative_slope](Node& self) {
    Matrix g = self.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      if (an->value.data()[i] < 0.0f) g.data()[i] *= negative_slope;
    }
    an->AccumulateGrad(g);
  });
}

Variable Sigmoid(const Variable& a) {
  auto an = a.node();
  Matrix out;
  tensor::SigmoidInto(&out, a.value());
  auto result = MakeOp(std::move(out), {an}, [an](Node& self) {
    Matrix g = self.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      float y = self.value.data()[i];
      g.data()[i] *= y * (1.0f - y);
    }
    an->AccumulateGrad(g);
  });
  return result;
}

Variable Tanh(const Variable& a) {
  auto an = a.node();
  Matrix out;
  tensor::TanhInto(&out, a.value());
  return MakeOp(std::move(out), {an}, [an](Node& self) {
    Matrix g = self.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      float y = self.value.data()[i];
      g.data()[i] *= 1.0f - y * y;
    }
    an->AccumulateGrad(g);
  });
}

Variable Exp(const Variable& a) {
  auto an = a.node();
  Matrix out;
  tensor::ExpInto(&out, a.value());
  return MakeOp(std::move(out), {an}, [an](Node& self) {
    Matrix g = self.grad;
    for (size_t i = 0; i < g.size(); ++i) g.data()[i] *= self.value.data()[i];
    an->AccumulateGrad(g);
  });
}

Variable Log(const Variable& a, float epsilon) {
  auto an = a.node();
  Matrix out;
  tensor::LogInto(&out, a.value(), epsilon);
  return MakeOp(std::move(out), {an}, [an, epsilon](Node& self) {
    Matrix g = self.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      g.data()[i] /= std::max(an->value.data()[i], epsilon);
    }
    an->AccumulateGrad(g);
  });
}

Variable Clamp(const Variable& a, float lo, float hi) {
  auto an = a.node();
  Matrix out;
  tensor::ClampInto(&out, a.value(), lo, hi);
  return MakeOp(std::move(out), {an}, [an, lo, hi](Node& self) {
    Matrix g = self.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      float x = an->value.data()[i];
      if (x < lo || x > hi) g.data()[i] = 0.0f;
    }
    an->AccumulateGrad(g);
  });
}

Variable Sqrt(const Variable& a, float epsilon) {
  auto an = a.node();
  Matrix out;
  tensor::SqrtInto(&out, a.value(), epsilon);
  return MakeOp(std::move(out), {an}, [an](Node& self) {
    Matrix g = self.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      g.data()[i] *= 0.5f / self.value.data()[i];
    }
    an->AccumulateGrad(g);
  });
}

Variable Abs(const Variable& a) {
  auto an = a.node();
  Matrix out;
  tensor::AbsInto(&out, a.value());
  return MakeOp(std::move(out), {an}, [an](Node& self) {
    Matrix g = self.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      float x = an->value.data()[i];
      g.data()[i] *= x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
    }
    an->AccumulateGrad(g);
  });
}

Variable PowScalar(const Variable& a, float exponent, float epsilon) {
  auto an = a.node();
  Matrix out;
  tensor::PowScalarInto(&out, a.value(), exponent, epsilon);
  return MakeOp(std::move(out), {an}, [an, exponent, epsilon](Node& self) {
    Matrix g = self.grad;
    for (size_t i = 0; i < g.size(); ++i) {
      float x = std::max(an->value.data()[i], epsilon);
      g.data()[i] *= exponent * std::pow(x, exponent - 1.0f);
    }
    an->AccumulateGrad(g);
  });
}

Variable RowStandardize(const Variable& a, float epsilon) {
  auto an = a.node();
  Matrix out;
  std::vector<float> inv_std;
  tensor::RowStandardizeInto(&out, a.value(), epsilon, &inv_std);
  return MakeOp(std::move(out), {an}, [an, inv_std](Node& self) {
    // dX = inv_std * (dY - mean(dY) - y * mean(dY ⊙ y)), per row.
    const size_t rows2 = self.value.rows();
    const size_t cols2 = self.value.cols();
    Matrix g(rows2, cols2);
    for (size_t r = 0; r < rows2; ++r) {
      const float* yrow = self.value.RowPtr(r);
      const float* grow = self.grad.RowPtr(r);
      double mean_g = 0.0, mean_gy = 0.0;
      for (size_t c = 0; c < cols2; ++c) {
        mean_g += grow[c];
        mean_gy += static_cast<double>(grow[c]) * yrow[c];
      }
      mean_g /= static_cast<double>(cols2);
      mean_gy /= static_cast<double>(cols2);
      float* dst = g.RowPtr(r);
      for (size_t c = 0; c < cols2; ++c) {
        dst[c] = inv_std[r] *
                 static_cast<float>(grow[c] - mean_g - yrow[c] * mean_gy);
      }
    }
    an->AccumulateGrad(g);
  });
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  AHNTP_CHECK(!parts.empty());
  std::vector<const Matrix*> values;
  std::vector<std::shared_ptr<Node>> nodes;
  std::vector<size_t> widths;
  for (const Variable& p : parts) {
    values.push_back(&p.value());
    nodes.push_back(p.node());
    widths.push_back(p.cols());
  }
  Matrix out = tensor::ConcatCols(values);
  auto inputs = nodes;
  return MakeOp(std::move(out), std::move(nodes),
                [inputs, widths](Node& self) {
                  size_t offset = 0;
                  for (size_t k = 0; k < inputs.size(); ++k) {
                    if (inputs[k]->requires_grad) {
                      Matrix g(self.grad.rows(), widths[k]);
                      for (size_t r = 0; r < g.rows(); ++r) {
                        const float* src = self.grad.RowPtr(r) + offset;
                        float* dst = g.RowPtr(r);
                        for (size_t c = 0; c < widths[k]; ++c) dst[c] = src[c];
                      }
                      inputs[k]->AccumulateGrad(g);
                    }
                    offset += widths[k];
                  }
                });
}

Variable GatherRows(const Variable& a, const std::vector<int>& indices) {
  auto an = a.node();
  std::vector<int> idx = indices;
  return MakeOp(tensor::GatherRows(a.value(), indices), {an},
                [an, idx](Node& self) {
                  Matrix g(an->value.rows(), an->value.cols());
                  for (size_t i = 0; i < idx.size(); ++i) {
                    const float* src = self.grad.RowPtr(i);
                    float* dst = g.RowPtr(static_cast<size_t>(idx[i]));
                    for (size_t c = 0; c < g.cols(); ++c) dst[c] += src[c];
                  }
                  an->AccumulateGrad(g);
                });
}

Variable SegmentSum(const Variable& a, const std::vector<int>& segments,
                    size_t num_segments) {
  auto an = a.node();
  std::vector<int> seg = segments;
  Matrix out;
  tensor::SegmentSumInto(&out, a.value(), segments, num_segments);
  return MakeOp(std::move(out), {an}, [an, seg](Node& self) {
    Matrix g(an->value.rows(), an->value.cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      const float* src = self.grad.RowPtr(static_cast<size_t>(seg[r]));
      float* dst = g.RowPtr(r);
      for (size_t c = 0; c < g.cols(); ++c) dst[c] = src[c];
    }
    an->AccumulateGrad(g);
  });
}

Variable SegmentMean(const Variable& a, const std::vector<int>& segments,
                     size_t num_segments) {
  auto an = a.node();
  std::vector<int> seg = segments;
  std::vector<float> counts;
  Matrix out;
  tensor::SegmentMeanInto(&out, a.value(), segments, num_segments, &counts);
  return MakeOp(std::move(out), {an}, [an, seg, counts](Node& self) {
    Matrix g(an->value.rows(), an->value.cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      size_t s = static_cast<size_t>(seg[r]);
      const float* src = self.grad.RowPtr(s);
      float* dst = g.RowPtr(r);
      float inv = counts[s] > 0.0f ? 1.0f / counts[s] : 0.0f;
      for (size_t c = 0; c < g.cols(); ++c) dst[c] = src[c] * inv;
    }
    an->AccumulateGrad(g);
  });
}

Variable SegmentSoftmax(const Variable& a, const std::vector<int>& segments,
                        size_t num_segments) {
  auto an = a.node();
  std::vector<int> seg = segments;
  Matrix out;
  tensor::SegmentSoftmaxInto(&out, a.value(), segments, num_segments);
  return MakeOp(std::move(out), {an}, [an, seg, num_segments](Node& self) {
    // dX_i = y_i * (dY_i - sum_{j in seg(i)} dY_j y_j)
    std::vector<double> weighted(num_segments, 0.0);
    const size_t n2 = self.value.rows();
    for (size_t r = 0; r < n2; ++r) {
      weighted[static_cast<size_t>(seg[r])] +=
          static_cast<double>(self.grad.At(r, 0)) * self.value.At(r, 0);
    }
    Matrix g(n2, 1);
    for (size_t r = 0; r < n2; ++r) {
      size_t s = static_cast<size_t>(seg[r]);
      g.At(r, 0) = self.value.At(r, 0) *
                   (self.grad.At(r, 0) - static_cast<float>(weighted[s]));
    }
    an->AccumulateGrad(g);
  });
}

Variable RowL2Normalize(const Variable& a, float epsilon) {
  auto an = a.node();
  Matrix norms;
  tensor::RowNormsInto(&norms, a.value(), epsilon);
  Matrix out;
  tensor::DivRowsByNormsInto(&out, a.value(), norms);
  return MakeOp(std::move(out), {an}, [an, norms](Node& self) {
    // y = x / n; dX = (dY - y * dot(dY, y)) / n, per row.
    Matrix g(self.value.rows(), self.value.cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      const float* yrow = self.value.RowPtr(r);
      const float* grow = self.grad.RowPtr(r);
      double dot = 0.0;
      for (size_t c = 0; c < g.cols(); ++c) dot += static_cast<double>(grow[c]) * yrow[c];
      float inv = 1.0f / norms.At(r, 0);
      float* dst = g.RowPtr(r);
      for (size_t c = 0; c < g.cols(); ++c) {
        dst[c] = (grow[c] - yrow[c] * static_cast<float>(dot)) * inv;
      }
    }
    an->AccumulateGrad(g);
  });
}

Variable RowwiseDot(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  Matrix out;
  tensor::RowwiseDotInto(&out, a.value(), b.value());
  return MakeOp(std::move(out), {an, bn}, [an, bn](Node& self) {
    for (size_t r = 0; r < self.value.rows(); ++r) {
      float g = self.grad.At(r, 0);
      if (g == 0.0f) continue;
      if (an->requires_grad) {
        an->EnsureGrad();
        float* dst = an->grad.RowPtr(r);
        const float* src = bn->value.RowPtr(r);
        for (size_t c = 0; c < an->value.cols(); ++c) dst[c] += g * src[c];
      }
      if (bn->requires_grad) {
        bn->EnsureGrad();
        float* dst = bn->grad.RowPtr(r);
        const float* src = an->value.RowPtr(r);
        for (size_t c = 0; c < bn->value.cols(); ++c) dst[c] += g * src[c];
      }
    }
  });
}

Variable PairwiseCosine(const Variable& a, const Variable& b, float epsilon) {
  Variable na = RowL2Normalize(a, epsilon);
  Variable nb = RowL2Normalize(b, epsilon);
  return RowwiseDot(na, nb);
}

Variable RowSoftmax(const Variable& a) {
  auto an = a.node();
  Matrix out;
  tensor::RowSoftmaxInto(&out, a.value());
  return MakeOp(std::move(out), {an}, [an](Node& self) {
    Matrix g(self.value.rows(), self.value.cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      const float* yrow = self.value.RowPtr(r);
      const float* grow = self.grad.RowPtr(r);
      double dot = 0.0;
      for (size_t c = 0; c < g.cols(); ++c) dot += static_cast<double>(grow[c]) * yrow[c];
      float* dst = g.RowPtr(r);
      for (size_t c = 0; c < g.cols(); ++c) {
        dst[c] = yrow[c] * (grow[c] - static_cast<float>(dot));
      }
    }
    an->AccumulateGrad(g);
  });
}

Variable ReduceSum(const Variable& a) {
  auto an = a.node();
  Matrix out(1, 1);
  out.At(0, 0) = a.value().Sum();
  return MakeOp(std::move(out), {an}, [an](Node& self) {
    float g = self.grad.At(0, 0);
    Matrix grad(an->value.rows(), an->value.cols(), g);
    an->AccumulateGrad(grad);
  });
}

Variable ReduceMean(const Variable& a) {
  auto an = a.node();
  AHNTP_CHECK_GT(a.value().size(), 0u);
  Matrix out(1, 1);
  out.At(0, 0) = a.value().Mean();
  float inv = 1.0f / static_cast<float>(a.value().size());
  return MakeOp(std::move(out), {an}, [an, inv](Node& self) {
    float g = self.grad.At(0, 0) * inv;
    Matrix grad(an->value.rows(), an->value.cols(), g);
    an->AccumulateGrad(grad);
  });
}

Variable Dropout(const Variable& a, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f || InferenceMode::active()) return a;
  AHNTP_CHECK(p < 1.0f);
  AHNTP_CHECK(rng != nullptr);
  Matrix mask(a.rows(), a.cols());
  float scale = 1.0f / (1.0f - p);
  for (size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  return MulConst(a, mask);
}

}  // namespace ahntp::autograd
