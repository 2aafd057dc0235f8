#include "autograd/ops.h"

#include <cstring>
#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/adaptive_conv.h"
#include "hypergraph/hypergraph.h"
#include "nn/losses.h"
#include "test_util.h"

namespace ahntp::autograd {
namespace {

using ahntp::testing::ExpectGradientsClose;
using tensor::CsrMatrix;
using tensor::Matrix;

Variable RandParam(size_t rows, size_t cols, Rng* rng, float scale = 1.0f) {
  return Parameter(Matrix::Randn(rows, cols, rng, 0.0f, scale));
}

TEST(VariableTest, LeafHasNoBackward) {
  Variable v = Parameter(Matrix::FromRows({{1, 2}}));
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.rows(), 1u);
  EXPECT_EQ(v.cols(), 2u);
}

TEST(VariableTest, BackwardRequiresScalar) {
  Variable v = Parameter(Matrix::FromRows({{1, 2}}));
  EXPECT_DEATH(v.Backward(), "scalar");
}

TEST(VariableTest, SimpleChainGradient) {
  Variable x = Parameter(Matrix::FromRows({{3.0f}}));
  Variable y = Scale(x, 2.0f);         // 2x
  Variable z = Mul(y, y);              // 4x^2
  Variable loss = ReduceSum(z);
  loss.Backward();
  EXPECT_NEAR(x.grad().At(0, 0), 8.0f * 3.0f, 1e-4f);  // d/dx 4x^2 = 8x
}

TEST(VariableTest, GradAccumulatesAcrossSharedSubexpressions) {
  Variable x = Parameter(Matrix::FromRows({{2.0f}}));
  Variable sum = Add(x, x);  // 2x
  Variable loss = ReduceSum(sum);
  loss.Backward();
  EXPECT_NEAR(x.grad().At(0, 0), 2.0f, 1e-5f);
}

TEST(VariableTest, ZeroGradResets) {
  Variable x = Parameter(Matrix::FromRows({{1.0f}}));
  ReduceSum(Scale(x, 3.0f)).Backward();
  EXPECT_NEAR(x.grad().At(0, 0), 3.0f, 1e-5f);
  x.ZeroGrad();
  EXPECT_EQ(x.grad().At(0, 0), 0.0f);
  ReduceSum(Scale(x, 3.0f)).Backward();
  EXPECT_NEAR(x.grad().At(0, 0), 3.0f, 1e-5f);  // not 6: fresh accumulation
}

TEST(VariableTest, ConstantReceivesNoBackwardWork) {
  Variable c = Constant(Matrix::FromRows({{5.0f}}));
  Variable x = Parameter(Matrix::FromRows({{2.0f}}));
  Variable loss = ReduceSum(Mul(c, x));
  loss.Backward();
  EXPECT_NEAR(x.grad().At(0, 0), 5.0f, 1e-5f);
  EXPECT_FALSE(c.requires_grad());
}

TEST(VariableTest, BackwardConsumesTheGraph) {
  Variable x = Parameter(Matrix::FromRows({{1.0f, -2.0f}, {3.0f, 4.0f}}));
  Variable w = Parameter(Matrix::FromRows({{0.5f}, {-1.0f}}));
  std::weak_ptr<Node> tape_only;
  Variable h;
  {
    Variable m = MatMul(x, w);  // [[2.5], [-2.5]]
    tape_only = m.node();
    h = Relu(m);  // [[2.5], [0]], still held by a handle below
  }
  Variable loss = ReduceSum(h);
  ASSERT_FALSE(tape_only.expired());
  loss.Backward();

  // The interior node only the tape held is gone with its value.
  EXPECT_TRUE(tape_only.expired());
  // Handle-held interior nodes keep their values but nothing else.
  for (const Variable* v : {&h, &loss}) {
    EXPECT_TRUE(v->node()->inputs.empty());
    EXPECT_FALSE(v->node()->backward);
    EXPECT_FALSE(v->node()->grad_allocated);
    EXPECT_TRUE(v->node()->grad.empty());
  }
  EXPECT_EQ(h.value().At(0, 0), 2.5f);
  EXPECT_EQ(h.value().At(1, 0), 0.0f);
  EXPECT_EQ(loss.value().At(0, 0), 2.5f);
  // Leaf grads are intact: dL/dw = x^T [1, 0]^T, dL/dx = [1, 0]^T w^T.
  EXPECT_EQ(w.grad().At(0, 0), 1.0f);
  EXPECT_EQ(w.grad().At(1, 0), -2.0f);
  EXPECT_EQ(x.grad().At(0, 0), 0.5f);
  EXPECT_EQ(x.grad().At(0, 1), -1.0f);
  EXPECT_EQ(x.grad().At(1, 0), 0.0f);
  EXPECT_EQ(x.grad().At(1, 1), 0.0f);
}

// ---------------------------------------------------------------------------
// Per-op gradient checks vs central finite differences.
// ---------------------------------------------------------------------------

TEST(GradCheck, MatMul) {
  Rng rng(1);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        return ReduceSum(MatMul(p[0], p[1]));
      },
      {RandParam(3, 4, &rng), RandParam(4, 2, &rng)});
}

TEST(GradCheck, AddSubMul) {
  Rng rng(2);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        return ReduceSum(Mul(Add(p[0], p[1]), Sub(p[0], p[1])));
      },
      {RandParam(3, 3, &rng), RandParam(3, 3, &rng)});
}

TEST(GradCheck, MulConstAndScale) {
  Rng rng(3);
  Matrix mask = Matrix::FromRows({{1, 0, 2}, {0, 1, 0}});
  ExpectGradientsClose(
      [mask](const std::vector<Variable>& p) {
        return ReduceSum(Scale(MulConst(p[0], mask), 1.5f));
      },
      {RandParam(2, 3, &rng)});
}

TEST(GradCheck, AddRowBroadcast) {
  Rng rng(4);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        return ReduceSum(Mul(AddRowBroadcast(p[0], p[1]),
                             AddRowBroadcast(p[0], p[1])));
      },
      {RandParam(4, 3, &rng), RandParam(1, 3, &rng)});
}

TEST(GradCheck, MulColBroadcast) {
  Rng rng(5);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        return ReduceSum(MulColBroadcast(p[0], p[1]));
      },
      {RandParam(4, 3, &rng), RandParam(4, 1, &rng)});
}

TEST(GradCheck, SpMM) {
  Rng rng(6);
  CsrMatrix s = CsrMatrix::FromTriplets(
      3, 4, {{0, 1, 2.0f}, {1, 0, -1.0f}, {1, 3, 0.5f}, {2, 2, 1.0f}});
  ExpectGradientsClose(
      [s](const std::vector<Variable>& p) {
        return ReduceSum(Mul(SpMMConst(s, p[0]), SpMMConst(s, p[0])));
      },
      {RandParam(4, 2, &rng)});
}

TEST(GradCheck, SpMMTransposed) {
  Rng rng(7);
  CsrMatrix s = CsrMatrix::FromTriplets(
      3, 4, {{0, 1, 2.0f}, {1, 0, -1.0f}, {2, 3, 0.5f}});
  ExpectGradientsClose(
      [s](const std::vector<Variable>& p) {
        return ReduceSum(SpMMTransposedConst(s, p[0]));
      },
      {RandParam(3, 2, &rng)});
}

TEST(GradCheck, ReluAndLeakyRelu) {
  Rng rng(8);
  // Keep values away from the kink for numeric stability.
  Matrix base = Matrix::Randn(4, 4, &rng);
  for (size_t i = 0; i < base.size(); ++i) {
    if (std::fabs(base.data()[i]) < 0.05f) base.data()[i] = 0.2f;
  }
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        return ReduceSum(Add(Relu(p[0]), LeakyRelu(p[0], 0.1f)));
      },
      {Parameter(base)});
}

TEST(GradCheck, SigmoidTanhExp) {
  Rng rng(9);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        return ReduceSum(Add(Sigmoid(p[0]), Add(Tanh(p[0]), Exp(p[0]))));
      },
      {RandParam(3, 3, &rng, 0.5f)});
}

TEST(GradCheck, LogOfPositive) {
  Rng rng(10);
  Matrix positive = Matrix::RandUniform(3, 3, &rng, 0.5f, 2.0f);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) { return ReduceSum(Log(p[0])); },
      {Parameter(positive)});
}

TEST(GradCheck, ClampInterior) {
  Rng rng(11);
  Matrix interior = Matrix::RandUniform(3, 3, &rng, -0.5f, 0.5f);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        return ReduceSum(Clamp(p[0], -1.0f, 1.0f));
      },
      {Parameter(interior)});
}

TEST(ClampTest, GradientZeroOutsideRange) {
  Variable x = Parameter(Matrix::FromRows({{5.0f, -5.0f, 0.2f}}));
  ReduceSum(Clamp(x, -1.0f, 1.0f)).Backward();
  EXPECT_EQ(x.grad().At(0, 0), 0.0f);
  EXPECT_EQ(x.grad().At(0, 1), 0.0f);
  EXPECT_EQ(x.grad().At(0, 2), 1.0f);
}

TEST(GradCheck, ConcatCols) {
  Rng rng(12);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        Variable cat = ConcatCols({p[0], p[1]});
        return ReduceSum(Mul(cat, cat));
      },
      {RandParam(3, 2, &rng), RandParam(3, 4, &rng)});
}

TEST(GradCheck, GatherRows) {
  Rng rng(13);
  std::vector<int> idx = {2, 0, 2, 1};
  ExpectGradientsClose(
      [idx](const std::vector<Variable>& p) {
        Variable g = GatherRows(p[0], idx);
        return ReduceSum(Mul(g, g));
      },
      {RandParam(3, 3, &rng)});
}

TEST(GradCheck, SegmentSumAndMean) {
  Rng rng(14);
  std::vector<int> seg = {0, 1, 0, 2, 1};
  ExpectGradientsClose(
      [seg](const std::vector<Variable>& p) {
        Variable s = SegmentSum(p[0], seg, 3);
        Variable m = SegmentMean(p[0], seg, 3);
        return ReduceSum(Mul(s, m));
      },
      {RandParam(5, 2, &rng)});
}

TEST(GradCheck, SegmentSoftmax) {
  Rng rng(15);
  std::vector<int> seg = {0, 0, 1, 1, 1, 2};
  ExpectGradientsClose(
      [seg](const std::vector<Variable>& p) {
        Variable alpha = SegmentSoftmax(p[0], seg, 3);
        // Weighted sum makes the loss depend non-trivially on alpha.
        Matrix weights(6, 1);
        for (size_t i = 0; i < 6; ++i) weights.At(i, 0) = static_cast<float>(i);
        return ReduceSum(MulConst(alpha, weights));
      },
      {RandParam(6, 1, &rng)});
}

TEST(SegmentSoftmaxTest, SumsToOnePerSegment) {
  Variable x = Parameter(Matrix::FromRows({{1}, {5}, {-2}, {0}, {3}}));
  std::vector<int> seg = {0, 0, 1, 1, 1};
  Variable alpha = SegmentSoftmax(x, seg, 2);
  EXPECT_NEAR(alpha.value().At(0, 0) + alpha.value().At(1, 0), 1.0f, 1e-5f);
  EXPECT_NEAR(alpha.value().At(2, 0) + alpha.value().At(3, 0) +
                  alpha.value().At(4, 0),
              1.0f, 1e-5f);
}

TEST(GradCheck, RowL2Normalize) {
  Rng rng(16);
  Matrix base = Matrix::Randn(3, 4, &rng);
  base += Matrix(3, 4, 0.3f);  // keep norms clearly nonzero
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        Variable n = RowL2Normalize(p[0]);
        Matrix w(3, 4);
        for (size_t i = 0; i < w.size(); ++i) {
          w.data()[i] = static_cast<float>(i % 5) - 2.0f;
        }
        return ReduceSum(MulConst(n, w));
      },
      {Parameter(base)});
}

TEST(RowL2NormalizeTest, ProducesUnitRows) {
  Variable x = Parameter(Matrix::FromRows({{3, 4}, {1, 0}}));
  Variable n = RowL2Normalize(x);
  EXPECT_NEAR(n.value().At(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(n.value().At(0, 1), 0.8f, 1e-5f);
  EXPECT_NEAR(n.value().At(1, 0), 1.0f, 1e-5f);
}

TEST(GradCheck, RowwiseDotAndCosine) {
  Rng rng(17);
  Matrix a = Matrix::Randn(4, 3, &rng);
  Matrix b = Matrix::Randn(4, 3, &rng);
  a += Matrix(4, 3, 0.5f);
  b += Matrix(4, 3, 0.5f);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        return ReduceSum(Add(RowwiseDot(p[0], p[1]),
                             PairwiseCosine(p[0], p[1])));
      },
      {Parameter(a), Parameter(b)});
}

TEST(PairwiseCosineTest, KnownValues) {
  Variable a = Parameter(Matrix::FromRows({{1, 0}, {1, 1}}));
  Variable b = Parameter(Matrix::FromRows({{0, 1}, {1, 1}}));
  Variable cs = PairwiseCosine(a, b);
  EXPECT_NEAR(cs.value().At(0, 0), 0.0f, 1e-5f);
  EXPECT_NEAR(cs.value().At(1, 0), 1.0f, 1e-5f);
}

TEST(GradCheck, RowSoftmax) {
  Rng rng(18);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        Variable s = RowSoftmax(p[0]);
        Matrix w(3, 4);
        for (size_t i = 0; i < w.size(); ++i) {
          w.data()[i] = static_cast<float>((i * 7) % 3);
        }
        return ReduceSum(MulConst(s, w));
      },
      {RandParam(3, 4, &rng)});
}

TEST(RowSoftmaxTest, RowsSumToOne) {
  Rng rng(19);
  Variable x = RandParam(5, 7, &rng, 3.0f);
  Variable s = RowSoftmax(x);
  for (size_t r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 7; ++c) sum += s.value().At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(GradCheck, ReduceMean) {
  Rng rng(20);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        return ReduceMean(Mul(p[0], p[0]));
      },
      {RandParam(4, 5, &rng)});
}

TEST(GradCheck, AddScalar) {
  Rng rng(21);
  ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        Variable shifted = AddScalar(p[0], 2.0f);
        return ReduceSum(Mul(shifted, shifted));
      },
      {RandParam(2, 3, &rng)});
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(22);
  Variable x = RandParam(4, 4, &rng);
  Variable y = Dropout(x, 0.5f, &rng, /*training=*/false);
  EXPECT_TRUE(y.value().AllClose(x.value()));
}

TEST(DropoutTest, TrainingScalesSurvivors) {
  Rng rng(23);
  Variable x = Parameter(Matrix(100, 100, 1.0f));
  Variable y = Dropout(x, 0.5f, &rng, /*training=*/true);
  // Survivors are scaled by 1/(1-p)=2; expectation preserved.
  size_t zeros = 0;
  for (size_t i = 0; i < y.value().size(); ++i) {
    float v = y.value().data()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-5f);
    if (v == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(y.value().Mean(), 1.0f, 0.05f);
}

TEST(DropoutTest, ZeroProbabilityIsIdentity) {
  Rng rng(24);
  Variable x = RandParam(3, 3, &rng);
  Variable y = Dropout(x, 0.0f, &rng, /*training=*/true);
  EXPECT_TRUE(y.value().AllClose(x.value()));
}

// ---------------------------------------------------------------------------
// InferenceMode: the thread-local scope that switches the tape off.
// ---------------------------------------------------------------------------

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(InferenceModeTest, OpsRecordNoInputsAndNoGrad) {
  Rng rng(30);
  Variable x = RandParam(3, 4, &rng);
  Variable w = RandParam(4, 2, &rng);
  Variable taped = Relu(MatMul(x, w));
  ASSERT_TRUE(taped.requires_grad());
  ASSERT_FALSE(taped.node()->inputs.empty());
  InferenceMode guard;
  Variable y = Relu(MatMul(x, w));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->inputs.empty());
  EXPECT_FALSE(static_cast<bool>(y.node()->backward));
  EXPECT_TRUE(BitEqual(y.value(), taped.value()));
}

TEST(InferenceModeTest, PreviousModeReturnsAfterNestingAndThrow) {
  ASSERT_FALSE(InferenceMode::active());
  {
    InferenceMode outer;
    EXPECT_TRUE(InferenceMode::active());
    {
      InferenceMode inner;
      EXPECT_TRUE(InferenceMode::active());
    }
    EXPECT_TRUE(InferenceMode::active());
  }
  EXPECT_FALSE(InferenceMode::active());
  try {
    InferenceMode guard;
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(InferenceMode::active());
  Variable x = Parameter(Matrix::FromRows({{2.0f}}));
  EXPECT_TRUE(Scale(x, 3.0f).requires_grad());
}

TEST(InferenceModeTest, DropoutIsIdentityAndDrawsNothing) {
  Rng rng(31);
  Rng untouched(31);
  Variable x = RandParam(8, 8, &rng);
  untouched = rng;
  InferenceMode guard;
  Variable y = Dropout(x, 0.5f, &rng, /*training=*/true);
  EXPECT_TRUE(BitEqual(y.value(), x.value()));
  EXPECT_EQ(rng.NextU64(), untouched.NextU64());
}

// Composite: a 2-layer MLP-like graph, all gradients checked at once.
TEST(GradCheck, CompositeTwoLayerNetwork) {
  Rng rng(25);
  Matrix x = Matrix::Randn(5, 4, &rng);
  ExpectGradientsClose(
      [x](const std::vector<Variable>& p) {
        Variable h = Relu(AddRowBroadcast(MatMul(Constant(x), p[0]), p[1]));
        Variable out = Sigmoid(MatMul(h, p[2]));
        return ReduceMean(Mul(out, out));
      },
      {RandParam(4, 3, &rng), RandParam(1, 3, &rng), RandParam(3, 1, &rng)});
}

// End-to-end FD check through the adaptive hypergraph convolution's
// attention path (Eqs. 14-16: LeakyReLU-scored segment softmax over
// incidence pairs, trainable per-edge weights, multi-head). The conv's
// Parameters() share state with its internals, so perturbing them in
// ExpectGradientsClose drives fresh Forward() passes.
TEST(GradCheck, AdaptiveHypergraphConvAttention) {
  Rng rng(57);
  hypergraph::Hypergraph hg(5);
  ASSERT_TRUE(hg.AddEdge({0, 1, 2}).ok());
  ASSERT_TRUE(hg.AddEdge({1, 3}).ok());
  ASSERT_TRUE(hg.AddEdge({0, 2, 3, 4}).ok());
  core::AdaptiveHypergraphConv conv(hg, /*in_features=*/3, /*out_features=*/4,
                                    &rng, /*use_attention=*/true,
                                    /*leaky_slope=*/0.2f, /*num_heads=*/2);
  Matrix x = Matrix::Randn(5, 3, &rng, 0.0f, 0.5f);
  // Random fixed readout weights break the symmetry of a plain sum, so
  // every output entry carries a distinct gradient direction.
  Matrix readout = Matrix::Randn(5, 4, &rng);
  ExpectGradientsClose(
      [&conv, x, readout](const std::vector<Variable>&) {
        return ReduceSum(MulConst(conv.Forward(Constant(x)), readout));
      },
      conv.Parameters(),
      // The path crosses LeakyReLU and ReLU kinks; a smaller FD step keeps
      // the two-sided evaluations on one side of each kink.
      /*epsilon=*/1e-3f);
}

// Supervised contrastive loss (Eq. 20) away from the default t=0.3, in
// both the sharp (t < default) and flat (t > default) regimes, with one
// anchor that has no positive pair (exercising the exclusion branch).
TEST(GradCheck, SupervisedContrastiveLossNonDefaultTemperature) {
  Rng rng(37);
  const std::vector<int> anchors = {0, 0, 0, 1, 1, 2};
  const std::vector<bool> positive = {true, false, true, false, true, false};
  for (float temperature : {0.07f, 1.5f}) {
    ExpectGradientsClose(
        [&anchors, &positive, temperature](const std::vector<Variable>& p) {
          return nn::SupervisedContrastiveLoss(p[0], anchors,
                                               /*num_anchors=*/3, positive,
                                               temperature);
        },
        {RandParam(6, 1, &rng, 0.25f)},
        // Sharper curvature at small t needs a smaller FD step.
        /*epsilon=*/1e-3f);
  }
}

}  // namespace
}  // namespace ahntp::autograd
