// Tests for serialization, LR schedules, gradient clipping, and the extra
// autograd ops.

#include <cmath>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/scheduler.h"
#include "nn/serialization.h"
#include "test_util.h"

namespace ahntp::nn {
namespace {

using autograd::Variable;
using tensor::Matrix;

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(SerializationTest, RoundTripRestoresExactValues) {
  Rng rng(1);
  Mlp original({6, 5, 4}, &rng);
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_test.bin";
  ASSERT_TRUE(SaveModule(original, path).ok());

  Rng rng2(99);  // different init
  Mlp restored({6, 5, 4}, &rng2);
  // Sanity: different before loading.
  EXPECT_FALSE(restored.Parameters()[0].value().AllClose(
      original.Parameters()[0].value(), 1e-6f));
  ASSERT_TRUE(LoadModule(&restored, path).ok());
  auto a = original.Parameters();
  auto b = restored.Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].value().AllClose(b[i].value(), 0.0f));
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, RestoredModelComputesIdenticalOutputs) {
  Rng rng(2);
  Mlp original({4, 3}, &rng);
  original.SetTraining(false);
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_test2.bin";
  ASSERT_TRUE(SaveModule(original, path).ok());
  Rng rng2(3);
  Mlp restored({4, 3}, &rng2);
  restored.SetTraining(false);
  ASSERT_TRUE(LoadModule(&restored, path).ok());
  Variable x = autograd::Constant(Matrix::Randn(5, 4, &rng));
  EXPECT_TRUE(restored.Forward(x).value().AllClose(
      original.Forward(x).value(), 0.0f));
  std::remove(path.c_str());
}

TEST(SerializationTest, ShapeMismatchRejectedWithoutMutation) {
  Rng rng(4);
  Mlp small({3, 2}, &rng);
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_test3.bin";
  ASSERT_TRUE(SaveModule(small, path).ok());
  Mlp different({4, 2}, &rng);
  Matrix before = different.Parameters()[0].value();
  Status status = LoadModule(&different, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(different.Parameters()[0].value().AllClose(before, 0.0f));
  std::remove(path.c_str());
}

TEST(SerializationTest, CountMismatchRejected) {
  Rng rng(5);
  Mlp two_layer({3, 3, 3}, &rng);
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_test4.bin";
  ASSERT_TRUE(SaveModule(two_layer, path).ok());
  Mlp one_layer({3, 3}, &rng);
  EXPECT_FALSE(LoadModule(&one_layer, path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, GarbageFileIsCorruption) {
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  Rng rng(6);
  Mlp mlp({2, 2}, &rng);
  Status status = LoadModule(&mlp, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileIsIoError) {
  Rng rng(7);
  Mlp mlp({2, 2}, &rng);
  EXPECT_EQ(LoadModule(&mlp, "/no/such/checkpoint.bin").code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Schedulers
// ---------------------------------------------------------------------------

TEST(SchedulerTest, ConstantLr) {
  ConstantLr schedule(0.01f);
  EXPECT_FLOAT_EQ(schedule.Rate(0), 0.01f);
  EXPECT_FLOAT_EQ(schedule.Rate(1000), 0.01f);
}

TEST(SchedulerTest, StepDecayHalvesOnSchedule) {
  StepDecayLr schedule(1.0f, 10, 0.5f);
  EXPECT_FLOAT_EQ(schedule.Rate(0), 1.0f);
  EXPECT_FLOAT_EQ(schedule.Rate(9), 1.0f);
  EXPECT_FLOAT_EQ(schedule.Rate(10), 0.5f);
  EXPECT_FLOAT_EQ(schedule.Rate(25), 0.25f);
}

TEST(SchedulerTest, CosineAnnealsToFloor) {
  CosineLr schedule(1.0f, 100, 0.1f);
  EXPECT_FLOAT_EQ(schedule.Rate(0), 1.0f);
  EXPECT_NEAR(schedule.Rate(50), 0.55f, 1e-5f);
  EXPECT_NEAR(schedule.Rate(100), 0.1f, 1e-5f);
  EXPECT_FLOAT_EQ(schedule.Rate(150), 0.1f);
  // Monotone decreasing.
  for (int e = 1; e < 100; ++e) {
    EXPECT_LE(schedule.Rate(e), schedule.Rate(e - 1) + 1e-7f);
  }
}

TEST(SchedulerTest, WarmupRampsLinearly) {
  WarmupLr schedule(1.0f, 4);
  EXPECT_FLOAT_EQ(schedule.Rate(0), 0.25f);
  EXPECT_FLOAT_EQ(schedule.Rate(1), 0.5f);
  EXPECT_FLOAT_EQ(schedule.Rate(3), 1.0f);
  EXPECT_FLOAT_EQ(schedule.Rate(10), 1.0f);
}

TEST(SchedulerTest, OptimizerAcceptsRateUpdates) {
  Variable w = autograd::Parameter(Matrix(1, 1, 1.0f));
  Adam adam({w}, 0.1f);
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.1f);
  adam.set_learning_rate(0.01f);
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.01f);
  Sgd sgd({w}, 0.1f);
  sgd.set_learning_rate(0.2f);
  EXPECT_FLOAT_EQ(sgd.learning_rate(), 0.2f);
}

// ---------------------------------------------------------------------------
// Gradient clipping
// ---------------------------------------------------------------------------

TEST(ClipTest, LargeGradientsScaledToMaxNorm) {
  Variable w = autograd::Parameter(Matrix::FromRows({{3.0f, 4.0f}}));
  autograd::ReduceSum(autograd::Mul(w, w)).Backward();  // grad = (6, 8)
  float norm = ClipGradientNorm({w}, 5.0f);
  EXPECT_NEAR(norm, 10.0f, 1e-4f);
  EXPECT_NEAR(w.grad().At(0, 0), 3.0f, 1e-4f);
  EXPECT_NEAR(w.grad().At(0, 1), 4.0f, 1e-4f);
}

TEST(ClipTest, SmallGradientsUntouched) {
  Variable w = autograd::Parameter(Matrix::FromRows({{0.1f}}));
  autograd::ReduceSum(w).Backward();  // grad = 1
  float norm = ClipGradientNorm({w}, 5.0f);
  EXPECT_NEAR(norm, 1.0f, 1e-6f);
  EXPECT_NEAR(w.grad().At(0, 0), 1.0f, 1e-6f);
}

TEST(ClipTest, GlobalNormSpansParameters) {
  Variable a = autograd::Parameter(Matrix::FromRows({{3.0f}}));
  Variable b = autograd::Parameter(Matrix::FromRows({{4.0f}}));
  autograd::ReduceSum(
      autograd::Add(autograd::Scale(a, 3.0f), autograd::Scale(b, 4.0f)))
      .Backward();  // grads 3 and 4
  float norm = ClipGradientNorm({a, b}, 1.0f);
  EXPECT_NEAR(norm, 5.0f, 1e-4f);
  // Both scaled by the same 1/5 factor.
  EXPECT_NEAR(a.grad().At(0, 0), 0.6f, 1e-4f);
  EXPECT_NEAR(b.grad().At(0, 0), 0.8f, 1e-4f);
}

// ---------------------------------------------------------------------------
// New autograd ops
// ---------------------------------------------------------------------------

TEST(GradCheckExtras, SqrtAbsPow) {
  Rng rng(10);
  Matrix positive = Matrix::RandUniform(3, 3, &rng, 0.5f, 2.0f);
  ahntp::testing::ExpectGradientsClose(
      [](const std::vector<Variable>& p) {
        return autograd::ReduceSum(autograd::Add(
            autograd::Sqrt(p[0]),
            autograd::Add(autograd::Abs(p[0]),
                          autograd::PowScalar(p[0], 1.7f))));
      },
      {autograd::Parameter(positive)});
}

TEST(AbsTest, ValuesNonNegative) {
  Variable x = autograd::Parameter(Matrix::FromRows({{-2.0f, 3.0f, 0.0f}}));
  Variable y = autograd::Abs(x);
  EXPECT_EQ(y.value().At(0, 0), 2.0f);
  EXPECT_EQ(y.value().At(0, 1), 3.0f);
  EXPECT_EQ(y.value().At(0, 2), 0.0f);
}

}  // namespace
}  // namespace ahntp::nn
