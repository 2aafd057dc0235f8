// Kernel-digest golden test: pins the exact float bits the dense MatMul
// kernels and a short AHNTP training run produce, once per kernel ISA this
// host supports, against tests/golden/kernel_digests_<isa>.golden.
//
// Two sections per ISA:
//   - one FNV-1a hash per MatMul over a shape grid: the NN, NT and TN forms
//     at m in {1, 9, 64, 73}, k in {1, 3, 64, 65, 1000} and
//     n in {1, 7, 8, 32, 64, 72}. A carries +0 and -0 entries, and one
//     contraction index p is zero in every row of A while B's row (or, for
//     NT, column) p holds +-inf and NaN: the NN and TN kernels skip a zero
//     multiplier, so those specials must never reach their outputs, and
//     the NT form (no skip) must turn exactly those columns into NaN. The
//     grid runs at threads 1 and 3 and both must hash the same;
//   - the loss bits of every epoch and a parameter hash after 3 full-batch
//     epochs of AHNTP with hidden dims {64, 32, 16}, so the training-shaped
//     matrix-vector and register-tiled paths all run.
//
// NaN payloads are folded to one pattern before hashing: which NaN an FMA
// propagates depends on the instruction form the compiler picks, not on
// the kernel. Every other bit, signed zeros included, is hashed.
//
// To refresh after an intentional numerical change:
//
//   ./build/tests/kernel_golden_test --update_golden
//
// (or set AHNTP_UPDATE_GOLDEN=1). The refreshed files are written back into
// the source tree via AHNTP_SOURCE_DIR.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/model_zoo.h"
#include "core/trainer.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/split.h"
#include "tensor/matrix.h"
#include "test_util.h"

namespace ahntp {
namespace {

using tensor::Matrix;

std::string GoldenPath(KernelIsa isa) {
  return std::string(AHNTP_SOURCE_DIR) + "/tests/golden/kernel_digests_" +
         KernelIsaName(isa) + ".golden";
}

/// FNV-1a over the bit patterns of `n` floats, NaNs folded to 0x7fc00000.
uint64_t HashFloats(const float* data, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits = 0x7fc00000u;
    if (!std::isnan(data[i])) std::memcpy(&bits, &data[i], sizeof(bits));
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

enum class Form { kNN, kNT, kTN };

const char* FormName(Form form) {
  switch (form) {
    case Form::kNN: return "NN";
    case Form::kNT: return "NT";
    case Form::kTN: return "TN";
  }
  return "?";
}

/// Operands of op(A) * op(B) with op(A) m x k and op(B) k x n, stored as
/// the form reads them. About a quarter of A's entries are +-0; for k >= 3
/// the last contraction index is zero in every row of op(A) and op(B)'s
/// entries at that index cycle through +inf, NaN, -inf and a finite value.
void MakeOperands(Form form, size_t m, size_t k, size_t n, Matrix* a,
                  Matrix* b) {
  Rng rng(1000003 * m + 1009 * k + n);
  Matrix op_a = Matrix::Randn(m, k, &rng);  // op(A), logical layout
  Matrix op_b = Matrix::Randn(k, n, &rng);  // op(B), logical layout
  for (size_t i = 0; i < op_a.size(); ++i) {
    if (rng.NextBounded(4) == 0) op_a.data()[i] = i % 2 == 0 ? 0.0f : -0.0f;
  }
  for (size_t i = 0; i < op_b.size(); ++i) {
    if (rng.NextBounded(8) == 0) op_b.data()[i] = -0.0f;
  }
  if (k >= 3) {
    const size_t p = k - 1;
    const float specials[] = {std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::infinity(), 1.5f};
    for (size_t i = 0; i < m; ++i) op_a.At(i, p) = i % 2 == 0 ? 0.0f : -0.0f;
    for (size_t j = 0; j < n; ++j) op_b.At(p, j) = specials[j % 4];
  }
  *a = form == Form::kTN ? op_a.Transposed() : op_a;
  *b = form == Form::kNT ? op_b.Transposed() : op_b;
}

/// One line per MatMul of the grid: form, shape and output hash.
std::string RenderMatMulGrid() {
  std::string out;
  for (Form form : {Form::kNN, Form::kNT, Form::kTN}) {
    for (size_t m : {1, 9, 64, 73}) {
      for (size_t k : {1, 3, 64, 65, 1000}) {
        for (size_t n : {1, 7, 8, 32, 64, 72}) {
          Matrix a, b;
          MakeOperands(form, m, k, n, &a, &b);
          Matrix c = tensor::MatMul(a, b, form == Form::kTN,
                                    form == Form::kNT);
          out += StrFormat("matmul %s m=%zu k=%zu n=%zu %016llx\n",
                           FormName(form), m, k, n,
                           static_cast<unsigned long long>(
                               HashFloats(c.data(), c.size(), kFnvOffset)));
        }
      }
    }
  }
  return out;
}

/// Per-epoch loss bits and a parameter hash after 3 full-batch epochs.
std::string RenderTraining() {
  data::GeneratorConfig gen = data::GeneratorConfig::CiaoLike(0.03);
  gen.seed = 5;
  const data::SocialDataset dataset =
      data::SocialNetworkGenerator(gen).Generate();
  const Matrix features = data::BuildFeatureMatrix(dataset);
  data::SplitOptions split_options;
  split_options.seed = 5;
  const data::TrustSplit split = data::MakeSplit(dataset, split_options);
  auto graph = dataset.GraphFromEdges(split.train_positive);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  if (!graph.ok()) return "";
  const graph::Digraph train_graph = std::move(graph).value();

  Rng rng(5);
  models::ModelInputs inputs;
  inputs.features = &features;
  inputs.graph = &train_graph;
  inputs.dataset = &dataset;
  inputs.hidden_dims = {64, 32, 16};
  inputs.rng = &rng;
  core::AhntpConfig config;
  config.hidden_dims = inputs.hidden_dims;
  auto spec = core::CreateEncoder("AHNTP", inputs, config);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  if (!spec.ok()) return "";
  models::TrustPredictor predictor(spec.value().encoder,
                                   models::TrustPredictorConfig{}, &rng);

  core::TrainerConfig trainer_config;
  trainer_config.epochs = 3;
  trainer_config.batch_size = 0;
  trainer_config.use_contrastive = spec.value().use_contrastive;
  trainer_config.seed = 5;
  core::Trainer trainer(trainer_config);
  auto fit = trainer.Fit(&predictor, split.train_pairs);
  EXPECT_TRUE(fit.ok()) << fit.status().ToString();
  if (!fit.ok()) return "";

  std::string out;
  for (const core::EpochStats& epoch : fit.value().history) {
    uint64_t bits = 0;
    std::memcpy(&bits, &epoch.loss, sizeof(bits));
    out += StrFormat("train epoch=%d loss=%016llx\n", epoch.epoch,
                     static_cast<unsigned long long>(bits));
  }
  uint64_t h = kFnvOffset;
  size_t count = 0;
  for (const autograd::Variable& p : predictor.Parameters()) {
    h = HashFloats(p.value().data(), p.value().size(), h);
    count += p.value().size();
  }
  out += StrFormat("train params=%zu %016llx\n", count,
                   static_cast<unsigned long long>(h));
  return out;
}

class KernelGoldenTest : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    if (!KernelIsaSupported(GetParam())) {
      GTEST_SKIP() << KernelIsaName(GetParam()) << " not supported here";
    }
    saved_isa_ = ActiveKernelIsa();
    saved_threads_ = NumThreads();
    SetKernelIsa(GetParam());
  }
  void TearDown() override {
    SetKernelIsa(saved_isa_);
    SetNumThreads(saved_threads_);
  }

 private:
  KernelIsa saved_isa_ = KernelIsa::kScalar;
  int saved_threads_ = 1;
};

TEST_P(KernelGoldenTest, MatMulGridAndTrainingMatchGolden) {
  SetNumThreads(1);
  const std::string grid = RenderMatMulGrid();
  SetNumThreads(3);
  EXPECT_EQ(grid, RenderMatMulGrid()) << "MatMul grid drifted at threads=3";
  SetNumThreads(1);
  const std::string observed =
      StrFormat("# MatMul grid and 3-epoch AHNTP training digests, %s "
                "kernels.\n# Regenerate: ./build/tests/kernel_golden_test "
                "--update_golden\n",
                KernelIsaName(GetParam())) +
      grid + RenderTraining();
  testing::ExpectMatchesGolden(observed, GoldenPath(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Isas, KernelGoldenTest,
                         ::testing::Values(KernelIsa::kScalar,
                                           KernelIsa::kAvx2),
                         [](const auto& info) {
                           return std::string(KernelIsaName(info.param));
                         });

}  // namespace
}  // namespace ahntp

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  ahntp::testing::ParseUpdateGolden(argc, argv);
  return RUN_ALL_TESTS();
}
