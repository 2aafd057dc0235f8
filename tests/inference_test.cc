// Tests for the tape-free compiled inference path: bitwise parity with the
// autograd tape across the whole model zoo and thread counts, workspace
// arena reuse, cache invalidation on weight changes, and the recursive
// training-flag contract.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "core/model_zoo.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/split.h"
#include "models/inference_plan.h"
#include "models/trust_predictor.h"
#include "nn/infer.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/serialization.h"
#include "serve/backend.h"
#include "tensor/quant.h"
#include "tensor/workspace.h"

namespace ahntp {
namespace {

using models::TrustPredictor;

// ---------------------------------------------------------------------------
// Fixture: generated dataset + inputs, same shape as models_test.
// ---------------------------------------------------------------------------

class InferenceFixture {
 public:
  InferenceFixture() : rng_(123) {
    data::GeneratorConfig config;
    config.num_users = 60;
    config.num_items = 80;
    config.num_communities = 3;
    config.avg_trust_out_degree = 5.0;
    config.avg_purchases_per_user = 6.0;
    config.seed = 7;
    dataset_ = data::SocialNetworkGenerator(config).Generate();
    split_ = data::MakeSplit(dataset_);
    graph_ = dataset_.GraphFromEdges(split_.train_positive).value();
    features_ = data::BuildFeatureMatrix(dataset_);

    hypergraph::Hypergraph attr = hypergraph::BuildAttributeHypergroup(
        dataset_.num_users, dataset_.attributes);
    hypergraph::Hypergraph pairwise =
        hypergraph::BuildPairwiseHypergroup(graph_);
    hypergraph_ = hypergraph::Hypergraph::Concat(attr, pairwise);

    inputs_.features = &features_;
    inputs_.graph = &graph_;
    inputs_.dataset = &dataset_;
    inputs_.hypergraph = &hypergraph_;
    inputs_.hidden_dims = {16, 8};
    // Non-zero dropout so parity also proves eval mode skips it.
    inputs_.dropout = 0.3f;
    inputs_.rng = &rng_;
  }

  models::ModelInputs inputs() { return inputs_; }

  /// The predictor keeps `inputs.rng` for dropout, so the fixture owns
  /// each predictor's Rng at a stable address for the life of the process.
  std::unique_ptr<TrustPredictor> MakePredictor(const std::string& name,
                                                uint64_t seed) {
    predictor_rngs_.push_back(std::make_unique<Rng>(seed));
    models::ModelInputs inputs = inputs_;
    inputs.rng = predictor_rngs_.back().get();
    auto created = core::CreatePredictor(name, inputs, core::AhntpConfig{});
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return std::move(created).value();
  }

  std::vector<data::TrustPair> Queries(size_t n) const {
    std::vector<data::TrustPair> pairs;
    for (size_t i = 0; i < n; ++i) {
      pairs.push_back({static_cast<int>(i % dataset_.num_users),
                       static_cast<int>((3 * i + 1) % dataset_.num_users),
                       1.0f});
    }
    return pairs;
  }

 private:
  Rng rng_;
  data::SocialDataset dataset_;
  data::TrustSplit split_;
  graph::Digraph graph_{0};
  tensor::Matrix features_;
  hypergraph::Hypergraph hypergraph_{0};
  models::ModelInputs inputs_;
  std::vector<std::unique_ptr<Rng>> predictor_rngs_;
};

InferenceFixture& Fixture() {
  static InferenceFixture* fixture = new InferenceFixture();
  return *fixture;
}

/// Tape-path reference probabilities: eval-mode Forward, no plan involved.
std::vector<float> TapeProbabilities(TrustPredictor* predictor,
                                     const std::vector<data::TrustPair>& pairs) {
  bool was_training = predictor->training();
  predictor->SetTraining(false);
  TrustPredictor::PairOutput out = predictor->Forward(pairs);
  predictor->SetTraining(was_training);
  std::vector<float> probs(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    probs[i] = out.probability.value().At(i, 0);
  }
  return probs;
}

// ---------------------------------------------------------------------------
// Compiled-vs-tape parity across the entire model zoo and thread counts.
// ---------------------------------------------------------------------------

class CompiledParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CompiledParityTest, BitIdenticalToTapeAtEveryThreadCount) {
  auto predictor = Fixture().MakePredictor(GetParam(), 42);
  std::vector<data::TrustPair> pairs = Fixture().Queries(17);
  std::vector<float> reference = TapeProbabilities(predictor.get(), pairs);

  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    // Invalidate so the all-user encode itself reruns at this thread count.
    predictor->InvalidateCaches();
    std::vector<float> compiled = predictor->PredictProbabilities(pairs);
    ASSERT_EQ(compiled.size(), reference.size());
    for (size_t i = 0; i < compiled.size(); ++i) {
      EXPECT_EQ(compiled[i], reference[i])
          << GetParam() << " pair " << i << " threads=" << threads;
    }
  }
  SetNumThreads(0);
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, CompiledParityTest,
                         ::testing::ValuesIn(core::AvailableModels()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Layer-level parity: InferLinear / InferMlp.
// ---------------------------------------------------------------------------

tensor::Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  tensor::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Uniform(-2.0f, 2.0f);
  }
  return m;
}

TEST(InferLayersTest, LinearMatchesTapeBitwise) {
  Rng rng(1);
  nn::Linear layer(6, 4, &rng);
  tensor::Matrix x = RandomMatrix(9, 6, &rng);
  tensor::Matrix tape = layer.Forward(autograd::Constant(x)).value();
  tensor::Workspace ws;
  tensor::Matrix& compiled = nn::InferLinear(layer, x, &ws);
  ASSERT_EQ(compiled.rows(), tape.rows());
  ASSERT_EQ(compiled.cols(), tape.cols());
  for (size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(compiled.data()[i], tape.data()[i]) << "entry " << i;
  }
}

TEST(InferLayersTest, MlpMatchesEvalTapeBitwise) {
  Rng rng(2);
  nn::Mlp mlp({6, 5, 3}, &rng, nn::Activation::kRelu, nn::Activation::kNone,
              /*dropout=*/0.5f);
  mlp.SetTraining(false);
  tensor::Matrix x = RandomMatrix(7, 6, &rng);
  tensor::Matrix tape = mlp.Forward(autograd::Constant(x)).value();
  tensor::Workspace ws;
  tensor::Matrix& compiled = nn::InferMlp(mlp, x, &ws);
  ASSERT_EQ(compiled.rows(), tape.rows());
  ASSERT_EQ(compiled.cols(), tape.cols());
  for (size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(compiled.data()[i], tape.data()[i]) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Workspace arena semantics.
// ---------------------------------------------------------------------------

TEST(WorkspaceTest, ResetReusesSlotsInOrder) {
  tensor::Workspace ws;
  tensor::Matrix* a = ws.Acquire(4, 4);
  tensor::Matrix* b = ws.Acquire(2, 8);
  ws.Reset();
  EXPECT_EQ(ws.Acquire(4, 4), a);
  EXPECT_EQ(ws.Acquire(2, 8), b);
  EXPECT_EQ(ws.num_slots(), 2u);
}

TEST(WorkspaceTest, SteadyStateLoopIsAllocationFree) {
  tensor::Workspace ws;
  // Warm-up pass establishes the slots.
  ws.Acquire(10, 3);
  ws.Acquire(5, 5);
  ws.Reset();
  size_t warmed = ws.allocations();
  for (int i = 0; i < 100; ++i) {
    ws.Acquire(10, 3);
    ws.Acquire(5, 5);
    ws.Reset();
  }
  EXPECT_EQ(ws.allocations(), warmed);
  // A larger request grows a buffer: allocations must tick up.
  ws.Acquire(20, 20);
  EXPECT_GT(ws.allocations(), warmed);
}

TEST(WorkspaceTest, AcquireWithinCapacityDoesNotCount) {
  tensor::Workspace ws;
  ws.Acquire(8, 8);
  ws.Reset();
  size_t warmed = ws.allocations();
  // Smaller shape fits in the existing 64-float buffer.
  ws.Acquire(4, 4);
  EXPECT_EQ(ws.allocations(), warmed);
}

TEST(InferencePlanTest, ScoringLoopIsAllocationFreeOnceWarm) {
  auto predictor = Fixture().MakePredictor("AHNTP", 11);
  std::vector<data::TrustPair> pairs = Fixture().Queries(12);
  predictor->WarmInferencePlan();
  (void)predictor->PredictProbabilities(pairs);  // warms the scoring slots
  const models::InferencePlan* plan = predictor->inference_plan();
  ASSERT_NE(plan, nullptr);
  size_t warmed = plan->workspace().allocations();
  for (int i = 0; i < 20; ++i) {
    (void)predictor->PredictProbabilities(pairs);
  }
  EXPECT_EQ(plan->workspace().allocations(), warmed);

  // The spilled layout, with the cap at K so every block stays resident
  // once the first batches have faulted them in.
  const std::string spill_dir =
      ::testing::TempDir() + "/inference_alloc_spill_" +
      std::to_string(::getpid());
  models::ShardedPlanOptions opts;
  opts.num_shards = 3;
  opts.max_resident_shards = 3;
  opts.spill_dir = spill_dir;
  predictor->EnableShardedInference(opts);
  predictor->WarmInferencePlan();
  (void)predictor->PredictProbabilities(pairs);
  const models::InferencePlan* spilled = predictor->inference_plan();
  ASSERT_NE(spilled->store(), nullptr);
  ASSERT_TRUE(spilled->store()->spilled());
  warmed = spilled->workspace().allocations();
  for (int i = 0; i < 20; ++i) {
    (void)predictor->PredictProbabilities(pairs);
  }
  EXPECT_EQ(spilled->workspace().allocations(), warmed);
  predictor->DisableShardedInference();
  std::filesystem::remove_all(spill_dir);
}

// ---------------------------------------------------------------------------
// Cache invalidation: weights must never go stale.
// ---------------------------------------------------------------------------

TEST(InferencePlanTest, TrainingForwardInvalidatesThePlan) {
  auto predictor = Fixture().MakePredictor("SGC", 21);
  std::vector<data::TrustPair> pairs = Fixture().Queries(6);
  (void)predictor->PredictProbabilities(pairs);
  ASSERT_NE(predictor->inference_plan(), nullptr);
  EXPECT_TRUE(predictor->inference_plan()->built());

  predictor->SetTraining(true);
  (void)predictor->Forward(pairs);
  EXPECT_FALSE(predictor->inference_plan()->built());
}

TEST(InferencePlanTest, ManualWeightEditTracksTapeAfterInvalidate) {
  auto predictor = Fixture().MakePredictor("SGC", 22);
  std::vector<data::TrustPair> pairs = Fixture().Queries(8);
  (void)predictor->PredictProbabilities(pairs);

  // Mutate a parameter in place, as an optimizer step would.
  std::vector<autograd::Variable> params = predictor->Parameters();
  ASSERT_FALSE(params.empty());
  for (size_t i = 0; i < params[0].value().size(); ++i) {
    params[0].mutable_value().data()[i] *= 1.5f;
  }
  predictor->InvalidateCaches();

  std::vector<float> compiled = predictor->PredictProbabilities(pairs);
  std::vector<float> tape = TapeProbabilities(predictor.get(), pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(compiled[i], tape[i]) << "pair " << i;
  }
}

TEST(InferencePlanTest, LoadModuleInvalidatesCachedEmbeddings) {
  auto source = Fixture().MakePredictor("SGC", 31);
  auto target = Fixture().MakePredictor("SGC", 32);
  std::vector<data::TrustPair> pairs = Fixture().Queries(9);

  std::vector<float> source_probs = target->PredictProbabilities(pairs);
  (void)source_probs;  // plan built on the pre-load weights

  std::string path = ::testing::TempDir() + "/inference_plan_load.ckpt";
  ASSERT_TRUE(nn::SaveModule(*source, path).ok());
  ASSERT_TRUE(nn::LoadModule(target.get(), path).ok());
  std::filesystem::remove(path);

  // Post-load predictions must reflect the loaded weights, not the cache.
  std::vector<float> loaded = target->PredictProbabilities(pairs);
  std::vector<float> expected = TapeProbabilities(source.get(), pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(loaded[i], expected[i]) << "pair " << i;
  }
}

// ---------------------------------------------------------------------------
// Serving: reload keeps the plan fresh, failures keep the old plan serving.
// ---------------------------------------------------------------------------

serve::ModelBackend::Factory MakeBackendFactory(uint64_t seed) {
  return [seed]() { return Fixture().MakePredictor("AHNTP", seed); };
}

TEST(BackendPlanTest, ReloadServesTheLoadedWeightsThroughThePlan) {
  auto factory = MakeBackendFactory(5);
  serve::ModelBackend backend(factory, factory());
  std::vector<data::TrustPair> pairs = Fixture().Queries(6);

  auto other = Fixture().MakePredictor("AHNTP", 99);
  std::string path = ::testing::TempDir() + "/inference_reload.ckpt";
  ASSERT_TRUE(nn::SaveModule(*other, path).ok());

  auto before = backend.ScoreBatch(pairs);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(backend.Reload(path).ok());
  std::filesystem::remove(path);

  auto after = backend.ScoreBatch(pairs);
  ASSERT_TRUE(after.ok());
  std::vector<float> expected = TapeProbabilities(other.get(), pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*after)[i], expected[i]) << "pair " << i;
  }
}

TEST(BackendPlanTest, ShardedReloadsKeepOneSpillDirectory) {
  const std::string spill_dir = ::testing::TempDir() +
                                "/inference_reload_spill_" +
                                std::to_string(::getpid());
  std::filesystem::remove_all(spill_dir);
  auto plan_dirs = [&spill_dir]() {
    size_t n = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(spill_dir, ec)) {
      if (entry.path().filename().string().rfind("plan_", 0) == 0) ++n;
    }
    return n;
  };
  auto factory = MakeBackendFactory(8);
  std::string path = ::testing::TempDir() + "/inference_reload_spill.ckpt";
  ASSERT_TRUE(nn::SaveModule(*factory(), path).ok());
  models::ShardedPlanOptions opts;
  opts.num_shards = 3;
  opts.max_resident_shards = 1;
  opts.spill_dir = spill_dir;
  std::vector<data::TrustPair> pairs = Fixture().Queries(6);
  {
    serve::ModelBackend backend(factory, factory(), opts);
    EXPECT_EQ(plan_dirs(), 1u);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(backend.Reload(path).ok());
      ASSERT_TRUE(backend.ScoreBatch(pairs).ok());
      EXPECT_EQ(plan_dirs(), 1u) << "after reload " << i + 1;
    }
  }
  EXPECT_EQ(plan_dirs(), 0u);
  std::filesystem::remove(path);
  std::filesystem::remove_all(spill_dir);
}

TEST(BackendPlanTest, FaultedReloadKeepsTheWarmPlanServing) {
  auto factory = MakeBackendFactory(6);
  serve::ModelBackend backend(factory, factory());
  std::vector<data::TrustPair> pairs = Fixture().Queries(6);
  auto before = backend.ScoreBatch(pairs);
  ASSERT_TRUE(before.ok());

  auto other = Fixture().MakePredictor("AHNTP", 77);
  std::string path = ::testing::TempDir() + "/inference_reload_fault.ckpt";
  ASSERT_TRUE(nn::SaveModule(*other, path).ok());

  // Injected I/O failure at the reload fault site: the old model (and its
  // warmed plan) must keep serving identical scores.
  ASSERT_TRUE(fault::EnableFromSpec("serve.reload@1").ok());
  EXPECT_FALSE(backend.Reload(path).ok());
  fault::Disable();
  EXPECT_EQ(backend.generation(), 0);

  auto after = backend.ScoreBatch(pairs);
  ASSERT_TRUE(after.ok());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*before)[i], (*after)[i]) << "pair " << i;
  }

  // The fault cleared, the same checkpoint loads and takes effect.
  ASSERT_TRUE(backend.Reload(path).ok());
  std::filesystem::remove(path);
  EXPECT_EQ(backend.generation(), 1);
  auto reloaded = backend.ScoreBatch(pairs);
  ASSERT_TRUE(reloaded.ok());
  std::vector<float> expected = TapeProbabilities(other.get(), pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*reloaded)[i], expected[i]) << "pair " << i;
  }
}

// ---------------------------------------------------------------------------
// Training-flag contract: recursive SetTraining and save/restore.
// ---------------------------------------------------------------------------

void ExpectTrainingRecursively(nn::Module* module, bool expected) {
  EXPECT_EQ(module->training(), expected);
  for (nn::Module* sub : module->Submodules()) {
    ExpectTrainingRecursively(sub, expected);
  }
}

class SetTrainingRecursionTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(SetTrainingRecursionTest, FlagReachesEverySubmodule) {
  auto predictor = Fixture().MakePredictor(GetParam(), 55);
  predictor->SetTraining(true);
  ExpectTrainingRecursively(predictor.get(), true);
  predictor->SetTraining(false);
  ExpectTrainingRecursively(predictor.get(), false);
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, SetTrainingRecursionTest,
                         ::testing::ValuesIn(core::AvailableModels()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(SetTrainingRecursionTest, MlpPropagatesToLayers) {
  Rng rng(4);
  nn::Mlp mlp({4, 3, 2}, &rng);
  mlp.SetTraining(true);
  for (size_t i = 0; i < mlp.num_layers(); ++i) {
    EXPECT_TRUE(mlp.layer(i).training());
  }
  mlp.SetTraining(false);
  for (size_t i = 0; i < mlp.num_layers(); ++i) {
    EXPECT_FALSE(mlp.layer(i).training());
  }
}

TEST(PredictProbabilitiesTest, SavesAndRestoresTrainingFlagRecursively) {
  auto predictor = Fixture().MakePredictor("AHNTP", 66);
  std::vector<data::TrustPair> pairs = Fixture().Queries(5);

  predictor->SetTraining(true);
  (void)predictor->PredictProbabilities(pairs);
  ExpectTrainingRecursively(predictor.get(), true);

  predictor->SetTraining(false);
  (void)predictor->PredictProbabilities(pairs);
  ExpectTrainingRecursively(predictor.get(), false);
}

/// Parameter gradients of one training step (mean probability as the loss)
/// on a fresh predictor.
std::vector<tensor::Matrix> TrainingStepGradients(
    TrustPredictor* predictor, const std::vector<data::TrustPair>& pairs) {
  predictor->SetTraining(true);
  autograd::ReduceMean(predictor->Forward(pairs).probability).Backward();
  std::vector<tensor::Matrix> grads;
  for (const autograd::Variable& p : predictor->Parameters()) {
    grads.push_back(p.grad());
  }
  return grads;
}

TEST(InferenceModeThreadTest, PlanBuildBesideTrainingLeavesGradientsExact) {
  std::vector<data::TrustPair> pairs = Fixture().Queries(16);
  // Each predictor owns an Rng seeded alike, so the two training steps
  // draw the same dropout masks.
  Rng serial_rng(9), concurrent_rng(9), server_rng(10);
  auto make = [](Rng* rng) {
    models::ModelInputs inputs = Fixture().inputs();
    inputs.rng = rng;
    return core::CreatePredictor("AHNTP", inputs, core::AhntpConfig{})
        .value();
  };
  auto serial = make(&serial_rng);
  auto concurrent = make(&concurrent_rng);
  auto server = make(&server_rng);
  const std::vector<tensor::Matrix> expected =
      TrainingStepGradients(serial.get(), pairs);

  // The serving thread spends nearly all its time inside InferUsers'
  // InferenceMode scope while this thread runs the training step.
  std::atomic<bool> done{false};
  std::atomic<int> builds{0};
  std::thread serving([&] {
    while (!done.load()) {
      server->InvalidateCaches();
      server->WarmInferencePlan();
      builds.fetch_add(1);
    }
  });
  while (builds.load() == 0) std::this_thread::yield();
  const std::vector<tensor::Matrix> observed =
      TrainingStepGradients(concurrent.get(), pairs);
  done.store(true);
  serving.join();

  ASSERT_EQ(observed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(observed[i].size(), expected[i].size()) << "parameter " << i;
    for (size_t k = 0; k < expected[i].size(); ++k) {
      ASSERT_EQ(observed[i].data()[k], expected[i].data()[k])
          << "parameter " << i << " entry " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics: plan builds, cache hits/misses, workspace gauge.
// ---------------------------------------------------------------------------

TEST(InferenceMetricsTest, CountsBuildsHitsAndMisses) {
  metrics::Enable();
  metrics::Reset();
  auto predictor = Fixture().MakePredictor("SGC", 71);
  std::vector<data::TrustPair> pairs = Fixture().Queries(4);

  (void)predictor->PredictProbabilities(pairs);  // miss + build
  (void)predictor->PredictProbabilities(pairs);  // hit
  (void)predictor->PredictProbabilities(pairs);  // hit
  predictor->InvalidateCaches();
  (void)predictor->PredictProbabilities(pairs);  // miss + build

  metrics::Snapshot snapshot = metrics::Collect();
  EXPECT_EQ(snapshot.CounterValue("infer.plan_builds"), 2);
  EXPECT_EQ(snapshot.CounterValue("infer.cache_misses"), 2);
  EXPECT_EQ(snapshot.CounterValue("infer.cache_hits"), 2);
  double ws_bytes = -1.0;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "infer.workspace_bytes") ws_bytes = gauge.value;
  }
  EXPECT_GT(ws_bytes, 0.0);
  metrics::Disable();
}

// ---------------------------------------------------------------------------
// Int8 quantization: tensor-level edge cases, then plan-level behaviour.
// ---------------------------------------------------------------------------

TEST(QuantizedMatrixTest, AllZeroRowsQuantizeToExactZeros) {
  tensor::Matrix m(3, 9);
  for (size_t c = 0; c < 9; ++c) m.At(1, c) = 0.5f * (c + 1);
  // Rows 0 and 2 stay all-zero: absmax 0 => scale 0 => exact zeros out.
  auto calib = tensor::CalibrateRowAbsmax(m);
  ASSERT_TRUE(calib.ok());
  EXPECT_EQ(calib.value().absmax[0], 0.0f);
  EXPECT_EQ(calib.value().absmax[2], 0.0f);

  tensor::QuantizedMatrix q =
      tensor::QuantizedMatrix::Quantize(m, calib.value());
  EXPECT_EQ(q.scale(0), 0.0f);
  EXPECT_EQ(q.scale(2), 0.0f);
  std::vector<float> row(9, -1.0f);
  q.DequantizeRowInto(0, row.data());
  for (float v : row) EXPECT_EQ(v, 0.0f);
  for (size_t c = 0; c < 9; ++c) EXPECT_EQ(q.RowData(0)[c], 0);
}

TEST(QuantizedMatrixTest, RoundTripErrorBoundedByHalfScale) {
  Rng rng(91);
  tensor::Matrix m = tensor::Matrix::Randn(17, 33, &rng, 0.0f, 3.0f);
  auto calib = tensor::CalibrateRowAbsmax(m);
  ASSERT_TRUE(calib.ok());
  tensor::QuantizedMatrix q =
      tensor::QuantizedMatrix::Quantize(m, calib.value());
  std::vector<float> row(m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    q.DequantizeRowInto(r, row.data());
    // Round-to-nearest within the calibrated range: error <= scale / 2
    // (plus a ulp of slack for the scale multiply itself).
    const float bound = q.scale(r) * 0.5f * (1.0f + 1e-5f);
    for (size_t c = 0; c < m.cols(); ++c) {
      EXPECT_LE(std::fabs(row[c] - m.At(r, c)), bound)
          << "row " << r << " col " << c;
    }
  }
}

TEST(QuantizedMatrixTest, SaturatesSymmetricallyAtOutliers) {
  // Calibration from a narrower sweep than the live values: everything
  // beyond absmax must clamp to +/-127, never wrap and never hit -128.
  tensor::Matrix m(1, 6);
  m.At(0, 0) = 10.0f;
  m.At(0, 1) = -10.0f;
  m.At(0, 2) = 1.0f;
  m.At(0, 3) = -1.0f;
  m.At(0, 4) = 1.0001f;   // just past the calibrated range
  m.At(0, 5) = -1.0001f;
  tensor::RowCalibration calib;
  calib.absmax = {1.0f};
  ASSERT_TRUE(tensor::ValidateCalibration(calib, 1).ok());
  tensor::QuantizedMatrix q = tensor::QuantizedMatrix::Quantize(m, calib);
  EXPECT_EQ(q.RowData(0)[0], 127);
  EXPECT_EQ(q.RowData(0)[1], -127);
  EXPECT_EQ(q.RowData(0)[2], 127);
  EXPECT_EQ(q.RowData(0)[3], -127);
  EXPECT_EQ(q.RowData(0)[4], 127);
  EXPECT_EQ(q.RowData(0)[5], -127);
}

TEST(QuantizedMatrixTest, ExtremeOutlierDominatesRowScale) {
  // One huge outlier stretches the row's scale; the small entries still
  // round-trip within scale/2 (coarse, but bounded — the contract).
  tensor::Matrix m(1, 4);
  m.At(0, 0) = 1e6f;
  m.At(0, 1) = 0.001f;
  m.At(0, 2) = -0.001f;
  m.At(0, 3) = 3.0f;
  auto calib = tensor::CalibrateRowAbsmax(m);
  ASSERT_TRUE(calib.ok());
  tensor::QuantizedMatrix q =
      tensor::QuantizedMatrix::Quantize(m, calib.value());
  EXPECT_EQ(q.scale(0), 1e6f / 127.0f);
  std::vector<float> row(4);
  q.DequantizeRowInto(0, row.data());
  EXPECT_EQ(row[0], 1e6f / 127.0f * 127.0f);  // outlier itself exact-ish
  for (size_t c = 1; c < 4; ++c) {
    EXPECT_LE(std::fabs(row[c] - m.At(0, c)), q.scale(0) * 0.5f * 1.00001f);
  }
}

TEST(QuantizedMatrixTest, CalibrationRejectsNonFiniteActivations) {
  tensor::Matrix m(2, 3);
  m.At(1, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(tensor::CalibrateRowAbsmax(m).status().code(),
            StatusCode::kInvalidArgument);
  m.At(1, 1) = std::numeric_limits<float>::infinity();
  EXPECT_EQ(tensor::CalibrateRowAbsmax(m).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantizedMatrixTest, ValidateCalibrationRejectsBadStats) {
  tensor::RowCalibration calib;
  calib.absmax = {1.0f, 2.0f};
  EXPECT_TRUE(tensor::ValidateCalibration(calib, 2).ok());
  EXPECT_EQ(tensor::ValidateCalibration(calib, 3).code(),
            StatusCode::kInvalidArgument);
  calib.absmax = {1.0f, -0.5f};
  EXPECT_EQ(tensor::ValidateCalibration(calib, 2).code(),
            StatusCode::kInvalidArgument);
  calib.absmax = {1.0f, std::numeric_limits<float>::quiet_NaN()};
  EXPECT_EQ(tensor::ValidateCalibration(calib, 2).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Int8 plan behaviour: tolerance parity, byte savings, recalibration.
// ---------------------------------------------------------------------------

/// Max |a - b| over two probability vectors.
float MaxAbsDelta(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float delta = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    delta = std::max(delta, std::fabs(a[i] - b[i]));
  }
  return delta;
}

TEST(Int8PlanTest, ToleranceParityAndByteSavings) {
  auto fp32 = Fixture().MakePredictor("AHNTP", 77);
  auto int8 = Fixture().MakePredictor("AHNTP", 77);
  int8->SetInferencePrecision(models::PlanPrecision::kInt8);
  std::vector<data::TrustPair> pairs = Fixture().Queries(24);

  std::vector<float> ref = fp32->PredictProbabilities(pairs);
  std::vector<float> quant = int8->PredictProbabilities(pairs);
  // Probabilities live in [0, 1]; per-row int8 embeddings keep the cosine
  // head within a few percent. check_inference.sh additionally bounds the
  // ranking impact (AUC delta <= 0.002) over the whole zoo.
  EXPECT_LT(MaxAbsDelta(ref, quant), 0.06f);

  ASSERT_NE(fp32->inference_plan(), nullptr);
  ASSERT_NE(int8->inference_plan(), nullptr);
  EXPECT_EQ(int8->inference_plan()->precision(),
            models::PlanPrecision::kInt8);
  const size_t fp32_bytes = fp32->inference_plan()->embedding_bytes();
  const size_t int8_bytes = int8->inference_plan()->embedding_bytes();
  ASSERT_GT(fp32_bytes, 0u);
  // int8 payload + one float scale per row: strictly between 3x and 4x.
  EXPECT_GT(static_cast<double>(fp32_bytes) / int8_bytes, 3.0);
  // The float table is freed once quantized.
  EXPECT_EQ(int8->inference_plan()->embeddings().size(), 0u);
}

TEST(Int8PlanTest, SetCalibrationInvalidatesAndRequantizes) {
  auto predictor = Fixture().MakePredictor("AHNTP", 78);
  models::InferencePlan plan(predictor.get());
  plan.SetPrecision(models::PlanPrecision::kInt8);
  std::vector<data::TrustPair> pairs = Fixture().Queries(8);
  std::vector<float> before = plan.Score(pairs).value();
  ASSERT_TRUE(plan.built());
  const size_t rows = plan.calibration().rows();
  ASSERT_GT(rows, 0u);

  // Halving every absmax changes every row scale, so the plan must drop the
  // old table and requantize at the next Score().
  tensor::RowCalibration tighter;
  tighter.absmax.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    tighter.absmax[r] = plan.calibration().absmax[r] * 0.5f;
  }
  const float old_scale0 = plan.store()->resident_block(0)->quant.scale(0);
  ASSERT_TRUE(plan.SetCalibration(tighter).ok());
  EXPECT_FALSE(plan.built());
  std::vector<float> after = plan.Score(pairs).value();
  ASSERT_TRUE(plan.built());
  EXPECT_EQ(plan.store()->resident_block(0)->quant.scale(0),
            old_scale0 * 0.5f);
  EXPECT_EQ(before.size(), after.size());
}

TEST(Int8PlanTest, BadExternalCalibrationIsRejectedNotFatal) {
  auto predictor = Fixture().MakePredictor("AHNTP", 79);
  models::InferencePlan plan(predictor.get());
  plan.SetPrecision(models::PlanPrecision::kInt8);
  std::vector<data::TrustPair> pairs = Fixture().Queries(4);
  std::vector<float> before = plan.Score(pairs).value();

  tensor::RowCalibration wrong_rows;
  wrong_rows.absmax = {1.0f, 2.0f};  // dataset has 60 users
  EXPECT_EQ(plan.SetCalibration(wrong_rows).code(),
            StatusCode::kInvalidArgument);

  tensor::RowCalibration bad_values;
  bad_values.absmax.assign(plan.calibration().rows(), 1.0f);
  bad_values.absmax[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(plan.SetCalibration(bad_values).code(),
            StatusCode::kInvalidArgument);

  // A rejected calibration leaves the plan serving the old table unchanged.
  EXPECT_TRUE(plan.built());
  std::vector<float> after = plan.Score(pairs).value();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "pair " << i;
  }
}

TEST(Int8PlanTest, PrecisionChangeInvalidatesPlan) {
  auto predictor = Fixture().MakePredictor("AHNTP", 80);
  models::InferencePlan plan(predictor.get());
  std::vector<data::TrustPair> pairs = Fixture().Queries(4);
  (void)plan.Score(pairs);
  ASSERT_TRUE(plan.built());
  plan.SetPrecision(models::PlanPrecision::kInt8);
  EXPECT_FALSE(plan.built());
  (void)plan.Score(pairs);
  EXPECT_TRUE(plan.built());
  // No-op precision set keeps the table.
  plan.SetPrecision(models::PlanPrecision::kInt8);
  EXPECT_TRUE(plan.built());
}

TEST(Int8PlanTest, ShardedInt8BitIdenticalToMonolithicInt8) {
  auto mono = Fixture().MakePredictor("AHNTP", 81);
  auto sharded = Fixture().MakePredictor("AHNTP", 81);
  mono->SetInferencePrecision(models::PlanPrecision::kInt8);
  sharded->SetInferencePrecision(models::PlanPrecision::kInt8);

  const std::string spill_dir =
      "inference_test_spill_" + std::to_string(::getpid());
  models::ShardedPlanOptions opts;
  opts.num_shards = 4;
  opts.max_resident_shards = 2;
  opts.spill_dir = spill_dir;
  sharded->EnableShardedInference(opts);

  std::vector<data::TrustPair> pairs = Fixture().Queries(24);
  std::vector<float> ref = mono->PredictProbabilities(pairs);
  std::vector<float> out = sharded->PredictProbabilities(pairs);
  ASSERT_EQ(ref.size(), out.size());
  // Sharding slices one full-table calibration per shard, so every user
  // quantizes identically to the monolithic table: bitwise parity, same
  // contract as the fp32 sharded path.
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], out[i]) << "pair " << i;
  }
  std::filesystem::remove_all(spill_dir);
}

TEST(Int8PlanTest, BackendServesInt8Precision) {
  auto factory = [] { return Fixture().MakePredictor("AHNTP", 82); };
  serve::ModelBackend backend(factory, factory(), std::nullopt,
                              models::PlanPrecision::kInt8);
  std::vector<data::TrustPair> pairs = Fixture().Queries(6);
  auto scores = backend.ScoreBatch(pairs);
  ASSERT_TRUE(scores.ok());
  auto reference = Fixture().MakePredictor("AHNTP", 82);
  reference->SetInferencePrecision(models::PlanPrecision::kInt8);
  std::vector<float> expected = reference->PredictProbabilities(pairs);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(scores.value()[i], expected[i]) << "pair " << i;
  }
}

}  // namespace
}  // namespace ahntp
