// Fault-tolerance tests (DESIGN.md §10): the fault-injection registry,
// checksummed atomic checkpoints, the trainer's divergence guard, and
// resumable degraded experiment sweeps.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/fileio.h"
#include "core/experiment.h"
#include "core/model_zoo.h"
#include "core/repeated.h"
#include "core/trainer.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/io.h"
#include "nn/serialization.h"

namespace ahntp {
namespace {

using autograd::Variable;
using tensor::Matrix;

/// Every test in this file runs with a clean (disabled) registry: the
/// registry is process-global, so leaked specs would poison later tests.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Disable(); }
  void TearDown() override { fault::Disable(); }
};

// ---------------------------------------------------------------------------
// Fault-injection registry
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DisabledByDefault) {
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::ShouldInject("anything"));
  EXPECT_TRUE(fault::FaultPoint("anything", StatusCode::kIoError).ok());
  EXPECT_NO_THROW(fault::MaybeThrow("anything"));
  EXPECT_EQ(fault::InjectionCount(), 0);
}

TEST_F(FaultTest, SpecGrammarErrors) {
  EXPECT_EQ(fault::EnableFromSpec("no_at_sign").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fault::EnableFromSpec("site@").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fault::EnableFromSpec("site@zero").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fault::EnableFromSpec("site@0").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fault::EnableFromSpec("site@~1.5").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fault::EnableFromSpec("@3").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fault::Enabled());  // failed installs do not enable
  EXPECT_TRUE(fault::EnableFromSpec("a@1,b@2+,c@*,d@~0.25").ok());
  EXPECT_TRUE(fault::Enabled());
  EXPECT_TRUE(fault::EnableFromSpec("").ok());  // empty spec disables
  EXPECT_FALSE(fault::Enabled());
}

TEST_F(FaultTest, NthHitFiresExactlyOnce) {
  ASSERT_TRUE(fault::EnableFromSpec("site@3").ok());
  EXPECT_FALSE(fault::ShouldInject("site"));
  EXPECT_FALSE(fault::ShouldInject("site"));
  EXPECT_TRUE(fault::ShouldInject("site"));
  EXPECT_FALSE(fault::ShouldInject("site"));
  EXPECT_EQ(fault::InjectionCount(), 1);
  // A different site never fires (no trigger installed for it).
  EXPECT_FALSE(fault::ShouldInject("other"));
}

TEST_F(FaultTest, FromNthFiresForever) {
  ASSERT_TRUE(fault::EnableFromSpec("site@2+").ok());
  EXPECT_FALSE(fault::ShouldInject("site"));
  EXPECT_TRUE(fault::ShouldInject("site"));
  EXPECT_TRUE(fault::ShouldInject("site"));
  EXPECT_EQ(fault::InjectionCount(), 2);
}

TEST_F(FaultTest, ProbabilisticTriggerIsDeterministicInSeed) {
  auto draw_sequence = [] {
    fault::Disable();
    fault::SetSeed(42);
    EXPECT_TRUE(fault::EnableFromSpec("p@~0.5").ok());
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) fires.push_back(fault::ShouldInject("p"));
    return fires;
  };
  std::vector<bool> first = draw_sequence();
  std::vector<bool> second = draw_sequence();
  EXPECT_EQ(first, second);
  int count = 0;
  for (bool b : first) count += b ? 1 : 0;
  EXPECT_GT(count, 50);   // ~100 expected; loose bounds, zero flake
  EXPECT_LT(count, 150);
  // A different seed draws a different sequence.
  fault::Disable();
  fault::SetSeed(43);
  ASSERT_TRUE(fault::EnableFromSpec("p@~0.5").ok());
  std::vector<bool> other;
  for (int i = 0; i < 200; ++i) other.push_back(fault::ShouldInject("p"));
  EXPECT_NE(first, other);
}

TEST_F(FaultTest, FaultPointIoErrorAndMaybeThrow) {
  ASSERT_TRUE(fault::EnableFromSpec("io@1,throw@1").ok());
  Status status = fault::FaultPoint("io", StatusCode::kIoError);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(fault::FaultPoint("io", StatusCode::kIoError).ok());  // one-shot
  EXPECT_THROW(fault::MaybeThrow("throw"), std::runtime_error);
  EXPECT_NO_THROW(fault::MaybeThrow("throw"));
}

// ---------------------------------------------------------------------------
// CRC32 and atomic writes
// ---------------------------------------------------------------------------

TEST(FileIoTest, Crc32KnownVector) {
  // The standard IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  // Incremental computation matches one-shot.
  uint32_t partial = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, partial), 0xCBF43926u);
}

TEST(FileIoTest, WriteFileAtomicWritesAndLeavesNoTemp) {
  std::string path = ::testing::TempDir() + "/ahntp_atomic_write.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "hello").ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "hello");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Overwrite is atomic too.
  ASSERT_TRUE(WriteFileAtomic(path, "world").ok());
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "world");
  std::filesystem::remove(path);
}

TEST(FileIoTest, WriteFileAtomicFailsCleanlyOnBadPath) {
  std::string path =
      ::testing::TempDir() + "/ahntp_no_such_dir/deeper/file.txt";
  Status status = WriteFileAtomic(path, "x");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Checkpoints: v2 round trip, corruption, v1 compatibility, save faults
// ---------------------------------------------------------------------------

std::vector<Variable> MakeParams(uint64_t seed) {
  Rng rng(seed);
  std::vector<Variable> params;
  params.push_back(autograd::Parameter(Matrix::Randn(3, 4, &rng)));
  params.push_back(autograd::Parameter(Matrix::Randn(2, 2, &rng)));
  return params;
}

bool SameValues(const std::vector<Variable>& a,
                const std::vector<Variable>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].value().AllClose(b[i].value(), 0.0f)) return false;
  }
  return true;
}

TEST_F(FaultTest, CheckpointV2RoundTrip) {
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_v2.ckpt";
  std::vector<Variable> saved = MakeParams(1);
  ASSERT_TRUE(nn::SaveParameters(saved, path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::vector<Variable> loaded = MakeParams(2);
  ASSERT_FALSE(SameValues(saved, loaded));
  ASSERT_TRUE(nn::LoadParameters(&loaded, path).ok());
  EXPECT_TRUE(SameValues(saved, loaded));
  std::filesystem::remove(path);
}

TEST_F(FaultTest, InjectedSaveFaultLeavesExistingCheckpointIntact) {
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_fault.ckpt";
  std::vector<Variable> first = MakeParams(1);
  ASSERT_TRUE(nn::SaveParameters(first, path).ok());

  ASSERT_TRUE(fault::EnableFromSpec("checkpoint.save@1").ok());
  std::vector<Variable> second = MakeParams(2);
  Status status = nn::SaveParameters(second, path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  fault::Disable();

  // The failed save must not have clobbered or half-written the file.
  std::vector<Variable> loaded = MakeParams(3);
  ASSERT_TRUE(nn::LoadParameters(&loaded, path).ok());
  EXPECT_TRUE(SameValues(first, loaded));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST_F(FaultTest, BitFlippedCheckpointRejectedParamsUntouched) {
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_flip.ckpt";
  ASSERT_TRUE(nn::SaveParameters(MakeParams(1), path).ok());
  std::string image;
  ASSERT_TRUE(ReadFileToString(path, &image).ok());
  // Flip one bit in the middle of the payload.
  image[image.size() / 2] = static_cast<char>(image[image.size() / 2] ^ 0x10);
  ASSERT_TRUE(WriteFileAtomic(path, image).ok());

  std::vector<Variable> params = MakeParams(7);
  std::vector<Variable> before = MakeParams(7);
  Status status = nn::LoadParameters(&params, path);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_TRUE(SameValues(params, before));  // untouched on failure
  std::filesystem::remove(path);
}

TEST_F(FaultTest, TruncatedCheckpointRejected) {
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_trunc.ckpt";
  ASSERT_TRUE(nn::SaveParameters(MakeParams(1), path).ok());
  std::string image;
  ASSERT_TRUE(ReadFileToString(path, &image).ok());
  for (size_t keep : {size_t{0}, size_t{4}, size_t{8}, size_t{12},
                      image.size() / 2, image.size() - 1}) {
    ASSERT_TRUE(WriteFileAtomic(path, image.substr(0, keep)).ok());
    std::vector<Variable> params = MakeParams(7);
    std::vector<Variable> before = MakeParams(7);
    Status status = nn::LoadParameters(&params, path);
    EXPECT_FALSE(status.ok()) << "accepted a checkpoint truncated to " << keep;
    EXPECT_TRUE(SameValues(params, before));
  }
  std::filesystem::remove(path);
}

TEST_F(FaultTest, TrailingGarbageRejected) {
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_trail.ckpt";
  ASSERT_TRUE(nn::SaveParameters(MakeParams(1), path).ok());
  std::string image;
  ASSERT_TRUE(ReadFileToString(path, &image).ok());
  ASSERT_TRUE(WriteFileAtomic(path, image + "extra").ok());
  std::vector<Variable> params = MakeParams(7);
  EXPECT_EQ(nn::LoadParameters(&params, path).code(),
            StatusCode::kCorruption);
  std::filesystem::remove(path);
}

TEST_F(FaultTest, LegacyV1CheckpointStillLoads) {
  // Hand-write a v1 file: magic, count, rows, cols, float32 payload — no
  // checksum footer.
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_v1.ckpt";
  std::string image = "AHNTPCK1";
  auto append_u64 = [&image](uint64_t v) {
    image.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append_u64(1);  // one parameter
  append_u64(2);  // rows
  append_u64(2);  // cols
  const float values[4] = {1.5f, -2.0f, 0.25f, 8.0f};
  image.append(reinterpret_cast<const char*>(values), sizeof(values));
  ASSERT_TRUE(WriteFileAtomic(path, image).ok());

  std::vector<Variable> params;
  params.push_back(autograd::Parameter(Matrix::Zeros(2, 2)));
  ASSERT_TRUE(nn::LoadParameters(&params, path).ok());
  EXPECT_FLOAT_EQ(params[0].value().At(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(params[0].value().At(0, 1), -2.0f);
  EXPECT_FLOAT_EQ(params[0].value().At(1, 0), 0.25f);
  EXPECT_FLOAT_EQ(params[0].value().At(1, 1), 8.0f);
  std::filesystem::remove(path);
}

TEST_F(FaultTest, UnknownMagicRejected) {
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_magic.ckpt";
  ASSERT_TRUE(WriteFileAtomic(path, "NOTACKPT-and-some-padding").ok());
  std::vector<Variable> params = MakeParams(1);
  EXPECT_EQ(nn::LoadParameters(&params, path).code(),
            StatusCode::kCorruption);
  std::filesystem::remove(path);
}

TEST_F(FaultTest, ShapeMismatchIsInvalidArgument) {
  std::string path = ::testing::TempDir() + "/ahntp_ckpt_shape.ckpt";
  ASSERT_TRUE(nn::SaveParameters(MakeParams(1), path).ok());
  std::vector<Variable> wrong;
  Rng rng(9);
  wrong.push_back(autograd::Parameter(Matrix::Randn(5, 5, &rng)));
  EXPECT_EQ(nn::LoadParameters(&wrong, path).code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Trainer: config validation and the divergence guard
// ---------------------------------------------------------------------------

/// Small shared model fixture: 40 users, SGC encoder (cheapest learned
/// model), a handful of epochs.
class TrainerFixture {
 public:
  TrainerFixture() : rng_(23) {
    data::GeneratorConfig config;
    config.num_users = 40;
    config.num_items = 30;
    config.num_communities = 2;
    config.avg_trust_out_degree = 4.0;
    config.avg_purchases_per_user = 3.0;
    config.seed = 5;
    dataset_ = data::SocialNetworkGenerator(config).Generate();
    split_ = data::MakeSplit(dataset_);
    graph_ = dataset_.GraphFromEdges(split_.train_positive).value();
    features_ = data::BuildFeatureMatrix(dataset_);
    inputs_.features = &features_;
    inputs_.graph = &graph_;
    inputs_.dataset = &dataset_;
    inputs_.hidden_dims = {8, 4};
    inputs_.dropout = 0.0f;
    inputs_.rng = &rng_;
  }

  /// A freshly initialized predictor (deterministic per seed).
  models::TrustPredictor MakePredictor(uint64_t seed) {
    Rng rng(seed);
    models::ModelInputs inputs = inputs_;
    inputs.rng = &rng;
    auto spec = core::CreateEncoder("SGC", inputs, core::AhntpConfig{});
    AHNTP_CHECK(spec.ok());
    return models::TrustPredictor(spec->encoder,
                                  models::TrustPredictorConfig{}, &rng);
  }

  const std::vector<data::TrustPair>& train_pairs() const {
    return split_.train_pairs;
  }
  const data::SocialDataset& dataset() const { return dataset_; }

 private:
  Rng rng_;
  data::SocialDataset dataset_;
  data::TrustSplit split_;
  graph::Digraph graph_{0};
  tensor::Matrix features_;
  models::ModelInputs inputs_;
};

TrainerFixture& Fixture() {
  static TrainerFixture* fixture = new TrainerFixture();
  return *fixture;
}

TEST(TrainerValidationTest, RejectsInvalidConfigs) {
  auto expect_invalid = [](core::TrainerConfig config,
                           const std::string& what) {
    Status status = core::ValidateTrainerConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(status.message().find(what), std::string::npos)
        << "message \"" << status.message() << "\" does not name " << what;
  };
  core::TrainerConfig config;
  EXPECT_TRUE(core::ValidateTrainerConfig(config).ok());

  config = {};
  config.epochs = 0;
  expect_invalid(config, "epochs");
  config = {};
  config.learning_rate = -0.1f;
  expect_invalid(config, "learning_rate");
  config = {};
  config.learning_rate = std::numeric_limits<float>::quiet_NaN();
  expect_invalid(config, "learning_rate");
  config = {};
  config.lambda1 = -1.0f;
  expect_invalid(config, "lambda1");
  config = {};
  config.temperature = 0.0f;
  expect_invalid(config, "temperature");
  config = {};
  config.patience = -2;
  expect_invalid(config, "patience");
  config = {};
  config.eval_every = 0;
  expect_invalid(config, "eval_every");
  config = {};
  config.divergence_factor = 1.0;
  expect_invalid(config, "divergence_factor");
  config = {};
  config.max_divergence_rollbacks = -1;
  expect_invalid(config, "max_divergence_rollbacks");
}

TEST(TrainerValidationTest, FitRejectsBadConfigAndEmptyTrainSet) {
  models::TrustPredictor predictor = Fixture().MakePredictor(1);
  core::TrainerConfig bad;
  bad.epochs = -5;
  auto result = core::Trainer(bad).Fit(&predictor, Fixture().train_pairs());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  core::TrainerConfig ok_config;
  auto empty = core::Trainer(ok_config).Fit(&predictor, {});
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FaultTest, NanGradientRollsBackAndRecovers) {
  models::TrustPredictor predictor = Fixture().MakePredictor(1);
  core::TrainerConfig config;
  config.epochs = 5;
  config.seed = 3;
  // Poison the 2nd guarded batch gradient with NaN.
  ASSERT_TRUE(fault::EnableFromSpec("trainer.nan_grad@2").ok());
  auto result = core::Trainer(config).Fit(&predictor, Fixture().train_pairs());
  fault::Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rollbacks, 1);
  EXPECT_FALSE(result->divergence_halt);
  ASSERT_EQ(result->events.size(), 1u);
  EXPECT_NE(result->events[0].find("rolled back"), std::string::npos);
  EXPECT_TRUE(std::isfinite(result->final_loss));
  // The rolled-back epoch is recorded in the history.
  int rolled = 0;
  for (const core::EpochStats& s : result->history) rolled += s.rolled_back;
  EXPECT_EQ(rolled, 1);
  // The model is still usable: every prediction finite.
  for (float p : predictor.PredictProbabilities(Fixture().train_pairs())) {
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST_F(FaultTest, PersistentNanHaltsAfterRollbackBudget) {
  models::TrustPredictor predictor = Fixture().MakePredictor(1);
  core::TrainerConfig config;
  config.epochs = 20;
  config.max_divergence_rollbacks = 2;
  ASSERT_TRUE(fault::EnableFromSpec("trainer.nan_grad@*").ok());
  auto result = core::Trainer(config).Fit(&predictor, Fixture().train_pairs());
  fault::Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->divergence_halt);
  EXPECT_EQ(result->num_rollbacks, 2);
  // Halted well before the epoch budget.
  EXPECT_LT(result->history.size(), 20u);
}

TEST_F(FaultTest, GuardLeavesHealthyTrainingBitIdentical) {
  core::TrainerConfig with_guard;
  with_guard.epochs = 4;
  core::TrainerConfig without_guard = with_guard;
  without_guard.divergence_guard = false;

  models::TrustPredictor a = Fixture().MakePredictor(1);
  models::TrustPredictor b = Fixture().MakePredictor(1);
  auto ra = core::Trainer(with_guard).Fit(&a, Fixture().train_pairs());
  auto rb = core::Trainer(without_guard).Fit(&b, Fixture().train_pairs());
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->num_rollbacks, 0);
  ASSERT_EQ(ra->history.size(), rb->history.size());
  for (size_t e = 0; e < ra->history.size(); ++e) {
    EXPECT_EQ(ra->history[e].loss, rb->history[e].loss) << "epoch " << e;
  }
  std::vector<float> pa = a.PredictProbabilities(Fixture().train_pairs());
  std::vector<float> pb = b.PredictProbabilities(Fixture().train_pairs());
  EXPECT_EQ(pa, pb);
}

// ---------------------------------------------------------------------------
// Sweeps: degraded runs, resume, state integrity
// ---------------------------------------------------------------------------

/// Heuristic-model sweep config: runs in milliseconds, exercises the same
/// sweep machinery as the learned models.
core::ExperimentConfig SweepConfig() {
  core::ExperimentConfig config;
  config.model = "Jaccard";
  return config;
}

TEST_F(FaultTest, ThrowingRunDegradesSweep) {
  ASSERT_TRUE(fault::EnableFromSpec("experiment.run@2").ok());
  auto result = core::RunRepeatedExperiment(Fixture().dataset(), SweepConfig(),
                                            4, /*vary_split_seed=*/true);
  fault::Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_runs, 3);
  EXPECT_EQ(result->num_failed, 1);
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_NE(result->failures[0].find("injected fault"), std::string::npos);
  EXPECT_NE(result->ToString().find("1 failed"), std::string::npos);
}

TEST_F(FaultTest, AllRunsFailingReturnsError) {
  ASSERT_TRUE(fault::EnableFromSpec("experiment.run@*").ok());
  auto result = core::RunRepeatedExperiment(Fixture().dataset(), SweepConfig(),
                                            3, /*vary_split_seed=*/true);
  fault::Disable();
  EXPECT_FALSE(result.ok());
}

TEST_F(FaultTest, InterruptedSweepResumesBitIdentical) {
  std::string state = ::testing::TempDir() + "/ahntp_sweep_resume.state";
  std::filesystem::remove(state);
  core::SweepOptions options;
  options.state_path = state;

  // Uninterrupted reference sweep (no state file involved).
  auto reference = core::RunRepeatedExperiment(
      Fixture().dataset(), SweepConfig(), 4, /*vary_split_seed=*/true);
  ASSERT_TRUE(reference.ok());

  // "Interrupted" sweep: run 3 dies, the rest checkpoint their results.
  ASSERT_TRUE(fault::EnableFromSpec("experiment.run@3").ok());
  auto partial = core::RunRepeatedExperiment(
      Fixture().dataset(), SweepConfig(), 4, /*vary_split_seed=*/true,
      options);
  fault::Disable();
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->num_failed, 1);
  ASSERT_TRUE(std::filesystem::exists(state));

  // Resume: completed runs come from the state file, the failed run is
  // retried, and the aggregate matches the uninterrupted sweep exactly.
  options.resume = true;
  auto resumed = core::RunRepeatedExperiment(
      Fixture().dataset(), SweepConfig(), 4, /*vary_split_seed=*/true,
      options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->num_resumed, 3);
  EXPECT_EQ(resumed->num_failed, 0);
  EXPECT_EQ(resumed->num_runs, reference->num_runs);
  EXPECT_EQ(resumed->accuracy.mean, reference->accuracy.mean);
  EXPECT_EQ(resumed->accuracy.stddev, reference->accuracy.stddev);
  EXPECT_EQ(resumed->f1.mean, reference->f1.mean);
  EXPECT_EQ(resumed->f1.stddev, reference->f1.stddev);
  EXPECT_EQ(resumed->auc.mean, reference->auc.mean);
  EXPECT_EQ(resumed->auc.stddev, reference->auc.stddev);
  ASSERT_EQ(resumed->runs.size(), reference->runs.size());
  for (size_t i = 0; i < resumed->runs.size(); ++i) {
    EXPECT_EQ(resumed->runs[i].threshold, reference->runs[i].threshold)
        << "run " << i;
  }
  std::filesystem::remove(state);
}

TEST_F(FaultTest, ResumeRejectsMismatchedState) {
  std::string state = ::testing::TempDir() + "/ahntp_sweep_mismatch.state";
  std::filesystem::remove(state);
  core::SweepOptions options;
  options.state_path = state;
  ASSERT_TRUE(core::RunRepeatedExperiment(Fixture().dataset(), SweepConfig(),
                                          2, /*vary_split_seed=*/true,
                                          options)
                  .ok());
  options.resume = true;
  // Different run count → different sweep → the state must be refused.
  auto mismatch = core::RunRepeatedExperiment(Fixture().dataset(),
                                              SweepConfig(), 3,
                                              /*vary_split_seed=*/true,
                                              options);
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(state);
}

TEST_F(FaultTest, ResumeRejectsCorruptState) {
  std::string state = ::testing::TempDir() + "/ahntp_sweep_corrupt.state";
  core::SweepOptions options;
  options.state_path = state;
  ASSERT_TRUE(core::RunRepeatedExperiment(Fixture().dataset(), SweepConfig(),
                                          2, /*vary_split_seed=*/true,
                                          options)
                  .ok());
  // Append a malformed record.
  {
    std::ofstream out(state, std::ios::app);
    out << "run,not_an_index,ok\n";
  }
  options.resume = true;
  auto corrupt = core::RunRepeatedExperiment(Fixture().dataset(),
                                             SweepConfig(), 2,
                                             /*vary_split_seed=*/true,
                                             options);
  EXPECT_FALSE(corrupt.ok());
  std::filesystem::remove(state);
}

TEST_F(FaultTest, StateSaveFaultDegradesButSweepCompletes) {
  std::string state = ::testing::TempDir() + "/ahntp_sweep_iofault.state";
  std::filesystem::remove(state);
  core::SweepOptions options;
  options.state_path = state;
  ASSERT_TRUE(fault::EnableFromSpec("sweep.state.save@*").ok());
  auto result = core::RunRepeatedExperiment(Fixture().dataset(), SweepConfig(),
                                            2, /*vary_split_seed=*/true,
                                            options);
  fault::Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_runs, 2);
  EXPECT_FALSE(std::filesystem::exists(state));  // every save failed
}

// ---------------------------------------------------------------------------
// Dataset saves go through the same atomic path
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DatasetSaveFaultFailsCleanly) {
  std::string dir = ::testing::TempDir() + "/ahntp_ds_fault";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(fault::EnableFromSpec("dataset.save@1").ok());
  Status status = data::SaveDataset(Fixture().dataset(), dir);
  fault::Disable();
  EXPECT_EQ(status.code(), StatusCode::kIoError);

  // Without the fault the save works and round-trips.
  ASSERT_TRUE(data::SaveDataset(Fixture().dataset(), dir).ok());
  auto loaded = data::LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_users, Fixture().dataset().num_users);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ahntp
