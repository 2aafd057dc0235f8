#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/adaptive_conv.h"
#include "core/experiment.h"
#include "core/repeated.h"
#include "data/generator.h"
#include "test_util.h"

namespace ahntp::core {
namespace {

using autograd::Variable;
using tensor::Matrix;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, PerfectPredictions) {
  BinaryMetrics m = EvaluateBinary({0.9f, 0.8f, 0.1f, 0.2f}, {1, 1, 0, 0});
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
  EXPECT_DOUBLE_EQ(m.auc, 1.0);
}

TEST(MetricsTest, AllWrongPredictions) {
  BinaryMetrics m = EvaluateBinary({0.1f, 0.9f}, {1, 0});
  EXPECT_DOUBLE_EQ(m.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(m.auc, 0.0);
}

TEST(MetricsTest, KnownConfusionMatrix) {
  // preds: TP, FP, TN, FN.
  BinaryMetrics m =
      EvaluateBinary({0.9f, 0.8f, 0.3f, 0.4f}, {1, 0, 0, 1});
  EXPECT_DOUBLE_EQ(m.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_DOUBLE_EQ(m.f1, 0.5);
}

TEST(MetricsTest, AucHandlesTies) {
  BinaryMetrics m = EvaluateBinary({0.5f, 0.5f, 0.5f, 0.5f}, {1, 1, 0, 0});
  EXPECT_NEAR(m.auc, 0.5, 1e-9);
}

TEST(MetricsTest, AucIsThresholdFree) {
  // Same ranking, shifted scores: AUC unchanged, accuracy changes.
  BinaryMetrics a = EvaluateBinary({0.9f, 0.7f, 0.6f}, {1, 0, 0});
  BinaryMetrics b = EvaluateBinary({0.4f, 0.2f, 0.1f}, {1, 0, 0});
  EXPECT_DOUBLE_EQ(a.auc, b.auc);
  EXPECT_NE(a.accuracy, b.accuracy);
}

TEST(MetricsTest, BestAccuracyThresholdSeparablePoints) {
  // Positives at 0.8/0.9, negatives at 0.1/0.2: any threshold in (0.2, 0.8)
  // is perfect; the sweep returns the boundary midpoint 0.5.
  float t = BestAccuracyThreshold({0.1f, 0.2f, 0.8f, 0.9f}, {0, 0, 1, 1});
  EXPECT_GT(t, 0.2f);
  EXPECT_LE(t, 0.8f);
  BinaryMetrics m =
      EvaluateBinary({0.1f, 0.2f, 0.8f, 0.9f}, {0, 0, 1, 1}, t);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
}

TEST(MetricsTest, BestAccuracyThresholdShiftedScores) {
  // Same structure shifted low: a 0.5 threshold would score 50%, the
  // calibrated threshold recovers 100%.
  std::vector<float> probs = {0.01f, 0.02f, 0.08f, 0.09f};
  std::vector<float> labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(EvaluateBinary(probs, labels, 0.5f).accuracy, 0.5);
  float t = BestAccuracyThreshold(probs, labels);
  EXPECT_DOUBLE_EQ(EvaluateBinary(probs, labels, t).accuracy, 1.0);
}

TEST(MetricsTest, BestAccuracyThresholdAllNegative) {
  // Best move is predicting everything negative: threshold above the max.
  float t = BestAccuracyThreshold({0.3f, 0.6f, 0.9f}, {0, 0, 0});
  EXPECT_GT(t, 0.9f);
}

TEST(MetricsTest, BestAccuracyThresholdHandlesTiedScores) {
  float t = BestAccuracyThreshold({0.5f, 0.5f, 0.7f, 0.7f}, {0, 0, 1, 1});
  EXPECT_DOUBLE_EQ(
      EvaluateBinary({0.5f, 0.5f, 0.7f, 0.7f}, {0, 0, 1, 1}, t).accuracy,
      1.0);
}

TEST(MetricsTest, ToStringContainsFields) {
  BinaryMetrics m = EvaluateBinary({0.9f}, {1});
  std::string s = m.ToString();
  EXPECT_NE(s.find("acc="), std::string::npos);
  EXPECT_NE(s.find("f1="), std::string::npos);
  EXPECT_NE(s.find("brier="), std::string::npos);
  EXPECT_NE(s.find("ece="), std::string::npos);
}

// --- Brier score + expected calibration error (hand-computed fixtures) -----

TEST(MetricsTest, BrierHandComputed) {
  // (0.9-1)^2 + (0.8-0)^2 + (0.1-0)^2 + (0.3-1)^2 = .01+.64+.01+.49 = 1.15
  BinaryMetrics m = EvaluateBinary({0.9f, 0.8f, 0.1f, 0.3f}, {1, 0, 0, 1});
  EXPECT_NEAR(m.brier, 1.15 / 4.0, 1e-6);
}

TEST(MetricsTest, BrierPerfectAndUninformed) {
  EXPECT_NEAR(EvaluateBinary({1.0f, 0.0f}, {1, 0}).brier, 0.0, 1e-12);
  // Constant 0.5 forecasts score 0.25 regardless of labels.
  EXPECT_NEAR(EvaluateBinary({0.5f, 0.5f, 0.5f, 0.5f}, {1, 0, 1, 0}).brier,
              0.25, 1e-7);
}

TEST(MetricsTest, EceHandComputed) {
  // Bin [0.6,0.7): probs {0.65, 0.65}, 1 positive -> |0.65 - 0.5| = 0.15,
  // weight 2/4. Bin [0.2,0.3): probs {0.25, 0.25}, 0 positive ->
  // |0.25 - 0.0| = 0.25, weight 2/4. ECE = 0.5*0.15 + 0.5*0.25 = 0.2.
  BinaryMetrics m =
      EvaluateBinary({0.65f, 0.65f, 0.25f, 0.25f}, {1, 0, 0, 0});
  EXPECT_NEAR(m.ece, 0.2, 1e-6);
}

TEST(MetricsTest, EcePerfectlyCalibratedBins) {
  // Each bin's mean confidence equals its empirical accuracy: four 0.75-bin
  // samples with three positives, four 0.25-bin samples with one positive.
  BinaryMetrics m = EvaluateBinary(
      {0.75f, 0.75f, 0.75f, 0.75f, 0.25f, 0.25f, 0.25f, 0.25f},
      {1, 1, 1, 0, 0, 0, 0, 1});
  EXPECT_NEAR(m.ece, 0.0, 1e-6);
}

TEST(MetricsTest, EceClampsOutOfRangeScores) {
  // Scores beyond [0,1] land in the edge bins instead of corrupting the
  // histogram: 1.2 clamps to 1.0 (top bin, label 1 -> perfectly
  // "calibrated"), -0.2 clamps to 0.0 (bottom bin, label 0).
  BinaryMetrics m = EvaluateBinary({1.2f, -0.2f}, {1, 0});
  EXPECT_NEAR(m.ece, 0.0, 1e-6);
  EXPECT_NEAR(m.brier, 0.0, 1e-6);
}

TEST(MetricsTest, EceOverconfidentIsPenalized) {
  // All forecasts say 0.95 but only half are positive: ECE ~= 0.45.
  BinaryMetrics m =
      EvaluateBinary({0.95f, 0.95f, 0.95f, 0.95f}, {1, 0, 1, 0});
  EXPECT_NEAR(m.ece, 0.45, 1e-6);
  EXPECT_NEAR(m.brier,
              (2 * 0.05 * 0.05 + 2 * 0.95 * 0.95) / 4.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Adaptive convolution (Eqs. 10-16)
// ---------------------------------------------------------------------------

hypergraph::Hypergraph ConvHypergraph() {
  return hypergraph::Hypergraph::FromEdges(
             6, {{0, 1, 2}, {2, 3, 4}, {4, 5}, {0, 5}})
      .value();
}

TEST(AdaptiveConvTest, OutputShape) {
  Rng rng(1);
  hypergraph::Hypergraph hg = ConvHypergraph();
  AdaptiveHypergraphConv conv(hg, 4, 3, &rng);
  Variable x = autograd::Constant(Matrix::Randn(6, 4, &rng));
  Variable y = conv.Forward(x);
  EXPECT_EQ(y.rows(), 6u);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(AdaptiveConvTest, AttentionAndPlainVariantsDiffer) {
  Rng rng1(2), rng2(2);
  hypergraph::Hypergraph hg = ConvHypergraph();
  AdaptiveHypergraphConv with_attn(hg, 4, 3, &rng1, /*use_attention=*/true);
  AdaptiveHypergraphConv no_attn(hg, 4, 3, &rng2, /*use_attention=*/false);
  Rng data_rng(3);
  Variable x = autograd::Constant(Matrix::Randn(6, 4, &data_rng));
  EXPECT_FALSE(
      with_attn.Forward(x).value().AllClose(no_attn.Forward(x).value()));
  // The attention variant carries the extra beta parameters.
  EXPECT_GT(with_attn.Parameters().size(), no_attn.Parameters().size());
}

TEST(AdaptiveConvTest, EdgeWeightsModulateMessages) {
  Rng rng(4);
  hypergraph::Hypergraph hg = ConvHypergraph();
  AdaptiveHypergraphConv conv(hg, 2, 2, &rng, /*use_attention=*/false);
  Variable x = autograd::Constant(Matrix::Randn(6, 2, &rng));
  Matrix before = conv.Forward(x).value();
  // Zeroing all trainable hyperedge weights w_e silences every message.
  auto params = conv.Parameters();
  // Parameters: [transform W, edge_weight]; find the (m x 1) one.
  for (auto& p : params) {
    if (p.cols() == 1 && p.rows() == hg.num_edges()) {
      p.mutable_value().Fill(0.0f);
    }
  }
  Matrix after = conv.Forward(x).value();
  EXPECT_GT(before.MaxAbs(), 0.0f);
  EXPECT_EQ(after.MaxAbs(), 0.0f);
}

TEST(AdaptiveConvTest, GradientsFlowThroughEdgeWeights) {
  Rng rng(5);
  hypergraph::Hypergraph hg = ConvHypergraph();
  AdaptiveHypergraphConv conv(hg, 3, 2, &rng);
  Variable x = autograd::Constant(Matrix::Randn(6, 3, &rng));
  conv.ZeroGrad();
  autograd::ReduceSum(autograd::Mul(conv.Forward(x), conv.Forward(x)))
      .Backward();
  bool edge_weight_touched = false;
  for (const auto& p : conv.Parameters()) {
    if (p.rows() == hg.num_edges() && p.cols() == 1 &&
        p.grad().MaxAbs() > 0.0f) {
      edge_weight_touched = true;
    }
  }
  EXPECT_TRUE(edge_weight_touched);
}

TEST(AdaptiveConvTest, GradientCheckNoAttention) {
  Rng rng(6);
  hypergraph::Hypergraph hg = ConvHypergraph();
  AdaptiveHypergraphConv conv(hg, 2, 2, &rng, /*use_attention=*/false);
  Matrix x = Matrix::Randn(6, 2, &rng);
  ahntp::testing::ExpectGradientsClose(
      [&conv, &x](const std::vector<Variable>&) {
        return autograd::ReduceSum(
            conv.Forward(autograd::Constant(x)));
      },
      conv.Parameters());
}

TEST(AdaptiveConvTest, MultiHeadSplitsDimensions) {
  Rng rng(31);
  hypergraph::Hypergraph hg = ConvHypergraph();
  AdaptiveHypergraphConv conv(hg, 4, 6, &rng, /*use_attention=*/true,
                              /*leaky_slope=*/0.2f, /*num_heads=*/3);
  EXPECT_EQ(conv.num_heads(), 3u);
  EXPECT_EQ(conv.out_features(), 6u);
  Variable x = autograd::Constant(Matrix::Randn(6, 4, &rng));
  Variable y = conv.Forward(x);
  EXPECT_EQ(y.cols(), 6u);
  // Head-averaged attention still sums to 1 per vertex segment.
  const Matrix& attention = conv.last_attention();
  std::vector<double> per_vertex(6, 0.0);
  for (size_t p = 0; p < conv.pairs().vertex.size(); ++p) {
    per_vertex[static_cast<size_t>(conv.pairs().vertex[p])] +=
        attention.At(p, 0);
  }
  for (size_t v = 0; v < 6; ++v) {
    EXPECT_NEAR(per_vertex[v], 1.0, 1e-4);
  }
}

TEST(AdaptiveConvTest, MultiHeadGradientCheck) {
  Rng rng(32);
  hypergraph::Hypergraph hg = ConvHypergraph();
  AdaptiveHypergraphConv conv(hg, 2, 4, &rng, /*use_attention=*/true,
                              /*leaky_slope=*/0.2f, /*num_heads=*/2);
  Matrix x = Matrix::Randn(6, 2, &rng);
  ahntp::testing::ExpectGradientsClose(
      [&conv, &x](const std::vector<Variable>&) {
        return autograd::ReduceSum(conv.Forward(autograd::Constant(x)));
      },
      conv.Parameters());
}

TEST(AdaptiveConvDeathTest, HeadsMustDivideWidth) {
  Rng rng(33);
  hypergraph::Hypergraph hg = ConvHypergraph();
  EXPECT_DEATH(AdaptiveHypergraphConv(hg, 4, 5, &rng, true, 0.2f, 2),
               "divide evenly");
}

TEST(AdaptiveConvTest, GradientCheckWithAttention) {
  Rng rng(7);
  hypergraph::Hypergraph hg = ConvHypergraph();
  AdaptiveHypergraphConv conv(hg, 2, 2, &rng, /*use_attention=*/true);
  Matrix x = Matrix::Randn(6, 2, &rng);
  ahntp::testing::ExpectGradientsClose(
      [&conv, &x](const std::vector<Variable>&) {
        return autograd::ReduceSum(
            conv.Forward(autograd::Constant(x)));
      },
      conv.Parameters());
}

// ---------------------------------------------------------------------------
// AHNTP model structure
// ---------------------------------------------------------------------------

class CoreFixture {
 public:
  CoreFixture() : rng_(17) {
    data::GeneratorConfig config;
    config.num_users = 50;
    config.num_items = 60;
    config.num_communities = 3;
    config.avg_trust_out_degree = 5.0;
    config.avg_purchases_per_user = 5.0;
    config.seed = 11;
    dataset_ = data::SocialNetworkGenerator(config).Generate();
    split_ = data::MakeSplit(dataset_);
    graph_ = dataset_.GraphFromEdges(split_.train_positive).value();
    features_ = data::BuildFeatureMatrix(dataset_);
    inputs_.features = &features_;
    inputs_.graph = &graph_;
    inputs_.dataset = &dataset_;
    inputs_.hidden_dims = {12, 6};
    inputs_.dropout = 0.0f;
    inputs_.rng = &rng_;
  }
  const models::ModelInputs& inputs() const { return inputs_; }
  const data::SocialDataset& dataset() const { return dataset_; }
  const data::TrustSplit& split() const { return split_; }
  Rng* rng() { return &rng_; }

 private:
  Rng rng_;
  data::SocialDataset dataset_;
  data::TrustSplit split_;
  graph::Digraph graph_{0};
  tensor::Matrix features_;
  models::ModelInputs inputs_;
};

CoreFixture& Fixture() {
  static CoreFixture* fixture = new CoreFixture();
  return *fixture;
}

TEST(AhntpModelTest, EmbeddingConcatenatesBranches) {
  AhntpConfig config;
  config.hidden_dims = {12, 6};
  AhntpModel model(Fixture().inputs(), config);
  EXPECT_EQ(model.embedding_dim(), 12u);  // 2 x 6
  Variable emb = model.EncodeUsers();
  EXPECT_EQ(emb.rows(), 50u);
  EXPECT_EQ(emb.cols(), 12u);
}

TEST(AhntpModelTest, HypergroupsCoverAllFourTypes) {
  AhntpConfig config;
  config.hidden_dims = {12, 6};
  config.social_top_k = 3;
  config.multi_hop = 2;
  AhntpModel model(Fixture().inputs(), config);
  const auto& ds = Fixture().dataset();
  // Node level: one social hyperedge per user + attribute groups.
  EXPECT_GT(model.node_hypergraph().num_edges(), ds.num_users);
  // Structure level: pairwise edges + one multi-hop ball per user per level.
  EXPECT_GT(model.structure_hypergraph().num_edges(), 2 * ds.num_users);
  EXPECT_EQ(model.combined_hypergraph().num_edges(),
            model.node_hypergraph().num_edges() +
                model.structure_hypergraph().num_edges());
  EXPECT_TRUE(model.combined_hypergraph().Validate().ok());
  EXPECT_EQ(model.influence_scores().size(), ds.num_users);
}

TEST(AhntpModelTest, MprAblationChangesInfluence) {
  AhntpConfig with;
  with.hidden_dims = {12, 6};
  AhntpConfig without = with;
  without.use_mpr = false;
  AhntpModel a(Fixture().inputs(), with);
  AhntpModel b(Fixture().inputs(), without);
  // Same size, different scores (motif term reweights the ranking).
  ASSERT_EQ(a.influence_scores().size(), b.influence_scores().size());
  double diff = 0.0;
  for (size_t i = 0; i < a.influence_scores().size(); ++i) {
    diff += std::fabs(a.influence_scores()[i] - b.influence_scores()[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(AhntpModelTest, LayerCountFollowsHiddenDims) {
  for (size_t layers : {1u, 3u, 5u}) {
    AhntpConfig config;
    config.hidden_dims.assign(layers, 8);
    AhntpModel model(Fixture().inputs(), config);
    Variable emb = model.EncodeUsers();
    EXPECT_EQ(emb.cols(), 16u);  // 2 branches x 8
  }
}

TEST(AhntpModelTest, MultiHeadConfigRuns) {
  AhntpConfig config;
  config.hidden_dims = {12, 6};
  config.attention_heads = 2;
  AhntpModel model(Fixture().inputs(), config);
  Variable emb = model.EncodeUsers();
  EXPECT_EQ(emb.cols(), 12u);
}

TEST(AhntpModelTest, ExplainUserRanksIncidentHyperedges) {
  AhntpConfig config;
  config.hidden_dims = {12, 6};
  AhntpModel model(Fixture().inputs(), config);
  auto influences = model.ExplainUser(0, 4);
  ASSERT_FALSE(influences.empty());
  ASSERT_LE(influences.size(), 4u);
  float prev = 2.0f;
  for (const auto& info : influences) {
    // Sorted descending, valid attention, the user belongs to every edge.
    EXPECT_LE(info.attention, prev);
    prev = info.attention;
    EXPECT_GE(info.attention, 0.0f);
    EXPECT_TRUE(info.branch == "node" || info.branch == "structure");
    EXPECT_TRUE(info.source == "social-influence" ||
                info.source == "attribute" || info.source == "pairwise" ||
                info.source == "multi-hop");
    EXPECT_NE(std::find(info.members.begin(), info.members.end(), 0),
              info.members.end());
  }
}

TEST(AhntpModelTest, ExplainUserRequiresAttention) {
  AhntpConfig config;
  config.hidden_dims = {12, 6};
  config.use_attention = false;
  AhntpModel model(Fixture().inputs(), config);
  EXPECT_DEATH(model.ExplainUser(0), "attention");
}

// ---------------------------------------------------------------------------
// Trainer
// ---------------------------------------------------------------------------

TEST(TrainerTest, LossDecreases) {
  CoreFixture& fixture = Fixture();
  Rng rng(21);
  auto spec = CreateEncoder("AHNTP", fixture.inputs(), AhntpConfig{});
  ASSERT_TRUE(spec.ok());
  models::TrustPredictor predictor(spec->encoder,
                                   models::TrustPredictorConfig{}, &rng);
  TrainerConfig config;
  config.epochs = 15;
  config.learning_rate = 5e-3f;
  Trainer trainer(config);
  TrainResult result =
      trainer.Fit(&predictor, fixture.split().train_pairs).value();
  ASSERT_EQ(result.history.size(), 15u);
  EXPECT_LT(result.history.back().loss, result.history.front().loss);
  EXPECT_GT(result.train_seconds, 0.0);
}

TEST(TrainerTest, WarmFullBatchEpochsNeverMissTheBufferCache) {
  // Each Fit opens and closes its own RecycleScope, so fits of 1 and 3
  // epochs from the same start miss the cache equally exactly when epochs
  // 2 and 3 take every large buffer from memory epoch 1 released.
  auto misses_after = [](int epochs) {
    CoreFixture& fixture = Fixture();
    Rng rng(24);
    // Its own Rng for the encoder too, so both fits start from the same
    // weights and the fixture's stream stays where later tests expect it.
    Rng init_rng(25);
    models::ModelInputs inputs = fixture.inputs();
    inputs.rng = &init_rng;
    auto spec = CreateEncoder("AHNTP", inputs, AhntpConfig{});
    EXPECT_TRUE(spec.ok());
    models::TrustPredictor predictor(spec->encoder,
                                     models::TrustPredictorConfig{}, &rng);
    TrainerConfig config;
    config.epochs = epochs;
    config.batch_size = 0;
    Trainer trainer(config);
    metrics::Enable();
    metrics::Reset();
    EXPECT_TRUE(trainer.Fit(&predictor, fixture.split().train_pairs).ok());
    const int64_t misses =
        metrics::GetCounter("tensor.recycle.misses").Value();
    const int64_t hits = metrics::GetCounter("tensor.recycle.hits").Value();
    metrics::Disable();
    return std::make_pair(misses, hits);
  };
  const auto [one_epoch_misses, one_epoch_hits] = misses_after(1);
  const auto [misses, hits] = misses_after(3);
  ASSERT_GT(one_epoch_misses, 0) << "no buffer reached the cache threshold";
  EXPECT_EQ(misses, one_epoch_misses);
  EXPECT_GT(hits, one_epoch_hits);
}

TEST(TrainerTest, ContrastiveTermReportedOnlyWhenEnabled) {
  CoreFixture& fixture = Fixture();
  Rng rng(22);
  auto spec = CreateEncoder("AHNTP", fixture.inputs(), AhntpConfig{});
  models::TrustPredictor predictor(spec->encoder,
                                   models::TrustPredictorConfig{}, &rng);
  TrainerConfig config;
  config.epochs = 2;
  config.use_contrastive = false;
  Trainer trainer(config);
  TrainResult result =
      trainer.Fit(&predictor, fixture.split().train_pairs).value();
  EXPECT_EQ(result.history.back().contrastive_loss, 0.0);
}

TEST(TrainerTest, MiniBatchesMatchFullBatchEpochStructure) {
  CoreFixture& fixture = Fixture();
  Rng rng(23);
  auto spec = CreateEncoder("SGC", fixture.inputs(), AhntpConfig{});
  models::TrustPredictor predictor(spec->encoder,
                                   models::TrustPredictorConfig{}, &rng);
  TrainerConfig config;
  config.epochs = 3;
  config.batch_size = 32;
  Trainer trainer(config);
  TrainResult result =
      trainer.Fit(&predictor, fixture.split().train_pairs).value();
  EXPECT_EQ(result.history.size(), 3u);
}

TEST(TrainerTest, EarlyStoppingStopsAndRestores) {
  CoreFixture& fixture = Fixture();
  Rng rng(25);
  auto spec = CreateEncoder("SGC", fixture.inputs(), AhntpConfig{});
  models::TrustPredictor predictor(spec->encoder,
                                   models::TrustPredictorConfig{}, &rng);
  TrainerConfig config;
  config.epochs = 200;
  config.patience = 2;
  config.eval_every = 2;
  Trainer trainer(config);
  // Use a slice of train pairs as a stand-in validation set.
  std::vector<data::TrustPair> val(
      fixture.split().train_pairs.begin(),
      fixture.split().train_pairs.begin() + 40);
  std::vector<data::TrustPair> fit(fixture.split().train_pairs.begin() + 40,
                                   fixture.split().train_pairs.end());
  TrainResult result = trainer.Fit(&predictor, fit, val).value();
  // It must either converge early or run to the cap; either way the best
  // epoch is recorded and validation AUC is meaningful.
  EXPECT_GE(result.best_validation_auc, 0.4);
  EXPECT_LE(result.best_epoch,
            static_cast<int>(result.history.size()) - 1);
}

TEST(TrainerTest, NoValidationMeansNoEarlyStop) {
  CoreFixture& fixture = Fixture();
  Rng rng(26);
  auto spec = CreateEncoder("SGC", fixture.inputs(), AhntpConfig{});
  models::TrustPredictor predictor(spec->encoder,
                                   models::TrustPredictorConfig{}, &rng);
  TrainerConfig config;
  config.epochs = 7;
  config.patience = 1;
  Trainer trainer(config);
  TrainResult result =
      trainer.Fit(&predictor, fixture.split().train_pairs).value();
  EXPECT_EQ(result.history.size(), 7u);  // ran to the cap
  EXPECT_EQ(result.best_validation_auc, 0.0);
}

TEST(TrainerTest, RegularizerPathRuns) {
  CoreFixture& fixture = Fixture();
  Rng rng(24);
  auto spec = CreateEncoder("AHNTP", fixture.inputs(), AhntpConfig{});
  auto* ahntp = dynamic_cast<AhntpModel*>(spec->encoder.get());
  ASSERT_NE(ahntp, nullptr);
  models::TrustPredictor predictor(spec->encoder,
                                   models::TrustPredictorConfig{}, &rng);
  TrainerConfig config;
  config.epochs = 2;
  config.regularizer_weight = 0.01f;
  config.regularizer_hypergraph = &ahntp->combined_hypergraph();
  Trainer trainer(config);
  TrainResult result =
      trainer.Fit(&predictor, fixture.split().train_pairs).value();
  EXPECT_EQ(result.history.size(), 2u);
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

// ---------------------------------------------------------------------------
// Experiment harness end-to-end (every model on a tiny dataset)
// ---------------------------------------------------------------------------

class ExperimentSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ExperimentSmokeTest, RunsEndToEnd) {
  CoreFixture& fixture = Fixture();
  ExperimentConfig config;
  config.model = GetParam();
  config.hidden_dims = {12, 6};
  config.trainer.epochs = 3;
  auto result = RunExperiment(fixture.dataset(), config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->model, GetParam());
  EXPECT_GT(result->num_parameters, 0u);
  EXPECT_GT(result->test.num_samples, 0u);
  EXPECT_GE(result->test.accuracy, 0.0);
  EXPECT_LE(result->test.accuracy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ExperimentSmokeTest,
    ::testing::Values("GAT", "SGC", "Guardian", "AtNE-Trust", "KGTrust",
                      "UniGCN", "UniGAT", "HGNN+", "MF", "AHNTP", "AHNTP-nompr",
                      "AHNTP-noatt", "AHNTP-nocon"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RepeatedTest, AggregatesAcrossSeeds) {
  ExperimentConfig config;
  config.model = "SGC";
  config.hidden_dims = {12, 6};
  config.trainer.epochs = 3;
  auto result = RunRepeatedExperiment(Fixture().dataset(), config, 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_runs, 3);
  EXPECT_GT(result->accuracy.mean, 0.0);
  EXPECT_GE(result->accuracy.stddev, 0.0);
  EXPECT_GT(result->total_train_seconds, 0.0);
  std::string text = result->ToString();
  EXPECT_NE(text.find("SGC over 3 runs"), std::string::npos);
  EXPECT_NE(text.find("±"), std::string::npos);
}

TEST(RepeatedTest, SingleRunHasZeroStddev) {
  ExperimentConfig config;
  config.model = "SGC";
  config.hidden_dims = {12, 6};
  config.trainer.epochs = 2;
  auto result = RunRepeatedExperiment(Fixture().dataset(), config, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->accuracy.stddev, 0.0);
}

TEST(RepeatedTest, CrossValidationRotatesSplits) {
  ExperimentConfig config;
  config.model = "SGC";
  config.hidden_dims = {12, 6};
  config.trainer.epochs = 2;
  auto result = RunCrossValidation(Fixture().dataset(), config, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_runs, 3);
  // Different folds = different test slices: metrics should genuinely vary.
  EXPECT_GT(result->accuracy.stddev, 0.0);
}

TEST(RepeatedTest, PropagatesModelErrors) {
  ExperimentConfig config;
  config.model = "NotAModel";
  auto result = RunRepeatedExperiment(Fixture().dataset(), config, 2);
  EXPECT_FALSE(result.ok());
}

TEST(ExperimentTest, UnknownModelPropagatesError) {
  ExperimentConfig config;
  config.model = "Nope";
  auto result = RunExperiment(Fixture().dataset(), config);
  EXPECT_FALSE(result.ok());
}

TEST(ExperimentTest, LearnsAboveChanceWithEnoughEpochs) {
  ExperimentConfig config;
  config.model = "AHNTP";
  config.hidden_dims = {16, 8};
  config.trainer.epochs = 40;
  auto result = RunExperiment(Fixture().dataset(), config);
  ASSERT_TRUE(result.ok());
  // Balanced test set: chance is 0.5 accuracy / 0.5 AUC.
  EXPECT_GT(result->test.auc, 0.6);
}

TEST(ExperimentTest, DeterministicAcrossCalls) {
  ExperimentConfig config;
  config.model = "SGC";
  config.hidden_dims = {12, 6};
  config.trainer.epochs = 4;
  auto a = RunExperiment(Fixture().dataset(), config);
  auto b = RunExperiment(Fixture().dataset(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->test.accuracy, b->test.accuracy);
  EXPECT_DOUBLE_EQ(a->test.auc, b->test.auc);
  EXPECT_EQ(a->threshold, b->threshold);
}

TEST(ExperimentTest, ModelSeedChangesResult) {
  ExperimentConfig config;
  config.model = "SGC";
  config.hidden_dims = {12, 6};
  config.trainer.epochs = 4;
  auto a = RunExperiment(Fixture().dataset(), config);
  config.model_seed = 99;
  auto b = RunExperiment(Fixture().dataset(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Different init: the calibrated operating point should move.
  EXPECT_NE(a->threshold, b->threshold);
}

TEST(ExperimentTest, TemporalSplitRequiresTimes) {
  data::SocialDataset untimed = Fixture().dataset();
  untimed.trust_edge_times.clear();
  ExperimentConfig config;
  config.model = "SGC";
  config.temporal_split = true;
  config.trainer.epochs = 2;
  auto result = RunExperiment(untimed, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ahntp::core
