// Streamed edge routing plus spilled inference (DESIGN.md §14): the user
// partitioner, the streaming generator and its per-shard edge buffer, and
// the out-of-core inference plan. The load-bearing property of the plan is
// *bitwise* parity with the monolithic (K=1) path at every combination of
// shard count and thread count.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/parallel.h"
#include "core/model_zoo.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/split.h"
#include "graph/digraph.h"
#include "graph/sharding.h"
#include "models/inference_plan.h"
#include "models/trust_predictor.h"
#include "serve/backend.h"

namespace ahntp {
namespace {

using graph::Digraph;
using graph::UserSharding;

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

TEST(UserShardingTest, ContiguousPartitionIsBalancedAndComplete) {
  auto sharding = UserSharding::Create(10, 3);
  ASSERT_TRUE(sharding.ok());
  const UserSharding& s = sharding.value();
  // 10 = 4 + 3 + 3; first N % K shards take the extra user.
  EXPECT_EQ(s.UsersOf(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.UsersOf(1), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(s.UsersOf(2), (std::vector<int>{7, 8, 9}));
  for (int u = 0; u < 10; ++u) {
    const std::vector<int>& owned = s.UsersOf(s.ShardOf(u));
    EXPECT_TRUE(std::find(owned.begin(), owned.end(), u) != owned.end());
  }
}

TEST(UserShardingTest, DeterministicAcrossInstances) {
  auto a = UserSharding::Create(100, 5);
  auto b = UserSharding::Create(100, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int u = 0; u < 100; ++u) {
    EXPECT_EQ(a.value().ShardOf(u), b.value().ShardOf(u));
  }
}

TEST(UserShardingTest, RejectsDegenerateRequests) {
  EXPECT_FALSE(UserSharding::Create(10, 0).ok());
  EXPECT_FALSE(UserSharding::Create(10, -3).ok());
  EXPECT_FALSE(UserSharding::Create(0, 1).ok());
  // K > N would manufacture empty shards.
  EXPECT_FALSE(UserSharding::Create(3, 5).ok());
  // Single user, single shard is fine.
  auto single = UserSharding::Create(1, 1);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.value().ShardOf(0), 0);
}

// ---------------------------------------------------------------------------
// Streaming generation
// ---------------------------------------------------------------------------

TEST(StreamingGeneratorTest, StreamReassemblesToGenerateExactly) {
  data::GeneratorConfig config = data::GeneratorConfig::EpinionsLike(0.05);
  data::SocialDataset dataset = data::SocialNetworkGenerator(config).Generate();

  std::vector<data::StreamedEdge> streamed;
  std::vector<int> communities;
  size_t count = data::SocialNetworkGenerator(config).StreamTrustEdges(
      [&](const data::StreamedEdge& e) { streamed.push_back(e); },
      &communities);
  ASSERT_EQ(count, dataset.trust_edges.size());
  ASSERT_EQ(streamed.size(), dataset.trust_edges.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].index, static_cast<int64_t>(i));
    EXPECT_EQ(streamed[i].src, dataset.trust_edges[i].src);
    EXPECT_EQ(streamed[i].dst, dataset.trust_edges[i].dst);
  }
  EXPECT_EQ(communities, dataset.communities);
}

TEST(StreamingGeneratorTest, ShardedEdgeBufferRoutesAndBoundsBuffering) {
  // Capacity 4: every flush before FlushAll must carry at most 4 edges.
  std::vector<std::vector<data::StreamedEdge>> delivered(3);
  size_t flushes = 0;
  bool draining = false;
  data::ShardedEdgeBuffer buffer(
      3, 4, [&](int shard, const std::vector<data::StreamedEdge>& edges) {
        ++flushes;
        if (!draining) {
          EXPECT_LE(edges.size(), 4u);
        }
        auto& out = delivered[static_cast<size_t>(shard)];
        out.insert(out.end(), edges.begin(), edges.end());
      });
  std::vector<std::vector<int64_t>> expected(3);
  for (int64_t i = 0; i < 100; ++i) {
    int src_shard = static_cast<int>(i % 3);
    int dst_shard = static_cast<int>((i / 3) % 3);
    buffer.Route({static_cast<int>(i), static_cast<int>(i + 1), i}, src_shard,
                 dst_shard);
    expected[static_cast<size_t>(src_shard)].push_back(i);
    if (dst_shard != src_shard) {
      expected[static_cast<size_t>(dst_shard)].push_back(i);
    }
  }
  draining = true;
  buffer.FlushAll();
  EXPECT_GT(flushes, 3u);  // bounded capacity forced intermediate flushes
  for (int k = 0; k < 3; ++k) {
    const auto& got = delivered[static_cast<size_t>(k)];
    const auto& want = expected[static_cast<size_t>(k)];
    ASSERT_EQ(got.size(), want.size()) << "shard " << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, want[i]) << "shard " << k << " pos " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Out-of-core inference plan
// ---------------------------------------------------------------------------

struct PredictorFixture {
  data::SocialDataset dataset;
  data::TrustSplit split;
  Digraph graph;
  tensor::Matrix features;
  Rng rng{1234};
  std::unique_ptr<models::TrustPredictor> predictor;

  explicit PredictorFixture(double scale = 0.04)
      : dataset(data::SocialNetworkGenerator(
                    data::GeneratorConfig::EpinionsLike(scale))
                    .Generate()),
        split(data::MakeSplit(dataset)) {
    auto graph_result = dataset.GraphFromEdges(split.train_positive);
    AHNTP_CHECK_OK(graph_result.status());
    graph = std::move(graph_result).value();
    features = data::BuildFeatureMatrix(dataset);
    models::ModelInputs inputs;
    inputs.features = &features;
    inputs.graph = &graph;
    inputs.dataset = &dataset;
    inputs.rng = &rng;
    auto created = core::CreatePredictor("AHNTP", inputs, core::AhntpConfig{});
    AHNTP_CHECK_OK(created.status());
    predictor = std::move(created).value();
    predictor->SetTraining(false);
  }

  std::vector<data::TrustPair> Pairs(size_t n) const {
    std::vector<data::TrustPair> pairs;
    for (size_t i = 0; i < n; ++i) {
      pairs.push_back(split.test_pairs[i % split.test_pairs.size()]);
    }
    return pairs;
  }
};

class ShardedPlanTest : public ::testing::Test {
 protected:
  // Per-process spill root: ctest runs each test as its own process in the
  // same working directory, so a shared literal directory lets one test's
  // TearDown delete blocks a concurrently running sibling is faulting in.
  static std::string SpillDir() {
    return "sharding_test_spill_" + std::to_string(::getpid());
  }

  void TearDown() override { std::filesystem::remove_all(SpillDir()); }
};

TEST_F(ShardedPlanTest, ScoresBitIdenticalToMonolithicPlan) {
  PredictorFixture fx;
  std::vector<data::TrustPair> pairs = fx.Pairs(64);
  std::vector<float> mono = fx.predictor->PredictProbabilities(pairs);
  for (int num_shards : {1, 3}) {
    for (int resident : {1, 2}) {
      for (int threads : {1, 2, 8}) {
        SetNumThreads(threads);
        models::ShardedPlanOptions plan_opts;
        plan_opts.num_shards = num_shards;
        plan_opts.max_resident_shards = resident;
        plan_opts.spill_dir = SpillDir();
        fx.predictor->EnableShardedInference(plan_opts);
        std::vector<float> sharded =
            fx.predictor->PredictProbabilities(pairs);
        ASSERT_EQ(sharded.size(), mono.size());
        for (size_t i = 0; i < mono.size(); ++i) {
          EXPECT_EQ(sharded[i], mono[i])
              << "pair " << i << " K=" << num_shards
              << " resident=" << resident << " threads=" << threads;
        }
      }
      SetNumThreads(0);
    }
  }
  fx.predictor->DisableShardedInference();
}

TEST_F(ShardedPlanTest, PlanCreationRemovesDeadProcessSpillDirs) {
  // A reaped child's pid names a process that no longer exists.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(child, nullptr, 0), child);

  const std::filesystem::path root = SpillDir();
  const std::filesystem::path dead =
      root / ("plan_" + std::to_string(child) + "_0");
  const std::filesystem::path live =
      root / ("plan_" + std::to_string(::getpid()) + "_999");
  const std::filesystem::path other = root / "not_a_plan_dir";
  for (const auto& dir : {dead, live, other}) {
    std::filesystem::create_directories(dir);
    std::ofstream(dir / "shard_0.emb") << "stale";
  }

  PredictorFixture fx;
  models::ShardedPlanOptions plan_opts;
  plan_opts.num_shards = 2;
  plan_opts.spill_dir = root.string();
  fx.predictor->EnableShardedInference(plan_opts);

  EXPECT_FALSE(std::filesystem::exists(dead));
  EXPECT_TRUE(std::filesystem::exists(live / "shard_0.emb"));
  EXPECT_TRUE(std::filesystem::exists(other / "shard_0.emb"));
  fx.predictor->DisableShardedInference();
}

TEST_F(ShardedPlanTest, BoundedResidencyEvictsAndCountsFaults) {
  metrics::Enable();
  metrics::Reset();
  PredictorFixture fx;
  models::ShardedPlanOptions plan_opts;
  plan_opts.num_shards = 4;
  plan_opts.max_resident_shards = 1;
  plan_opts.spill_dir = SpillDir();
  fx.predictor->EnableShardedInference(plan_opts);
  fx.predictor->WarmInferencePlan();
  const models::InferencePlan* plan = fx.predictor->inference_plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(plan->store(), nullptr);
  EXPECT_EQ(plan->store()->max_resident(), 1);

  int64_t faults_before = metrics::GetCounter("infer.shard_faults").Value();
  int64_t evictions_before =
      metrics::GetCounter("infer.shard_evictions").Value();
  // Pairs spanning all users force cross-shard faults under a 1-block cap.
  (void)fx.predictor->PredictProbabilities(fx.Pairs(32));
  EXPECT_LE(plan->store()->num_resident(), 1);
  EXPECT_GT(metrics::GetCounter("infer.shard_faults").Value(), faults_before);
  EXPECT_GT(metrics::GetCounter("infer.shard_evictions").Value(),
            evictions_before);
  // Residency never exceeds one block's bytes (plus slack for dim rounding).
  EXPECT_LE(plan->store()->resident_bytes(),
            (fx.dataset.num_users / 4 + 1) * sizeof(float) * 4096);
  fx.predictor->DisableShardedInference();
  metrics::Disable();
}

TEST_F(ShardedPlanTest, BatchFetchesEachBlockOnceUnderCapOne) {
  metrics::Enable();
  metrics::Reset();
  PredictorFixture fx;
  models::ShardedPlanOptions plan_opts;
  plan_opts.num_shards = 4;
  plan_opts.max_resident_shards = 1;
  plan_opts.spill_dir = SpillDir();
  fx.predictor->EnableShardedInference(plan_opts);
  fx.predictor->WarmInferencePlan();
  auto sharding = UserSharding::Create(fx.dataset.num_users, 4);
  ASSERT_TRUE(sharding.ok());
  // Test pairs in pair order hop between shards on nearly every endpoint,
  // so a row-by-row gather under a 1-block cap would fault per row.
  for (size_t batch : {8u, 32u, 64u}) {
    std::vector<data::TrustPair> pairs = fx.Pairs(batch);
    std::vector<bool> touched(4, false);
    for (const data::TrustPair& p : pairs) {
      touched[static_cast<size_t>(sharding->ShardOf(p.src))] = true;
      touched[static_cast<size_t>(sharding->ShardOf(p.dst))] = true;
    }
    const int64_t blocks = std::count(touched.begin(), touched.end(), true);
    const int64_t before = metrics::GetCounter("infer.shard_faults").Value();
    (void)fx.predictor->PredictProbabilities(pairs);
    const int64_t faults =
        metrics::GetCounter("infer.shard_faults").Value() - before;
    EXPECT_LE(faults, blocks) << "batch " << batch;
    EXPECT_GE(faults, blocks - 1) << "batch " << batch;
  }
  fx.predictor->DisableShardedInference();
  metrics::Disable();
}

TEST_F(ShardedPlanTest, CorruptBlockSurfacesAsCorruption) {
  PredictorFixture fx;
  models::ShardedPlanOptions plan_opts;
  plan_opts.num_shards = 2;
  plan_opts.max_resident_shards = 1;
  plan_opts.spill_dir = SpillDir();
  fx.predictor->EnableShardedInference(plan_opts);
  fx.predictor->WarmInferencePlan();
  // Flip a payload byte in every spilled block; the next fault of either
  // shard must fail the CRC, not serve garbage embeddings.
  size_t flipped = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(SpillDir())) {
    if (!entry.is_regular_file()) continue;
    std::fstream f(entry.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(20);  // past magic + shard + rows + cols, into the payload
    char byte = 0;
    f.get(byte);
    f.seekp(20);
    f.put(static_cast<char>(byte ^ 0x5A));
    ++flipped;
  }
  ASSERT_GT(flipped, 0u);
  auto* plan =
      const_cast<models::InferencePlan*>(fx.predictor->inference_plan());
  // Drop residency so Score must fault from the corrupt files.
  ASSERT_TRUE(plan->mutable_store() != nullptr);
  auto result = plan->mutable_store()->Fetch(0);
  // Block 0 may still be resident from the warm; fault the other shard too.
  auto result1 = plan->mutable_store()->Fetch(1);
  EXPECT_TRUE(!result.ok() || !result1.ok());
  StatusCode code = !result.ok() ? result.status().code()
                                 : result1.status().code();
  EXPECT_EQ(code, StatusCode::kCorruption);
  fx.predictor->DisableShardedInference();
}

TEST_F(ShardedPlanTest, InvalidationRebuildsAfterWeightChange) {
  metrics::Enable();
  metrics::Reset();
  PredictorFixture fx;
  models::ShardedPlanOptions plan_opts;
  plan_opts.num_shards = 2;
  plan_opts.spill_dir = SpillDir();
  fx.predictor->EnableShardedInference(plan_opts);
  std::vector<data::TrustPair> pairs = fx.Pairs(8);
  std::vector<float> before = fx.predictor->PredictProbabilities(pairs);
  int64_t builds_before =
      metrics::GetCounter("infer.plan_builds").Value();
  fx.predictor->InvalidateCaches();
  std::vector<float> after = fx.predictor->PredictProbabilities(pairs);
  EXPECT_EQ(metrics::GetCounter("infer.plan_builds").Value(),
            builds_before + 1);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "same weights must re-encode identically";
  }
  fx.predictor->DisableShardedInference();
  metrics::Disable();
}

TEST_F(ShardedPlanTest, ModelBackendShardedScoresMatchMonolithic) {
  PredictorFixture mono_fx;
  std::vector<data::TrustPair> pairs = mono_fx.Pairs(32);
  std::vector<float> mono = mono_fx.predictor->PredictProbabilities(pairs);

  PredictorFixture sharded_fx;
  models::ShardedPlanOptions plan_opts;
  plan_opts.num_shards = 3;
  plan_opts.max_resident_shards = 2;
  plan_opts.spill_dir = SpillDir();
  // The factory matters only for Reload; scoring uses the initial model.
  serve::ModelBackend backend([]() { return nullptr; },
                              std::move(sharded_fx.predictor), plan_opts);
  auto result = backend.ScoreBatch(pairs);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), mono.size());
  for (size_t i = 0; i < mono.size(); ++i) {
    EXPECT_EQ(result.value()[i], mono[i]) << "pair " << i;
  }
}

}  // namespace
}  // namespace ahntp
