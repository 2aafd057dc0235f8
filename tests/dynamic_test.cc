// Tests for the dynamic trust stack (DESIGN.md §17): the mutable store's
// delta semantics, incremental motif counts and warm-started influence
// against full recomputation, incremental hypergroup maintenance, the
// apply(delta) ≡ rebuild-from-scratch equivalence for fp32 and int8
// inference plans across thread counts, fault-injection rollback, the
// serve write lane, and reads running beside an in-flight apply.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/parallel.h"
#include "core/dynamic_pipeline.h"
#include "data/generator.h"
#include "graph/delta.h"
#include "graph/dynamic_motifs.h"
#include "graph/motifs.h"
#include "graph/pagerank.h"
#include "hypergraph/builders.h"
#include "models/inference_plan.h"
#include "serve/dynamic.h"
#include "serve/server.h"

namespace ahntp {
namespace {

using core::DynamicPipelineOptions;
using core::DynamicTrustPipeline;
using graph::GraphDelta;
using hypergraph::Hypergraph;

data::SocialDataset TestDataset() {
  data::GeneratorConfig config;
  config.num_users = 60;
  config.num_items = 80;
  config.num_communities = 3;
  config.avg_trust_out_degree = 5.0;
  config.avg_purchases_per_user = 6.0;
  config.seed = 7;
  return data::SocialNetworkGenerator(config).Generate();
}

DynamicPipelineOptions SmallOptions() {
  DynamicPipelineOptions options;
  options.model.hidden_dims = {16, 8};
  return options;
}

std::vector<GraphDelta> TestDeltas(const data::SocialDataset& dataset,
                                   size_t count) {
  data::DeltaStreamConfig config;
  config.num_deltas = count;
  return data::GenerateTrustDeltas(dataset, config);
}

std::vector<data::TrustPair> Queries(const data::SocialDataset& dataset,
                                     size_t n) {
  std::vector<data::TrustPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back({static_cast<int>(i % dataset.num_users),
                     static_cast<int>((3 * i + 1) % dataset.num_users),
                     1.0f});
  }
  return pairs;
}

std::vector<std::pair<int, int>> AsPairs(const std::vector<graph::Edge>& edges) {
  std::vector<std::pair<int, int>> out;
  out.reserve(edges.size());
  for (const graph::Edge& e : edges) out.emplace_back(e.src, e.dst);
  return out;
}

serve::TrustQuery MakeQuery(int src, int dst) {
  serve::TrustQuery query;
  query.src = src;
  query.dst = dst;
  return query;
}

void ExpectCsrEq(const tensor::CsrMatrix& a, const tensor::CsrMatrix& b,
                 const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(a.row_ptr(), b.row_ptr()) << what;
  EXPECT_EQ(a.col_idx(), b.col_idx()) << what;
  EXPECT_EQ(a.values(), b.values()) << what;
}

void ExpectHypergraphEq(const Hypergraph& a, const Hypergraph& b,
                        const std::string& what) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  for (size_t e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.EdgeVertices(e), b.EdgeVertices(e)) << what << " edge " << e;
    EXPECT_EQ(a.EdgeWeight(e), b.EdgeWeight(e)) << what << " edge " << e;
  }
}

// ---------------------------------------------------------------------------
// Store semantics.
// ---------------------------------------------------------------------------

TEST(MutableGraphTest, DeltaSemanticsAndGeneration) {
  auto store =
      graph::MutableTrustGraph::Create(5, {{0, 1}, {1, 2}, {2, 3}}).value();
  EXPECT_EQ(store.generation(), 0);
  EXPECT_EQ(store.num_edges(), 3u);

  // Empty delta: applied, generation bumped, nothing changes.
  auto empty = store.Apply(GraphDelta{});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->generation, 1);
  EXPECT_FALSE(empty->structural_change());
  EXPECT_EQ(store.num_edges(), 3u);

  // Duplicate adds, self-loops, and nonexistent removes are ignored and
  // counted; a remove+add of the same edge leaves it present (removes
  // apply first).
  GraphDelta delta;
  delta.add_edges = {{0, 1}, {3, 4}, {3, 4}, {2, 2}};
  delta.remove_edges = {{1, 2}, {4, 0}, {0, 1}};
  delta.add_edges.push_back({0, 1});  // re-add what the remove deleted
  auto receipt = store.Apply(delta);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->generation, 2);
  EXPECT_EQ(receipt->edges_added, 2u);     // {3,4} and the {0,1} re-add
  EXPECT_EQ(receipt->edges_removed, 2u);   // {1,2} and {0,1}
  // Ignored adds: dup {3,4}, self-loop {2,2}, and the second {0,1} (the
  // first one already restored the edge the remove deleted).
  EXPECT_EQ(receipt->adds_ignored, 3u);
  EXPECT_EQ(receipt->removes_ignored, 1u); // {4,0} absent
  EXPECT_TRUE(store.HasEdge(0, 1));
  EXPECT_TRUE(store.HasEdge(3, 4));
  EXPECT_FALSE(store.HasEdge(1, 2));

  // Replaying the same delta is idempotent on membership.
  auto replay = store.Apply(delta);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(AsPairs(store.CanonicalEdges()),
            (std::vector<std::pair<int, int>>{{0, 1}, {2, 3}, {3, 4}}));
}

TEST(MutableGraphTest, CanonicalOrderIndependentOfHistory) {
  // Two stores reaching the same edge set through different mutation
  // histories expose identical canonical edge lists and views.
  auto a = graph::MutableTrustGraph::Create(6, {{0, 1}, {2, 3}}).value();
  GraphDelta d1;
  d1.add_edges = {{4, 5}, {1, 0}};
  ASSERT_TRUE(a.Apply(d1).ok());

  auto b = graph::MutableTrustGraph::Create(
               6, {{4, 5}, {0, 1}, {1, 0}, {2, 3}, {5, 4}})
               .value();
  GraphDelta d2;
  d2.remove_edges = {{5, 4}};
  ASSERT_TRUE(b.Apply(d2).ok());

  EXPECT_EQ(AsPairs(a.CanonicalEdges()), AsPairs(b.CanonicalEdges()));
  EXPECT_EQ(a.View().Adjacency().row_ptr(), b.View().Adjacency().row_ptr());
  EXPECT_EQ(a.View().Adjacency().col_idx(), b.View().Adjacency().col_idx());
}

TEST(MutableGraphTest, CompactionPreservesStateAcrossThreshold) {
  graph::MutableGraphOptions options;
  options.compaction_threshold = 4;
  auto store = graph::MutableTrustGraph::Create(20, {{0, 1}}, options).value();
  std::vector<std::pair<int, int>> expected = {{0, 1}};
  for (int i = 1; i < 12; ++i) {
    GraphDelta delta;
    delta.add_edges = {{i, (i + 7) % 20}};
    if (i % 3 == 0) {
      delta.remove_edges = {{expected.front().first, expected.front().second}};
    }
    auto receipt = store.Apply(delta);
    ASSERT_TRUE(receipt.ok());
    if (i % 3 == 0) expected.erase(expected.begin());
    if ((i + 7) % 20 != i) expected.push_back({i, (i + 7) % 20});
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(AsPairs(store.CanonicalEdges()), expected) << "after delta " << i;
  }
  // Overlays must have folded at least once under threshold 4.
  EXPECT_LT(store.overlay_size(), 8u);
}

// ---------------------------------------------------------------------------
// Incremental analytics: motifs and warm PageRank.
// ---------------------------------------------------------------------------

TEST(DynamicAnalyticsTest, MotifCountsMatchFullRebuildAfterDeltas) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  ASSERT_NE(pipeline.motif_counts(), nullptr);
  for (const GraphDelta& delta : TestDeltas(dataset, 6)) {
    ASSERT_TRUE(pipeline.ApplyDelta(delta).ok());
    tensor::CsrMatrix incremental = pipeline.motif_counts()->ToCsr();
    tensor::CsrMatrix full = graph::MotifAdjacency(
        pipeline.store().View().Adjacency(), graph::Motif::kM6);
    ExpectCsrEq(incremental, full, "motif counts");
  }
}

TEST(DynamicAnalyticsTest, WarmInfluenceMatchesColdSolve) {
  data::SocialDataset dataset = TestDataset();
  DynamicPipelineOptions options = SmallOptions();
  auto pipeline = DynamicTrustPipeline::Create(dataset, options).value();
  int saved_total = 0;
  for (const GraphDelta& delta : TestDeltas(dataset, 6)) {
    auto outcome = pipeline.ApplyDelta(delta);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->receipt.structural_change()) continue;

    graph::MotifPageRankOptions mpr;
    mpr.alpha = options.model.mpr_alpha;
    mpr.motif = options.model.motif;
    mpr.pagerank = options.model.pagerank;
    std::vector<double> cold =
        graph::MotifPageRankFrom(pipeline.store().View().Adjacency(),
                                 pipeline.motif_counts()->ToCsr(), mpr)
            .scores;
    ASSERT_EQ(pipeline.influence().size(), cold.size());
    // PowerIterate runs its SpMV in float (the score vector is quantized to
    // float every iteration), so warm and cold solves converge to slightly
    // different fixed points of the float-roundtripped map: the reachable
    // agreement floor is ~3e-9 regardless of the 1e-12 stop tolerance.
    // Bound the comparison just above that noise floor.
    for (size_t i = 0; i < cold.size(); ++i) {
      double bound = 1e-9 + 1e-6 * std::abs(cold[i]);
      EXPECT_NEAR(pipeline.influence()[i], cold[i], bound) << "node " << i;
    }
    EXPECT_GT(outcome->pagerank_iterations, 0);
    EXPECT_LE(outcome->pagerank_iterations,
              outcome->pagerank_cold_iterations);
    saved_total += outcome->pagerank_cold_iterations -
                   outcome->pagerank_iterations;
  }
  // Warm starts must actually save iterations over the run (the telemetry
  // the bench reports); equality everywhere would mean the warm start is
  // not wired through.
  EXPECT_GT(saved_total, 0);
}

// ---------------------------------------------------------------------------
// Incremental hypergroups.
// ---------------------------------------------------------------------------

TEST(DynamicHypergroupTest, AllFourGroupsMatchBuildersAfterDeltas) {
  data::SocialDataset dataset = TestDataset();
  DynamicPipelineOptions options = SmallOptions();
  // Small enough that the multi-hop cap truncates balls in this graph, so
  // the update and the builder are compared where the cap decides members.
  options.model.multi_hop_max_edge_size = 4;
  auto pipeline = DynamicTrustPipeline::Create(dataset, options).value();
  for (const GraphDelta& delta : TestDeltas(dataset, 6)) {
    ASSERT_TRUE(pipeline.ApplyDelta(delta).ok());
    const graph::Digraph& view = pipeline.store().View();
    ExpectHypergraphEq(
        pipeline.social_hypergroup(),
        hypergraph::BuildSocialInfluenceHypergroup(
            view, pipeline.influence(), options.model.social_top_k),
        "social");
    ExpectHypergraphEq(pipeline.attribute_hypergroup(),
                       hypergraph::BuildAttributeHypergroup(
                           view.num_nodes(), pipeline.dataset().attributes,
                           options.model.attribute_min_size),
                       "attribute");
    ExpectHypergraphEq(pipeline.pairwise_hypergroup(),
                       hypergraph::BuildPairwiseHypergroup(view), "pairwise");
    hypergraph::MultiHopOptions hop;
    hop.num_hops = options.model.multi_hop;
    hop.max_edge_size = options.model.multi_hop_max_edge_size;
    ExpectHypergraphEq(pipeline.multihop_hypergroup(),
                       hypergraph::BuildMultiHopHypergroup(view, hop),
                       "multi-hop");
    size_t capped = 0;
    for (size_t e = 0; e < pipeline.multihop_hypergroup().num_edges(); ++e) {
      const size_t degree = pipeline.multihop_hypergroup().EdgeDegree(e);
      EXPECT_LE(degree, hop.max_edge_size) << "multi-hop edge " << e;
      if (degree == hop.max_edge_size) ++capped;
    }
    EXPECT_GT(capped, 0u) << "the cap never bit; shrink it";
  }
}

// ---------------------------------------------------------------------------
// The end-to-end equivalence oracle: apply(delta) ≡ rebuild, bitwise, for
// fp32 and int8 plans, K ∈ {1, 3}, threads ∈ {1, 2, 8}.
// ---------------------------------------------------------------------------

struct OracleCase {
  int social_top_k;
  models::PlanPrecision precision;
};

class DynamicOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(DynamicOracleTest, IncrementalMatchesRebuildBitwise) {
  const OracleCase& param = GetParam();
  data::SocialDataset dataset = TestDataset();
  DynamicPipelineOptions options = SmallOptions();
  options.model.social_top_k = param.social_top_k;
  auto pipeline = DynamicTrustPipeline::Create(dataset, options).value();
  pipeline.predictor().SetInferencePrecision(param.precision);
  // Build the plan tables up front so ApplyDelta patches rows instead of
  // the first prediction paying a full encode.
  pipeline.predictor().WarmInferencePlan();

  std::vector<data::TrustPair> pairs = Queries(dataset, 24);
  for (const GraphDelta& delta : TestDeltas(dataset, 4)) {
    ASSERT_TRUE(pipeline.ApplyDelta(delta).ok());
    auto oracle = pipeline.RebuildFromScratch();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    oracle->predictor().SetInferencePrecision(param.precision);

    std::vector<float> expected = oracle->predictor().PredictProbabilities(pairs);
    for (int threads : {1, 2, 8}) {
      SetNumThreads(threads);
      std::vector<float> got =
          pipeline.predictor().PredictProbabilities(pairs);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << "pair " << i << " threads=" << threads
            << " K=" << param.social_top_k;
      }
    }
    SetNumThreads(0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionAndTopK, DynamicOracleTest,
    ::testing::Values(
        OracleCase{1, models::PlanPrecision::kFloat32},
        OracleCase{3, models::PlanPrecision::kFloat32},
        OracleCase{1, models::PlanPrecision::kInt8},
        OracleCase{3, models::PlanPrecision::kInt8}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string("K") + std::to_string(info.param.social_top_k) +
             (info.param.precision == models::PlanPrecision::kInt8
                  ? "_int8"
                  : "_fp32");
    });

TEST(DynamicShardedTest, ShardedPlanPatchedRowsMatchOracle) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  const std::string spill_dir =
      ::testing::TempDir() + "/dynamic_shard_" + std::to_string(getpid());
  models::ShardedPlanOptions sharded;
  sharded.num_shards = 4;
  sharded.max_resident_shards = 2;
  sharded.spill_dir = spill_dir;
  pipeline.predictor().EnableShardedInference(sharded);
  pipeline.predictor().WarmInferencePlan();

  std::vector<data::TrustPair> pairs = Queries(dataset, 24);
  for (const GraphDelta& delta : TestDeltas(dataset, 3)) {
    ASSERT_TRUE(pipeline.ApplyDelta(delta).ok());
    auto oracle = pipeline.RebuildFromScratch();
    ASSERT_TRUE(oracle.ok());
    std::vector<float> expected =
        oracle->predictor().PredictProbabilities(pairs);
    std::vector<float> got = pipeline.predictor().PredictProbabilities(pairs);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "pair " << i;
    }
  }
  std::filesystem::remove_all(spill_dir);
}

// ---------------------------------------------------------------------------
// Fault rollback: both sites leave the pipeline at the previous generation
// with every derived structure intact.
// ---------------------------------------------------------------------------

class DynamicFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Disable(); }
  void TearDown() override { fault::Disable(); }
};

TEST_F(DynamicFaultTest, StoreApplyFaultRollsBack) {
  auto store = graph::MutableTrustGraph::Create(5, {{0, 1}, {1, 2}}).value();
  GraphDelta delta;
  delta.add_edges = {{2, 3}};
  ASSERT_TRUE(store.Apply(delta).ok());
  EXPECT_EQ(store.generation(), 1);

  ASSERT_TRUE(fault::EnableFromSpec("graph.delta.apply@1").ok());
  GraphDelta second;
  second.add_edges = {{3, 4}};
  second.remove_edges = {{0, 1}};
  auto failed = store.Apply(second);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  fault::Disable();

  // Bit-identical to the pre-apply state: same generation, same edges.
  EXPECT_EQ(store.generation(), 1);
  EXPECT_TRUE(store.HasEdge(0, 1));
  EXPECT_FALSE(store.HasEdge(3, 4));

  // The store still works after the fault.
  ASSERT_TRUE(store.Apply(second).ok());
  EXPECT_EQ(store.generation(), 2);
  EXPECT_TRUE(store.HasEdge(3, 4));
  EXPECT_FALSE(store.HasEdge(0, 1));
}

TEST_F(DynamicFaultTest, PlanRefreshFaultRevertsStoreAndDerivedState) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  std::vector<data::TrustPair> pairs = Queries(dataset, 16);
  std::vector<float> before = pipeline.predictor().PredictProbabilities(pairs);
  const int64_t generation = pipeline.generation();
  std::vector<std::pair<int, int>> edges = AsPairs(pipeline.store().CanonicalEdges());

  std::vector<GraphDelta> deltas = TestDeltas(dataset, 2);
  ASSERT_TRUE(fault::EnableFromSpec("plan.delta.refresh@1").ok());
  auto failed = pipeline.ApplyDelta(deltas[0]);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  fault::Disable();

  // Store rolled back to the previous generation; derived state (motifs,
  // influence, hypergroups, plans) was never touched, so predictions are
  // bit-identical.
  EXPECT_EQ(pipeline.generation(), generation);
  EXPECT_EQ(AsPairs(pipeline.store().CanonicalEdges()), edges);
  std::vector<float> after = pipeline.predictor().PredictProbabilities(pairs);
  EXPECT_EQ(before, after);

  // And the cascade still applies cleanly afterwards, matching the oracle.
  ASSERT_TRUE(pipeline.ApplyDelta(deltas[0]).ok());
  auto oracle = pipeline.RebuildFromScratch();
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(pipeline.predictor().PredictProbabilities(pairs),
            oracle->predictor().PredictProbabilities(pairs));
}

// ---------------------------------------------------------------------------
// Serve write lane: deltas applied on the writer thread, generation-keyed
// flushes, read-your-writes by waiting on the mutation's future.
// ---------------------------------------------------------------------------

TEST(ServeMutationTest, WriteLaneAppliesBetweenSegments) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  serve::DynamicBackend backend(&pipeline);
  std::vector<GraphDelta> deltas = TestDeltas(dataset, 2);

  serve::ServeOptions options;
  options.queue_capacity = 64;
  options.max_batch_size = 8;
  options.score_cache_entries = 64;
  serve::TrustServer server(options, &backend, nullptr, &backend);

  // Reads and a mutation; then, once the mutation's future says it is
  // published, more reads and a second mutation.
  std::vector<data::TrustPair> pairs = Queries(dataset, 6);
  std::vector<std::future<serve::TrustResponse>> reads;
  for (const auto& p : pairs) {
    reads.push_back(server.Submit(MakeQuery(p.src, p.dst)));
  }
  std::future<serve::MutationResponse> first_write =
      server.SubmitMutation(deltas[0]);
  server.Start();
  serve::MutationResponse first = first_write.get();
  for (const auto& p : pairs) {
    reads.push_back(server.Submit(MakeQuery(p.src, p.dst)));
  }
  std::future<serve::MutationResponse> second_write =
      server.SubmitMutation(deltas[1]);
  server.Shutdown();

  for (auto& read : reads) {
    serve::TrustResponse response = read.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  serve::MutationResponse second = second_write.get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(first.generation, 1);
  EXPECT_EQ(second.generation, 2);
  EXPECT_EQ(pipeline.generation(), 2);

  serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.mutations_submitted, 2);
  EXPECT_EQ(stats.mutations_applied, 2);
  EXPECT_EQ(stats.mutations_failed, 0);
  // The second read wave was submitted after the first delta published,
  // so it saw a fresh generation and the cache flushed at least once.
  EXPECT_GE(stats.cache_flushes, 1);
  EXPECT_EQ(stats.ok, static_cast<int64_t>(reads.size()));
}

TEST(ServeMutationTest, NoSinkAndShutdownResolveFailedPrecondition) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  serve::DynamicBackend backend(&pipeline);
  std::vector<GraphDelta> deltas = TestDeltas(dataset, 1);

  {
    // Read-only server: the write lane rejects immediately.
    serve::ServeOptions options;
    serve::TrustServer server(options, &backend, nullptr);
    auto future = server.SubmitMutation(deltas[0]);
    serve::MutationResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(server.Stats().mutations_rejected, 1);
  }
  {
    // Enqueued but never started: shutdown drains the promise.
    serve::ServeOptions options;
    serve::TrustServer server(options, &backend, nullptr, &backend);
    auto future = server.SubmitMutation(deltas[0]);
    server.Shutdown();
    serve::MutationResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(pipeline.generation(), 0);  // never applied
    EXPECT_EQ(server.Stats().mutations_failed, 1);
  }
}

TEST(ServeMutationTest, MutationFaultKeepsPreviousGenerationServing) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  serve::DynamicBackend backend(&pipeline);
  std::vector<GraphDelta> deltas = TestDeltas(dataset, 1);
  std::vector<data::TrustPair> pairs = Queries(dataset, 4);
  std::vector<float> before = pipeline.predictor().PredictProbabilities(pairs);

  serve::ServeOptions options;
  serve::TrustServer server(options, &backend, nullptr, &backend);
  auto write = server.SubmitMutation(deltas[0]);
  std::vector<std::future<serve::TrustResponse>> reads;
  for (const auto& p : pairs) reads.push_back(server.Submit(MakeQuery(p.src, p.dst)));

  ASSERT_TRUE(fault::EnableFromSpec("plan.delta.refresh@1").ok());
  server.Start();
  server.Shutdown();
  fault::Disable();

  serve::MutationResponse response = write.get();
  EXPECT_EQ(response.status.code(), StatusCode::kInternal);
  EXPECT_EQ(pipeline.generation(), 0);
  for (size_t i = 0; i < reads.size(); ++i) {
    serve::TrustResponse read = reads[i].get();
    ASSERT_TRUE(read.status.ok());
    EXPECT_EQ(read.score, before[i]) << "pair " << i;
  }
  EXPECT_EQ(server.Stats().mutations_failed, 1);
}


// ---------------------------------------------------------------------------
// Reads beside an in-flight apply: the writer thread never holds up the
// dispatcher, and a read never pairs a generation with another
// generation's rows.
// ---------------------------------------------------------------------------

/// MutationSink decorator that parks the writer inside ApplyMutation until
/// Release(), holding an apply in flight for as long as a test needs.
class BlockingSink : public serve::MutationSink {
 public:
  explicit BlockingSink(serve::MutationSink* inner) : inner_(inner) {}

  Result<graph::DeltaReceipt> ApplyMutation(const GraphDelta& delta) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return inner_->ApplyMutation(delta);
  }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  serve::MutationSink* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(ServeMutationTest, ReadsCompleteWhileApplyIsInFlight) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  serve::DynamicBackend backend(&pipeline);
  BlockingSink sink(&backend);
  std::vector<GraphDelta> deltas = TestDeltas(dataset, 1);
  std::vector<data::TrustPair> pairs = Queries(dataset, 8);
  const std::vector<float> before =
      pipeline.predictor().PredictProbabilities(pairs);

  serve::ServeOptions options;
  options.max_batch_size = 4;
  serve::TrustServer server(options, &backend, nullptr, &sink);
  server.Start();
  std::future<serve::MutationResponse> write =
      server.SubmitMutation(deltas[0]);
  sink.WaitEntered();
  {
    // Released on every exit path, so a failed assertion cannot leave the
    // server's Shutdown waiting on a parked thread.
    struct ReleaseOnExit {
      BlockingSink* sink;
      ~ReleaseOnExit() { sink->Release(); }
    } release{&sink};

    std::vector<std::future<serve::TrustResponse>> reads;
    for (const auto& p : pairs) {
      reads.push_back(server.Submit(MakeQuery(p.src, p.dst)));
    }
    for (size_t i = 0; i < reads.size(); ++i) {
      ASSERT_EQ(reads[i].wait_for(std::chrono::seconds(10)),
                std::future_status::ready)
          << "read " << i << " waited behind the in-flight apply";
      serve::TrustResponse read = reads[i].get();
      ASSERT_TRUE(read.status.ok()) << read.status.ToString();
      EXPECT_EQ(read.score, before[i]) << "pair " << i;
    }
    EXPECT_EQ(backend.generation(), 0);
  }
  serve::MutationResponse response = write.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.generation, 1);
  server.Shutdown();
}

TEST(DynamicConcurrencyTest, ReaderNeverPairsAGenerationWithOtherRows) {
  data::SocialDataset dataset = TestDataset();
  const std::vector<GraphDelta> deltas = TestDeltas(dataset, 6);
  const std::vector<data::TrustPair> probes = Queries(dataset, 24);

  // The oracle: a rebuilt pipeline's scores at every generation.
  std::map<int64_t, std::vector<float>> oracle;
  {
    auto replay =
        DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
    oracle[replay.generation()] =
        replay.predictor().PredictProbabilities(probes);
    for (const GraphDelta& delta : deltas) {
      ASSERT_TRUE(replay.ApplyDelta(delta).ok());
      auto rebuilt = replay.RebuildFromScratch();
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
      oracle[replay.generation()] =
          rebuilt->predictor().PredictProbabilities(probes);
    }
  }
  ASSERT_EQ(oracle.size(), deltas.size() + 1);

  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  serve::DynamicBackend backend(&pipeline);

  struct Observation {
    int64_t before;
    int64_t after;
    std::vector<float> scores;
  };
  std::vector<Observation> seen;
  std::atomic<bool> writer_done{false};
  std::atomic<int> reads{0};
  std::thread reader([&] {
    do {
      Observation o;
      o.before = backend.generation();
      o.scores = backend.ScoreBatch(probes).value();
      o.after = backend.generation();
      seen.push_back(std::move(o));
      reads.fetch_add(1, std::memory_order_release);
    } while (!writer_done.load(std::memory_order_acquire));
  });
  while (reads.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  for (const GraphDelta& delta : deltas) {
    ASSERT_TRUE(pipeline.ApplyDelta(delta).ok());
  }
  writer_done.store(true, std::memory_order_release);
  reader.join();

  // A read that saw one generation on both sides of its score scored that
  // generation's rows exactly. A read that straddled a publish scored the
  // rows of a generation in [before, after] — never older than `before`.
  int exact = 0;
  for (size_t i = 0; i < seen.size(); ++i) {
    const Observation& o = seen[i];
    ASSERT_LE(o.before, o.after);
    if (o.before == o.after) {
      ++exact;
      EXPECT_EQ(o.scores, oracle.at(o.before))
          << "read " << i << " at generation " << o.before;
      continue;
    }
    bool matched = false;
    for (int64_t g = o.before; g <= o.after && !matched; ++g) {
      matched = o.scores == oracle.at(g);
    }
    EXPECT_TRUE(matched) << "read " << i << " straddling generations "
                         << o.before << ".." << o.after;
  }
  EXPECT_GT(exact, 0);
  EXPECT_EQ(pipeline.generation(), static_cast<int64_t>(deltas.size()));
  EXPECT_EQ(backend.ScoreBatch(probes).value(),
            oracle.at(static_cast<int64_t>(deltas.size())));
}

TEST_F(DynamicFaultTest, RolledBackDeltaPublishesNothing) {
  data::SocialDataset dataset = TestDataset();
  auto pipeline =
      DynamicTrustPipeline::Create(dataset, SmallOptions()).value();
  serve::DynamicBackend backend(&pipeline);
  std::vector<data::TrustPair> pairs = Queries(dataset, 16);
  const std::vector<float> before = backend.ScoreBatch(pairs).value();
  const GraphDelta delta = TestDeltas(dataset, 1)[0];

  for (const char* site : {"graph.delta.apply", "plan.delta.refresh"}) {
    ASSERT_TRUE(fault::EnableFromSpec(std::string(site) + "@1").ok());
    auto failed = backend.ApplyMutation(delta);
    fault::Disable();
    EXPECT_FALSE(failed.ok()) << site;
    EXPECT_EQ(backend.generation(), 0) << site;
    EXPECT_EQ(pipeline.store().generation(), 0) << site;
    EXPECT_EQ(backend.ScoreBatch(pairs).value(), before) << site;
  }
  ASSERT_TRUE(backend.ApplyMutation(delta).ok());
  EXPECT_EQ(backend.generation(), 1);
}

}  // namespace
}  // namespace ahntp
