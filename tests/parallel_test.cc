#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "graph/digraph.h"
#include "graph/pagerank.h"
#include "hypergraph/builders.h"
#include "hypergraph/hypergraph.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"

namespace ahntp {
namespace {

/// Restores the default thread configuration when a test exits, so a
/// failing assertion cannot leak an override into later tests.
class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) { SetNumThreads(threads); }
  ~ThreadGuard() { SetNumThreads(0); }
};

// ---------------------------------------------------------------------------
// Pool lifecycle & dispatch
// ---------------------------------------------------------------------------

TEST(ParallelTest, NumThreadsIsPositive) {
  EXPECT_GE(NumThreads(), 1);
}

TEST(ParallelTest, SetNumThreadsRoundTrips) {
  ThreadGuard guard(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
}

TEST(ParallelTest, PoolSurvivesReconfiguration) {
  ThreadGuard guard(2);
  std::atomic<int> count{0};
  ParallelFor(0, 100, 1, [&](size_t b, size_t e) {
    count += static_cast<int>(e - b);
  });
  SetNumThreads(4);  // joins the old pool, next dispatch builds a new one
  ParallelFor(0, 100, 1, [&](size_t b, size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 200);
}

TEST(ParallelTest, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, hits.size(), 7, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelTest, WorkerNestingRunsInline) {
  ThreadGuard guard(4);
  EXPECT_FALSE(InParallelWorker());
  std::atomic<int> nested_total{0};
  ParallelFor(0, 8, 1, [&](size_t, size_t) {
    // A nested region must execute (serially) rather than deadlock.
    ParallelFor(0, 10, 1, [&](size_t b, size_t e) {
      nested_total += static_cast<int>(e - b);
    });
  });
  EXPECT_EQ(nested_total.load(), 80);
}

// ---------------------------------------------------------------------------
// Grain-size edge cases
// ---------------------------------------------------------------------------

TEST(ParallelTest, EmptyRangeNeverInvokes) {
  ThreadGuard guard(4);
  bool invoked = false;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { invoked = true; });
  ParallelFor(7, 3, 1, [&](size_t, size_t) { invoked = true; });
  EXPECT_FALSE(invoked);
  double total = ParallelReduce<double>(
      9, 9, 4, 1.5, [](size_t, size_t) { return 100.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(total, 1.5);  // identity untouched
}

TEST(ParallelTest, SingleElementRangeRunsOnCaller) {
  ThreadGuard guard(4);
  int calls = 0;
  ParallelFor(41, 42, 1, [&](size_t b, size_t e) {
    ++calls;
    EXPECT_EQ(b, 41u);
    EXPECT_EQ(e, 42u);
    EXPECT_FALSE(InParallelWorker());  // small ranges stay on the caller
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, ZeroGrainIsTreatedAsOne) {
  ThreadGuard guard(2);
  std::atomic<int> count{0};
  ParallelFor(0, 5, 0, [&](size_t b, size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 5);
}

TEST(ParallelTest, GrainLargerThanRangeRunsSerially) {
  ThreadGuard guard(8);
  int calls = 0;
  ParallelFor(0, 100, 1000, [&](size_t b, size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 100u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelTest, ChunkBoundariesFollowGrain) {
  ThreadGuard guard(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelFor(10, 35, 10, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back({b, e});
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0], (std::pair<size_t, size_t>{10, 20}));
  EXPECT_EQ(chunks[1], (std::pair<size_t, size_t>{20, 30}));
  EXPECT_EQ(chunks[2], (std::pair<size_t, size_t>{30, 35}));
}

// ---------------------------------------------------------------------------
// Exception propagation
// ---------------------------------------------------------------------------

TEST(ParallelTest, WorkerExceptionReachesCaller) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [](size_t b, size_t) {
                    if (b == 42) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelTest, FirstExceptionWinsAndPoolStaysUsable) {
  ThreadGuard guard(4);
  try {
    ParallelFor(0, 64, 1, [](size_t b, size_t) {
      if (b % 2 == 0) throw std::runtime_error("even chunk");
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "even chunk");
  }
  // The failed batch must not wedge the pool.
  std::atomic<int> count{0};
  ParallelFor(0, 100, 1, [&](size_t b, size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 100);
}

// ---------------------------------------------------------------------------
// ParallelReduce determinism
// ---------------------------------------------------------------------------

TEST(ParallelTest, ReduceMatchesSerialSum) {
  ThreadGuard guard(4);
  std::vector<double> values(10000);
  Rng rng(5);
  for (auto& v : values) v = rng.NextDouble() - 0.5;
  auto map = [&](size_t b, size_t e) {
    double acc = 0.0;
    for (size_t i = b; i < e; ++i) acc += values[i];
    return acc;
  };
  auto combine = [](double a, double b) { return a + b; };
  double with_pool =
      ParallelReduce<double>(0, values.size(), 128, 0.0, map, combine);
  SetNumThreads(1);
  double serial =
      ParallelReduce<double>(0, values.size(), 128, 0.0, map, combine);
  // Same grain => same chunk boundaries => bit-identical.
  EXPECT_EQ(std::memcmp(&with_pool, &serial, sizeof(double)), 0);
}

// ---------------------------------------------------------------------------
// Kernel determinism across thread counts (the EXPERIMENTS.md seed
// contract): MatMul, SpMM, SpGEMM, PageRank and the hypergroup builds must
// be bit-identical at 1, 2, and 8 threads.
// ---------------------------------------------------------------------------

template <typename Fn>
auto RunAtThreads(int threads, const Fn& fn) {
  ThreadGuard guard(threads);
  return fn();
}

void ExpectBitIdentical(const tensor::Matrix& a, const tensor::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

void ExpectBitIdentical(const tensor::CsrMatrix& a,
                        const tensor::CsrMatrix& b) {
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        a.nnz() * sizeof(float)),
            0);
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

void ExpectBitIdentical(const hypergraph::Hypergraph& a,
                        const hypergraph::Hypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (size_t e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.EdgeVertices(e), b.EdgeVertices(e)) << "edge " << e;
    EXPECT_EQ(a.EdgeWeight(e), b.EdgeWeight(e)) << "edge " << e;
  }
}

TEST(ParallelDeterminismTest, MatMulBitIdenticalAcrossThreadCounts) {
  Rng rng(123);
  tensor::Matrix a = tensor::Matrix::Randn(150, 90, &rng);
  tensor::Matrix b = tensor::Matrix::Randn(90, 110, &rng);
  auto run = [&] { return tensor::MatMul(a, b); };
  tensor::Matrix r1 = RunAtThreads(1, run);
  tensor::Matrix r2 = RunAtThreads(2, run);
  tensor::Matrix r8 = RunAtThreads(8, run);
  ExpectBitIdentical(r1, r2);
  ExpectBitIdentical(r1, r8);

  auto run_tn = [&] { return tensor::MatMul(b, a, true, true); };
  ExpectBitIdentical(RunAtThreads(1, run_tn), RunAtThreads(8, run_tn));
}

TEST(ParallelDeterminismTest, SpMMBitIdenticalAcrossThreadCounts) {
  Rng rng(7);
  std::vector<tensor::Triplet> triplets;
  for (int i = 0; i < 4000; ++i) {
    triplets.push_back({static_cast<int>(rng.NextBounded(300)),
                        static_cast<int>(rng.NextBounded(300)),
                        rng.Uniform(-1.0f, 1.0f)});
  }
  tensor::CsrMatrix a =
      tensor::CsrMatrix::FromTriplets(300, 300, std::move(triplets));
  tensor::Matrix x = tensor::Matrix::Randn(300, 48, &rng);
  auto run = [&] { return tensor::SpMM(a, x); };
  tensor::Matrix r1 = RunAtThreads(1, run);
  ExpectBitIdentical(r1, RunAtThreads(2, run));
  ExpectBitIdentical(r1, RunAtThreads(8, run));

  auto run_t = [&] { return tensor::SpMMTransposed(a, x); };
  tensor::Matrix t1 = RunAtThreads(1, run_t);
  ExpectBitIdentical(t1, RunAtThreads(2, run_t));
  ExpectBitIdentical(t1, RunAtThreads(8, run_t));
}

TEST(ParallelDeterminismTest, SpGemmBitIdenticalAcrossThreadCounts) {
  auto random_sparse = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<tensor::Triplet> triplets;
    for (int i = 0; i < 3000; ++i) {
      triplets.push_back({static_cast<int>(rng.NextBounded(250)),
                          static_cast<int>(rng.NextBounded(250)),
                          rng.Uniform(-1.0f, 1.0f)});
    }
    return tensor::CsrMatrix::FromTriplets(250, 250, std::move(triplets));
  };
  tensor::CsrMatrix a = random_sparse(21);
  tensor::CsrMatrix b = random_sparse(22);
  auto run = [&] { return tensor::SpGemm(a, b); };
  tensor::CsrMatrix r1 = RunAtThreads(1, run);
  ExpectBitIdentical(r1, RunAtThreads(2, run));
  ExpectBitIdentical(r1, RunAtThreads(8, run));
}

TEST(ParallelDeterminismTest, PageRankBitIdenticalAcrossThreadCounts) {
  Rng rng(31);
  std::vector<tensor::Triplet> triplets;
  for (int i = 0; i < 5000; ++i) {
    triplets.push_back({static_cast<int>(rng.NextBounded(400)),
                        static_cast<int>(rng.NextBounded(400)), 1.0f});
  }
  tensor::CsrMatrix adjacency =
      tensor::CsrMatrix::FromTriplets(400, 400, std::move(triplets));
  auto run = [&] { return graph::PageRank(adjacency); };
  std::vector<double> r1 = RunAtThreads(1, run);
  ExpectBitIdentical(r1, RunAtThreads(2, run));
  ExpectBitIdentical(r1, RunAtThreads(8, run));
}

// The four hypergroup builds (Section IV-B) fan their per-vertex loops out
// on the shared pool, and the social-influence build ranks neighbours by
// MotifPageRank; none of them may depend on the thread count.
TEST(ParallelDeterminismTest, HypergroupBuildsBitIdenticalAcrossThreadCounts) {
  data::SocialDataset dataset =
      data::SocialNetworkGenerator(data::GeneratorConfig::EpinionsLike(0.05))
          .Generate();
  auto graph_result = dataset.GraphFromEdges(dataset.trust_edges);
  ASSERT_TRUE(graph_result.ok());
  const graph::Digraph graph = std::move(graph_result).value();
  const std::vector<std::vector<int>> attributes = {dataset.communities};
  hypergraph::MultiHopOptions multihop;
  multihop.num_hops = 2;

  struct Built {
    graph::MotifPageRankResult mpr;
    std::vector<hypergraph::Hypergraph> groups;
  };
  auto run = [&] {
    Built built;
    built.mpr = graph::MotifPageRank(graph.Adjacency());
    built.groups.push_back(hypergraph::BuildSocialInfluenceHypergroup(
        graph, hypergraph::SocialInfluenceOptions{}));
    built.groups.push_back(
        hypergraph::BuildAttributeHypergroup(dataset.num_users, attributes));
    built.groups.push_back(hypergraph::BuildPairwiseHypergroup(graph));
    built.groups.push_back(
        hypergraph::BuildMultiHopHypergroup(graph, multihop));
    return built;
  };
  const Built r1 = RunAtThreads(1, run);
  for (int threads : {2, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const Built rt = RunAtThreads(threads, run);
    ExpectBitIdentical(r1.mpr.scores, rt.mpr.scores);
    ExpectBitIdentical(r1.mpr.combined_weights, rt.mpr.combined_weights);
    ExpectBitIdentical(r1.mpr.motif_adjacency, rt.mpr.motif_adjacency);
    ASSERT_EQ(r1.groups.size(), rt.groups.size());
    for (size_t g = 0; g < r1.groups.size(); ++g) {
      SCOPED_TRACE(testing::Message() << "hypergroup " << g);
      ExpectBitIdentical(r1.groups[g], rt.groups[g]);
    }
  }
}

}  // namespace
}  // namespace ahntp
