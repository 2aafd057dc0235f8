// Micro-benchmarks (google-benchmark) for the kernels underlying the
// reproduction, including the DESIGN.md ablation comparisons:
//   * Table II motif algebra (SpGEMM+Hadamard) vs brute-force enumeration,
//   * PageRank vs Motif-based PageRank,
//   * hypergroup builders,
//   * sparse kernels (SpMM / SpGEMM) and the adaptive conv's segment ops.

#include <iterator>

#include <benchmark/benchmark.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/adaptive_conv.h"
#include "data/features.h"
#include "data/generator.h"
#include "graph/pagerank.h"
#include "hypergraph/builders.h"

namespace {

using namespace ahntp;

/// Scoped thread-count override: benchmarks tagged ->Arg(t) compare the
/// execution substrate at 1/2/4/8 workers against the serial baseline.
class ThreadScope {
 public:
  explicit ThreadScope(int threads) { SetNumThreads(threads); }
  ~ThreadScope() { SetNumThreads(0); }
};

/// Fixed medium network shared by the graph-level benchmarks.
const data::SocialDataset& Dataset() {
  static const data::SocialDataset* dataset = [] {
    data::GeneratorConfig config = data::GeneratorConfig::EpinionsLike(0.05);
    return new data::SocialDataset(
        data::SocialNetworkGenerator(config).Generate());
  }();
  return *dataset;
}

const graph::Digraph& Graph() {
  static const graph::Digraph* g =
      new graph::Digraph(Dataset().TrustGraph().value());
  return *g;
}

tensor::CsrMatrix RandomSparse(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<tensor::Triplet> triplets;
  auto count = static_cast<size_t>(static_cast<double>(n) * n * density);
  for (size_t i = 0; i < count; ++i) {
    triplets.push_back({static_cast<int>(rng.NextBounded(n)),
                        static_cast<int>(rng.NextBounded(n)),
                        rng.Uniform(0.1f, 1.0f)});
  }
  return tensor::CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

// ---------------------------------------------------------------------------
// Execution substrate: serial vs pooled kernels across thread counts.
// The Arg is the worker count handed to SetNumThreads; Arg(1) is the fully
// serial path, so the speedup at Arg(t) reads directly off the report.
// ---------------------------------------------------------------------------

void BM_MatMulThreads(benchmark::State& state) {
  ThreadScope scope(static_cast<int>(state.range(1)));
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  tensor::Matrix a = tensor::Matrix::Randn(n, n, &rng);
  tensor::Matrix b = tensor::Matrix::Randn(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * static_cast<int64_t>(n) *
                          static_cast<int64_t>(n) * 2);
}
BENCHMARK(BM_MatMulThreads)
    ->ArgsProduct({{256, 512, 1024}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

/// The dense GEMM shapes that dominate an AHNTP training epoch at ~2k
/// users (trustbench train): the shared-attention score matvec over the
/// 54,233 incidence pairs, its two backward forms, and the forward/backward
/// pair of the layer-2 weight on 50,010 rows of width 32.
struct TrainShape {
  const char* label;
  size_t m, k, n;
  bool transpose_a, transpose_b;
};
const TrainShape kTrainShapes[] = {
    {"score NN X(54233x64)*w(64x1)", 54233, 64, 1, false, false},
    {"score grad NT g(54233x1)*w^T", 54233, 1, 64, false, true},
    {"score grad TN X^T*g(54233x1)", 64, 54233, 1, true, false},
    {"weight grad TN X^T(32x50010)*G", 32, 50010, 32, true, false},
    {"input grad NT G(50010x32)*W^T", 50010, 32, 32, false, true},
};

void BM_MatMulTrainShapes(benchmark::State& state) {
  ThreadScope scope(1);
  const TrainShape& s = kTrainShapes[state.range(0)];
  Rng rng(13);
  tensor::Matrix a = s.transpose_a ? tensor::Matrix::Randn(s.k, s.m, &rng)
                                   : tensor::Matrix::Randn(s.m, s.k, &rng);
  tensor::Matrix b = s.transpose_b ? tensor::Matrix::Randn(s.n, s.k, &rng)
                                   : tensor::Matrix::Randn(s.k, s.n, &rng);
  tensor::Matrix out;
  for (auto _ : state) {
    tensor::MatMulInto(&out, a, b, s.transpose_a, s.transpose_b);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(s.label);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * s.m * s.k * s.n));
}
BENCHMARK(BM_MatMulTrainShapes)
    ->DenseRange(0, std::size(kTrainShapes) - 1)
    ->Unit(benchmark::kMillisecond);

void BM_SpMMThreads(benchmark::State& state) {
  ThreadScope scope(static_cast<int>(state.range(1)));
  size_t n = static_cast<size_t>(state.range(0));
  tensor::CsrMatrix a = RandomSparse(n, 0.01, 1);
  Rng rng(2);
  tensor::Matrix x = tensor::Matrix::Randn(n, 64, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpMM(a, x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.nnz()) * 64);
}
BENCHMARK(BM_SpMMThreads)
    ->ArgsProduct({{2000, 4000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_SpGemmThreads(benchmark::State& state) {
  ThreadScope scope(static_cast<int>(state.range(1)));
  size_t n = static_cast<size_t>(state.range(0));
  tensor::CsrMatrix a = RandomSparse(n, 0.01, 3);
  tensor::CsrMatrix b = RandomSparse(n, 0.01, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpGemm(a, b));
  }
}
BENCHMARK(BM_SpGemmThreads)
    ->ArgsProduct({{2000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_PageRankThreads(benchmark::State& state) {
  ThreadScope scope(static_cast<int>(state.range(0)));
  const graph::Digraph& g = Graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::PageRank(g.Adjacency()));
  }
}
BENCHMARK(BM_PageRankThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// Sparse kernels
// ---------------------------------------------------------------------------

void BM_SpMM(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  tensor::CsrMatrix a = RandomSparse(n, 0.01, 1);
  Rng rng(2);
  tensor::Matrix x = tensor::Matrix::Randn(n, 64, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpMM(a, x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.nnz()) * 64);
}
BENCHMARK(BM_SpMM)->Arg(500)->Arg(1000)->Arg(2000);

void BM_SpGemm(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  tensor::CsrMatrix a = RandomSparse(n, 0.01, 3);
  tensor::CsrMatrix b = RandomSparse(n, 0.01, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::SpGemm(a, b));
  }
}
BENCHMARK(BM_SpGemm)->Arg(500)->Arg(1000);

// ---------------------------------------------------------------------------
// Motif algebra vs enumeration (DESIGN.md ablation 1)
// ---------------------------------------------------------------------------

void BM_MotifAdjacencyAlgebra(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::MotifAdjacency(g.Adjacency(), graph::Motif::kM6));
  }
}
BENCHMARK(BM_MotifAdjacencyAlgebra);

void BM_MotifAdjacencyEnumeration(benchmark::State& state) {
  // O(n^3): run on a small subgraph only.
  data::GeneratorConfig config = data::GeneratorConfig::EpinionsLike(0.01);
  data::SocialDataset small = data::SocialNetworkGenerator(config).Generate();
  graph::Digraph g = small.TrustGraph().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::MotifAdjacencyByEnumeration(g, graph::Motif::kM6));
  }
  state.SetLabel("n=" + std::to_string(g.num_nodes()) +
                 " (algebra handles 5x more nodes per ms)");
}
BENCHMARK(BM_MotifAdjacencyEnumeration);

void BM_AllSevenMotifs(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::AllMotifAdjacencies(g.Adjacency()));
  }
}
BENCHMARK(BM_AllSevenMotifs);

// ---------------------------------------------------------------------------
// PageRank variants
// ---------------------------------------------------------------------------

void BM_PageRank(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::PageRank(g.Adjacency()));
  }
}
BENCHMARK(BM_PageRank);

void BM_MotifPageRank(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  graph::MotifPageRankOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::MotifPageRank(g.Adjacency(), options));
  }
}
BENCHMARK(BM_MotifPageRank);

// ---------------------------------------------------------------------------
// Hypergroup builders (Section IV-B)
// ---------------------------------------------------------------------------

void BM_BuildSocialInfluenceHypergroup(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  std::vector<double> influence = graph::PageRank(g.Adjacency());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hypergraph::BuildSocialInfluenceHypergroup(g, influence, 5));
  }
}
BENCHMARK(BM_BuildSocialInfluenceHypergroup);

void BM_BuildAttributeHypergroup(benchmark::State& state) {
  const data::SocialDataset& ds = Dataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hypergraph::BuildAttributeHypergroup(ds.num_users, ds.attributes));
  }
}
BENCHMARK(BM_BuildAttributeHypergroup);

void BM_BuildPairwiseHypergroup(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hypergraph::BuildPairwiseHypergroup(g));
  }
}
BENCHMARK(BM_BuildPairwiseHypergroup);

void BM_BuildMultiHopHypergroup(benchmark::State& state) {
  const graph::Digraph& g = Graph();
  hypergraph::MultiHopOptions options;
  options.num_hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hypergraph::BuildMultiHopHypergroup(g, options));
  }
}
BENCHMARK(BM_BuildMultiHopHypergroup)->Arg(1)->Arg(2)->Arg(3);

void BM_NormalizedAdjacency(benchmark::State& state) {
  const data::SocialDataset& ds = Dataset();
  hypergraph::Hypergraph hg = hypergraph::Hypergraph::Concat(
      hypergraph::BuildAttributeHypergroup(ds.num_users, ds.attributes),
      hypergraph::BuildPairwiseHypergroup(Graph()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hg.NormalizedAdjacency());
  }
}
BENCHMARK(BM_NormalizedAdjacency);

// ---------------------------------------------------------------------------
// Adaptive convolution: attention (segment ops) vs plain mean aggregation
// (DESIGN.md ablation 2)
// ---------------------------------------------------------------------------

void AdaptiveConvBenchmark(benchmark::State& state, bool use_attention) {
  const data::SocialDataset& ds = Dataset();
  Rng rng(7);
  hypergraph::Hypergraph hg = hypergraph::Hypergraph::Concat(
      hypergraph::BuildAttributeHypergroup(ds.num_users, ds.attributes),
      hypergraph::BuildPairwiseHypergroup(Graph()));
  tensor::Matrix features = data::BuildFeatureMatrix(ds);
  core::AdaptiveHypergraphConv conv(hg, features.cols(), 64, &rng,
                                    use_attention);
  autograd::Variable x = autograd::Constant(features);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}

void BM_AdaptiveConvAttention(benchmark::State& state) {
  AdaptiveConvBenchmark(state, /*use_attention=*/true);
}
BENCHMARK(BM_AdaptiveConvAttention);

void BM_AdaptiveConvPlain(benchmark::State& state) {
  AdaptiveConvBenchmark(state, /*use_attention=*/false);
}
BENCHMARK(BM_AdaptiveConvPlain);

}  // namespace

BENCHMARK_MAIN();
