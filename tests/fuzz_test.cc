// Randomized property tests: random autograd graphs checked against finite
// differences, sparse-algebra identities, hypergraph invariants, and
// failure injection for the IO paths.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <set>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/csv.h"
#include "common/fileio.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/model_zoo.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/split.h"
#include "graph/delta.h"
#include "graph/sharding.h"
#include "hypergraph/hypergraph.h"
#include "models/inference_plan.h"
#include "models/trust_predictor.h"
#include "nn/serialization.h"
#include "serve/backend.h"
#include "serve/server.h"
#include "tensor/csr.h"
#include "test_util.h"

namespace ahntp {
namespace {

using autograd::Variable;
using tensor::CsrMatrix;
using tensor::Matrix;

// ---------------------------------------------------------------------------
// Random autograd graphs vs finite differences
// ---------------------------------------------------------------------------

/// Builds a random computation from `params` using a deterministic op
/// sequence derived from `rng`. Keeps values in well-conditioned ranges so
/// float32 finite differences stay meaningful.
Variable RandomExpression(const std::vector<Variable>& params, Rng* rng,
                          int depth) {
  Variable current = params[0];
  for (int step = 0; step < depth; ++step) {
    switch (rng->NextBounded(8)) {
      case 0:
        current = autograd::Tanh(current);
        break;
      case 1:
        current = autograd::Sigmoid(current);
        break;
      case 2:
        current = autograd::Scale(current, 0.7f);
        break;
      case 3:
        current = autograd::AddScalar(current, 0.3f);
        break;
      case 4:
        current = autograd::Add(
            current, params[rng->NextBounded(params.size())]);
        break;
      case 5:
        current = autograd::Mul(
            current, autograd::Tanh(params[rng->NextBounded(params.size())]));
        break;
      case 6:
        current = autograd::LeakyRelu(autograd::AddScalar(current, 0.15f),
                                      0.1f);
        break;
      case 7:
        current = autograd::RowL2Normalize(
            autograd::AddScalar(current, 0.8f));
        break;
    }
  }
  return autograd::ReduceMean(autograd::Mul(current, current));
}

class AutogradFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AutogradFuzzTest, RandomGraphGradientsMatchFiniteDifferences) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1337);
  std::vector<Variable> params;
  for (int k = 0; k < 3; ++k) {
    params.push_back(
        autograd::Parameter(Matrix::Randn(3, 4, &rng, 0.0f, 0.6f)));
  }
  // The op sequence must be identical on every call: snapshot the stream.
  uint64_t expression_seed = rng.NextU64();
  ahntp::testing::ExpectGradientsClose(
      [expression_seed](const std::vector<Variable>& p) {
        Rng expression_rng(expression_seed);
        return RandomExpression(p, &expression_rng, 6);
      },
      params);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradFuzzTest, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Sparse algebra identities
// ---------------------------------------------------------------------------

CsrMatrix RandomSquareSparse(size_t n, double density, Rng* rng) {
  std::vector<tensor::Triplet> triplets;
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      if (rng->Bernoulli(density)) {
        triplets.push_back({static_cast<int>(r), static_cast<int>(c),
                            rng->Uniform(-1.0f, 1.0f)});
      }
    }
  }
  return CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

class SparseIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseIdentityTest, AlgebraicLaws) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 99);
  CsrMatrix a = RandomSquareSparse(8, 0.3, &rng);
  CsrMatrix b = RandomSquareSparse(8, 0.3, &rng);
  CsrMatrix c = RandomSquareSparse(8, 0.3, &rng);
  // Associativity: (AB)C == A(BC).
  EXPECT_TRUE(tensor::SpGemm(tensor::SpGemm(a, b), c)
                  .AllClose(tensor::SpGemm(a, tensor::SpGemm(b, c)), 1e-3f));
  // Distributivity: A(B+C) == AB + AC.
  EXPECT_TRUE(
      tensor::SpGemm(a, tensor::SparseAdd(b, c))
          .AllClose(tensor::SparseAdd(tensor::SpGemm(a, b),
                                      tensor::SpGemm(a, c)),
                    1e-3f));
  // Transpose of a product: (AB)^T == B^T A^T.
  EXPECT_TRUE(tensor::SpGemm(a, b).Transposed().AllClose(
      tensor::SpGemm(b.Transposed(), a.Transposed()), 1e-3f));
  // Transpose is an involution.
  EXPECT_TRUE(a.Transposed().Transposed().AllClose(a));
  // Hadamard commutes.
  EXPECT_TRUE(tensor::SparseHadamard(a, b).AllClose(
      tensor::SparseHadamard(b, a)));
  // A - A == 0.
  EXPECT_EQ(tensor::SparseSub(a, a).Pruned().nnz(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseIdentityTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Hypergraph invariants on random hypergraphs
// ---------------------------------------------------------------------------

class HypergraphFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(HypergraphFuzzTest, SpectralInvariants) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7);
  hypergraph::Hypergraph hg(12);
  int edges = 3 + static_cast<int>(rng.NextBounded(8));
  for (int e = 0; e < edges; ++e) {
    std::vector<int> members;
    for (int v = 0; v < 12; ++v) {
      if (rng.Bernoulli(0.3)) members.push_back(v);
    }
    if (members.size() >= 2) {
      ASSERT_TRUE(hg.AddEdge(members, rng.Uniform(0.5f, 2.0f)).ok());
    }
  }
  if (hg.num_edges() == 0) return;
  ASSERT_TRUE(hg.Validate().ok());
  // Laplacian PSD: f^T L f >= 0 for random f.
  CsrMatrix lap = hg.Laplacian();
  for (int trial = 0; trial < 5; ++trial) {
    Matrix f = Matrix::Randn(12, 1, &rng);
    Matrix lf = tensor::SpMM(lap, f);
    double quad = 0.0;
    for (size_t i = 0; i < 12; ++i) {
      quad += static_cast<double>(f.At(i, 0)) * lf.At(i, 0);
    }
    EXPECT_GE(quad, -1e-3);
  }
  // Incidence is consistent with degree bookkeeping.
  CsrMatrix h = hg.Incidence();
  EXPECT_EQ(h.nnz(), hg.TotalIncidences());
  std::vector<float> de = hg.EdgeDegrees();
  std::vector<float> col_sums = h.ColSums();
  for (size_t e = 0; e < hg.num_edges(); ++e) {
    EXPECT_FLOAT_EQ(col_sums[e], de[e]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypergraphFuzzTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Failure injection: IO paths
// ---------------------------------------------------------------------------

TEST(IoFailureTest, TruncatedMetaRejected) {
  std::string dir = ::testing::TempDir() + "/ahntp_bad_dataset";
  std::filesystem::create_directories(dir);
  {
    std::ofstream meta(dir + "/meta.csv");
    meta << "key,value\nname,x\nnum_users,not_a_number\n";
  }
  auto loaded = data::LoadDataset(dir);
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove_all(dir);
}

TEST(IoFailureTest, MissingUsersFileRejected) {
  std::string dir = ::testing::TempDir() + "/ahntp_bad_dataset2";
  std::filesystem::create_directories(dir);
  {
    std::ofstream meta(dir + "/meta.csv");
    meta << "key,value\nname,x\nnum_users,3\nnum_items,0\n"
            "num_item_categories,1\n";
  }
  auto loaded = data::LoadDataset(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Checkpoint corruption fuzzing: random bit flips and truncations must
// never be accepted (v2 carries a CRC32) and must leave the destination
// parameters untouched.
// ---------------------------------------------------------------------------

class CheckpointFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointFuzzTest, RandomBitFlipAlwaysRejected) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31);
  std::vector<Variable> saved;
  saved.push_back(autograd::Parameter(Matrix::Randn(4, 3, &rng)));
  saved.push_back(autograd::Parameter(Matrix::Randn(2, 5, &rng)));
  std::string path = ::testing::TempDir() + "/ahntp_fuzz_ckpt_" +
                     std::to_string(GetParam()) + ".ckpt";
  ASSERT_TRUE(nn::SaveParameters(saved, path).ok());
  std::string image;
  ASSERT_TRUE(ReadFileToString(path, &image).ok());

  for (int trial = 0; trial < 16; ++trial) {
    std::string corrupted = image;
    size_t byte = rng.NextBounded(corrupted.size());
    corrupted[byte] =
        static_cast<char>(corrupted[byte] ^ (1u << rng.NextBounded(8)));
    ASSERT_TRUE(WriteFileAtomic(path, corrupted).ok());
    std::vector<Variable> params;
    Rng fill(99);
    params.push_back(autograd::Parameter(Matrix::Randn(4, 3, &fill)));
    params.push_back(autograd::Parameter(Matrix::Randn(2, 5, &fill)));
    Rng fill2(99);
    Matrix before0 = Matrix::Randn(4, 3, &fill2);
    Matrix before1 = Matrix::Randn(2, 5, &fill2);
    Status status = nn::LoadParameters(&params, path);
    EXPECT_FALSE(status.ok())
        << "accepted a checkpoint with bit flipped in byte " << byte;
    EXPECT_TRUE(params[0].value().AllClose(before0, 0.0f));
    EXPECT_TRUE(params[1].value().AllClose(before1, 0.0f));
  }
  std::filesystem::remove(path);
}

TEST_P(CheckpointFuzzTest, RandomTruncationAlwaysRejected) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 53);
  std::vector<Variable> saved;
  saved.push_back(autograd::Parameter(Matrix::Randn(3, 3, &rng)));
  std::string path = ::testing::TempDir() + "/ahntp_fuzz_trunc_" +
                     std::to_string(GetParam()) + ".ckpt";
  ASSERT_TRUE(nn::SaveParameters(saved, path).ok());
  std::string image;
  ASSERT_TRUE(ReadFileToString(path, &image).ok());

  for (int trial = 0; trial < 16; ++trial) {
    size_t keep = rng.NextBounded(image.size());  // always strictly shorter
    ASSERT_TRUE(WriteFileAtomic(path, image.substr(0, keep)).ok());
    std::vector<Variable> params;
    Rng fill(7);
    params.push_back(autograd::Parameter(Matrix::Randn(3, 3, &fill)));
    EXPECT_FALSE(nn::LoadParameters(&params, path).ok())
        << "accepted a checkpoint truncated to " << keep << " bytes";
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzzTest, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Mid-serve reload fuzzing: random bit flips and truncations of the
// checkpoint a live server is asked to reload must leave the server
// answering with its old weights (bitwise) and bump serve.reload_failures.
// ---------------------------------------------------------------------------

class ServeReloadFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ServeReloadFuzzTest, CorruptReloadKeepsOldWeightsServing) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 211);
  data::GeneratorConfig config;
  config.num_users = 40;
  config.num_items = 20;
  config.num_communities = 2;
  config.seed = 17;
  data::SocialDataset dataset =
      data::SocialNetworkGenerator(config).Generate();
  data::TrustSplit split = data::MakeSplit(dataset);
  auto graph_result = dataset.GraphFromEdges(split.train_positive);
  ASSERT_TRUE(graph_result.ok());
  graph::Digraph graph = std::move(graph_result).value();
  tensor::Matrix features = data::BuildFeatureMatrix(dataset);

  models::ModelInputs inputs;
  inputs.features = &features;
  inputs.graph = &graph;
  inputs.dataset = &dataset;
  inputs.hidden_dims = {8, 4};
  serve::ModelBackend::Factory factory = [inputs]() mutable {
    Rng model_rng(5);
    inputs.rng = &model_rng;
    auto created =
        core::CreatePredictor("AHNTP", inputs, core::AhntpConfig{});
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return std::move(created).value();
  };
  serve::ModelBackend backend(factory, factory());

  std::string path = ::testing::TempDir() + "/ahntp_fuzz_serve_" +
                     std::to_string(GetParam()) + ".ckpt";
  ASSERT_TRUE(nn::SaveModule(*factory(), path).ok());
  std::string image;
  ASSERT_TRUE(ReadFileToString(path, &image).ok());

  metrics::Enable();
  metrics::Reset();

  serve::ServeOptions options;
  options.queue_capacity = 32;
  options.max_batch_size = 4;
  options.sleep_on_backoff = false;
  serve::TrustServer server(options, &backend, nullptr);
  server.Start();

  std::vector<data::TrustPair> queries;
  for (size_t i = 0; i < 8; ++i) {
    queries.push_back(split.test_pairs[i % split.test_pairs.size()]);
  }
  auto serve_wave = [&server, &queries]() {
    std::vector<std::future<serve::TrustResponse>> futures;
    for (const data::TrustPair& p : queries) {
      serve::TrustQuery q;
      q.src = p.src;
      q.dst = p.dst;
      futures.push_back(server.Submit(q));
    }
    std::vector<float> scores;
    for (auto& f : futures) {
      serve::TrustResponse r = f.get();
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      scores.push_back(r.score);
    }
    return scores;
  };

  std::vector<float> baseline = serve_wave();
  int64_t failures = 0;
  for (int trial = 0; trial < 8; ++trial) {
    std::string corrupted = image;
    if (trial % 2 == 0) {
      size_t byte = rng.NextBounded(corrupted.size());
      corrupted[byte] =
          static_cast<char>(corrupted[byte] ^ (1u << rng.NextBounded(8)));
    } else {
      corrupted.resize(rng.NextBounded(corrupted.size()));
    }
    ASSERT_TRUE(WriteFileAtomic(path, corrupted).ok());
    EXPECT_FALSE(backend.Reload(path).ok())
        << "accepted a corrupted checkpoint on trial " << trial;
    EXPECT_EQ(backend.generation(), 0);
    ++failures;
    // The live server keeps answering with the old weights, bitwise.
    EXPECT_EQ(serve_wave(), baseline);
  }
  metrics::Snapshot snapshot = metrics::Collect();
  EXPECT_EQ(snapshot.CounterValue("serve.reload_failures", 0), failures);

  // A pristine image still reloads after all that abuse.
  ASSERT_TRUE(WriteFileAtomic(path, image).ok());
  EXPECT_TRUE(backend.Reload(path).ok());
  EXPECT_EQ(backend.generation(), 1);

  server.Shutdown();
  metrics::Disable();
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeReloadFuzzTest, ::testing::Range(1, 3));

// ---------------------------------------------------------------------------
// BoundedQueue shutdown races: concurrent producers and batch consumers
// with Close() arriving mid-stream. Every accepted item must be delivered
// to exactly one consumer (no loss, no double delivery), every producer
// must see FailedPrecondition after the close, and every thread must wake
// up and join — a lost wakeup would hang the test.
// ---------------------------------------------------------------------------

class BoundedQueueCloseFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundedQueueCloseFuzzTest, CloseRacingPushPopDeliversExactlyOnce) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const size_t capacity = 1 + seed % 7;
  const int num_producers = 2 + static_cast<int>(seed % 3);
  const int num_consumers = 2 + static_cast<int>((seed / 3) % 3);
  const size_t batch_max = 1 + seed % 5;
  const int items_per_producer = 200;

  serve::BoundedQueue<int> queue(capacity);
  std::vector<std::vector<int>> accepted(num_producers);
  std::vector<std::vector<int>> delivered(num_consumers);

  std::vector<std::thread> threads;
  for (int p = 0; p < num_producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < items_per_producer; ++i) {
        int value = p * items_per_producer + i;
        for (;;) {
          Status status = queue.TryPush(value);
          if (status.ok()) {
            accepted[p].push_back(p * items_per_producer + i);
            break;
          }
          if (status.code() == StatusCode::kFailedPrecondition) return;
          // Full: back off and retry; consumers keep draining until the
          // close lands, so this always makes progress.
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < num_consumers; ++c) {
    threads.emplace_back([&, c] {
      std::vector<int> batch;
      while (queue.PopBatch(&batch, batch_max) > 0) {
        delivered[c].insert(delivered[c].end(), batch.begin(), batch.end());
        batch.clear();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50 + 37 * seed));
  queue.Close();
  for (std::thread& t : threads) t.join();

  std::vector<int> pushed;
  for (const auto& ids : accepted) {
    pushed.insert(pushed.end(), ids.begin(), ids.end());
  }
  std::vector<int> popped;
  for (const auto& ids : delivered) {
    popped.insert(popped.end(), ids.begin(), ids.end());
  }
  std::sort(pushed.begin(), pushed.end());
  std::sort(popped.begin(), popped.end());
  EXPECT_EQ(pushed, popped)
      << "every accepted item must be delivered exactly once";
  EXPECT_EQ(queue.PopBatch(&popped, 1), 0u) << "closed queue must be drained";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedQueueCloseFuzzTest,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Dataset CSV corruption: random byte mutations in any of the saved CSV
// files must never crash LoadDataset — it either loads or returns an
// error.
// ---------------------------------------------------------------------------

class DatasetFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DatasetFuzzTest, CorruptedCsvFieldsNeverCrashLoader) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 101);
  data::GeneratorConfig config;
  config.num_users = 15;
  config.num_items = 10;
  config.num_communities = 2;
  config.seed = 3;
  data::SocialDataset dataset =
      data::SocialNetworkGenerator(config).Generate();
  std::string dir = ::testing::TempDir() + "/ahntp_fuzz_ds_" +
                    std::to_string(GetParam());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(data::SaveDataset(dataset, dir).ok());

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  ASSERT_FALSE(files.empty());
  for (int trial = 0; trial < 12; ++trial) {
    const std::string& victim = files[rng.NextBounded(files.size())];
    std::string original;
    ASSERT_TRUE(ReadFileToString(victim, &original).ok());
    if (original.empty()) continue;
    std::string corrupted = original;
    // Mutate a few bytes: printable garbage, NULs, or deletions.
    for (int m = 0; m < 3; ++m) {
      size_t pos = rng.NextBounded(corrupted.size());
      switch (rng.NextBounded(3)) {
        case 0:
          corrupted[pos] = static_cast<char>('!' + rng.NextBounded(90));
          break;
        case 1:
          corrupted[pos] = '\0';
          break;
        case 2:
          corrupted.erase(pos, 1);
          break;
      }
      if (corrupted.empty()) break;
    }
    ASSERT_TRUE(WriteFileAtomic(victim, corrupted).ok());
    auto loaded = data::LoadDataset(dir);  // must not crash
    if (loaded.ok()) {
      EXPECT_TRUE(loaded->Validate().ok());
    }
    ASSERT_TRUE(WriteFileAtomic(victim, original).ok());
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatasetFuzzTest, ::testing::Range(1, 5));

TEST(IoFailureTest, WrongRowWidthRejected) {
  CsvTable broken;
  broken.header = {"a", "b"};
  broken.rows = {{"1", "2", "3"}};  // too wide for users.csv parsing
  std::string dir = ::testing::TempDir() + "/ahntp_bad_dataset3";
  std::filesystem::create_directories(dir);
  {
    std::ofstream meta(dir + "/meta.csv");
    meta << "key,value\nname,x\nnum_users,1\nnum_items,0\n"
            "num_item_categories,1\nattribute:hobby,2\n";
  }
  ASSERT_TRUE(WriteCsv(dir + "/users.csv", broken).ok());
  auto loaded = data::LoadDataset(dir);
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Partitioner fuzz: degenerate (num_users, num_shards) requests must come
// back as InvalidArgument, never crash — and every accepted partition must
// cover each user exactly once.
// ---------------------------------------------------------------------------

class ShardingFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardingFuzzTest, DegenerateRequestsRejectedValidOnesCover) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919u + 17u);
  for (int trial = 0; trial < 200; ++trial) {
    // Bias toward the degenerate boundary: tiny populations, shard counts
    // straddling N, zero and negative values.
    size_t num_users = rng.NextBounded(8);  // 0..7, often < K
    if (rng.NextBounded(4) == 0) num_users += 1000;
    int num_shards = static_cast<int>(rng.NextBounded(12)) - 2;  // -2..9
    auto sharding = graph::UserSharding::Create(num_users, num_shards);
    bool degenerate = num_shards <= 0 || num_users == 0 ||
                      static_cast<size_t>(num_shards) > num_users;
    if (degenerate) {
      ASSERT_FALSE(sharding.ok())
          << "N=" << num_users << " K=" << num_shards;
      EXPECT_EQ(sharding.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(sharding.ok()) << "N=" << num_users << " K=" << num_shards;
    std::vector<int> seen(num_users, 0);
    for (int k = 0; k < num_shards; ++k) {
      const std::vector<int>& owned = sharding.value().UsersOf(k);
      EXPECT_FALSE(owned.empty()) << "accepted partitions have no empty shard";
      for (int u : owned) {
        ASSERT_GE(u, 0);
        ASSERT_LT(static_cast<size_t>(u), num_users);
        EXPECT_EQ(sharding.value().ShardOf(u), k);
        ++seen[static_cast<size_t>(u)];
      }
    }
    for (size_t u = 0; u < num_users; ++u) {
      EXPECT_EQ(seen[u], 1) << "user " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardingFuzzTest, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Int8 quantization fuzzing (DESIGN.md §15): calibration-stats ingestion
// must reject garbage without crashing, and random bit flips anywhere in a
// quantized spill block (header, scales, payload, CRC) must surface as
// Corruption — after which restoring the file lets the plan refault cleanly.
// ---------------------------------------------------------------------------

/// Small generated dataset + AHNTP predictor; the returned struct keeps the
/// backing dataset/graph/features alive alongside the model.
struct QuantFuzzFixture {
  explicit QuantFuzzFixture(uint64_t seed) {
    data::GeneratorConfig config;
    config.num_users = 40;
    config.num_items = 20;
    config.num_communities = 2;
    config.seed = 23;
    dataset = data::SocialNetworkGenerator(config).Generate();
    split = data::MakeSplit(dataset);
    auto graph_result = dataset.GraphFromEdges(split.train_positive);
    AHNTP_CHECK_OK(graph_result.status());
    graph = std::move(graph_result).value();
    features = data::BuildFeatureMatrix(dataset);
    models::ModelInputs inputs;
    inputs.features = &features;
    inputs.graph = &graph;
    inputs.dataset = &dataset;
    inputs.hidden_dims = {8, 4};
    Rng model_rng(seed);
    inputs.rng = &model_rng;
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

  data::SocialDataset dataset;
  data::TrustSplit split;
  graph::Digraph graph{0};
  tensor::Matrix features;
  std::unique_ptr<models::TrustPredictor> predictor;
};

class CalibrationFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CalibrationFuzzTest, GarbageStatsRejectedAndPlanKeepsServing) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 601);
  QuantFuzzFixture fx(31);
  models::InferencePlan plan(fx.predictor.get());
  plan.SetPrecision(models::PlanPrecision::kInt8);
  std::vector<data::TrustPair> pairs = fx.Pairs(8);
  std::vector<float> baseline = plan.Score(pairs).value();
  const size_t rows = plan.calibration().rows();
  ASSERT_EQ(rows, fx.dataset.num_users);

  for (int trial = 0; trial < 60; ++trial) {
    tensor::RowCalibration calib;
    // Sizes around the true row count, plus empty and way-off.
    const size_t n = rng.NextBounded(2 * rows + 2);
    calib.absmax.resize(n);
    bool values_valid = true;
    for (float& v : calib.absmax) {
      switch (rng.NextBounded(8)) {
        case 0:
          v = std::numeric_limits<float>::quiet_NaN();
          values_valid = false;
          break;
        case 1:
          v = std::numeric_limits<float>::infinity();
          values_valid = false;
          break;
        case 2:
          v = -std::numeric_limits<float>::infinity();
          values_valid = false;
          break;
        case 3:
          v = -1.0f - static_cast<float>(rng.NextBounded(100));
          values_valid = false;
          break;
        case 4:
          v = 1e30f;  // huge but finite: legal
          break;
        case 5:
          v = 0.0f;  // all-zero row: legal
          break;
        default:
          v = static_cast<float>(rng.NextBounded(1000)) / 250.0f;
          break;
      }
    }
    const bool valid = (n == rows) && values_valid;
    Status status = plan.SetCalibration(std::move(calib));
    EXPECT_EQ(status.ok(), valid) << "trial " << trial << " n=" << n;
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    }
    // Whatever the outcome, the plan must keep producing finite scores.
    std::vector<float> probs = plan.Score(pairs).value();
    ASSERT_EQ(probs.size(), pairs.size());
    for (float p : probs) EXPECT_TRUE(std::isfinite(p));
  }
  EXPECT_EQ(baseline.size(), pairs.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalibrationFuzzTest, ::testing::Range(1, 4));

class QuantBlockFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantBlockFuzzTest, RandomBitFlipsRejectedThenRefaultCleanly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977);
  QuantFuzzFixture fx(37);
  fx.predictor->SetInferencePrecision(models::PlanPrecision::kInt8);
  const std::string spill_dir = "fuzz_quant_spill_" +
                                std::to_string(::getpid()) + "_" +
                                std::to_string(GetParam());
  models::ShardedPlanOptions opts;
  opts.num_shards = 2;
  opts.max_resident_shards = 1;
  opts.spill_dir = spill_dir;
  fx.predictor->EnableShardedInference(opts);
  fx.predictor->WarmInferencePlan();
  std::vector<data::TrustPair> pairs = fx.Pairs(10);
  std::vector<float> baseline = fx.predictor->PredictProbabilities(pairs);

  // Snapshot every spilled block so each trial can restore it.
  std::vector<std::filesystem::path> files;
  std::vector<std::string> images;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(spill_dir)) {
    if (!entry.is_regular_file()) continue;
    files.push_back(entry.path());
    std::string image;
    ASSERT_TRUE(ReadFileToString(entry.path().string(), &image).ok());
    images.push_back(std::move(image));
  }
  ASSERT_EQ(files.size(), 2u);

  auto* plan =
      const_cast<models::InferencePlan*>(fx.predictor->inference_plan());
  ASSERT_NE(plan->mutable_store(), nullptr);

  for (int trial = 0; trial < 24; ++trial) {
    // Flip one random bit in every block file — header, scales, payload, and
    // CRC bytes are all fair game; the expected geometry comes from the
    // sharding, so every flip must be caught.
    for (size_t f = 0; f < files.size(); ++f) {
      std::string corrupt = images[f];
      const size_t byte = rng.NextBounded(corrupt.size());
      corrupt[byte] = static_cast<char>(
          corrupt[byte] ^ (1u << rng.NextBounded(8)));
      std::ofstream out(files[f], std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    // With a residency cap of one, at least one of the two requests must
    // fault from disk and hit the corruption.
    auto r0 = plan->mutable_store()->Fetch(0);
    auto r1 = plan->mutable_store()->Fetch(1);
    ASSERT_TRUE(!r0.ok() || !r1.ok()) << "trial " << trial;
    StatusCode code =
        !r0.ok() ? r0.status().code() : r1.status().code();
    EXPECT_EQ(code, StatusCode::kCorruption) << "trial " << trial;

    // Restore the pristine blocks: the store must refault cleanly and score
    // bitwise-identically to the pre-corruption baseline.
    for (size_t f = 0; f < files.size(); ++f) {
      std::ofstream out(files[f], std::ios::binary | std::ios::trunc);
      out.write(images[f].data(),
                static_cast<std::streamsize>(images[f].size()));
    }
    auto restored = plan->Score(pairs);
    ASSERT_TRUE(restored.ok()) << "trial " << trial;
    ASSERT_EQ(restored.value().size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(restored.value()[i], baseline[i])
          << "trial " << trial << " pair " << i;
    }
  }
  fx.predictor->DisableShardedInference();
  std::filesystem::remove_all(spill_dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantBlockFuzzTest, ::testing::Range(1, 4));

// ---------------------------------------------------------------------------
// GraphDelta fuzzing: random deltas — heavy on duplicate adds, removes of
// absent edges, self-loops, and the occasional fully empty delta — applied
// to a MutableTrustGraph with a tiny compaction threshold must track a
// reference edge set exactly, with receipt bookkeeping that balances and a
// generation that bumps on every apply.
// ---------------------------------------------------------------------------

class GraphDeltaFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphDeltaFuzzTest, RandomDeltasTrackReferenceEdgeSet) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 4099);
  const int n = 12;
  graph::MutableGraphOptions options;
  options.compaction_threshold = 5;  // force frequent compactions
  auto store = graph::MutableTrustGraph::Create(n, {}, options);
  ASSERT_TRUE(store.ok());
  std::set<std::pair<int, int>> model;
  int64_t expected_generation = 0;

  for (int step = 0; step < 120; ++step) {
    graph::GraphDelta delta;
    if (rng.NextBounded(8) != 0) {  // one in eight deltas stays empty
      // The tiny vertex range makes duplicate adds, removes of absent
      // edges, and self-loops the common case, not the corner case.
      const size_t removes = rng.NextBounded(4);
      for (size_t i = 0; i < removes; ++i) {
        delta.remove_edges.push_back({static_cast<int>(rng.NextBounded(n)),
                                      static_cast<int>(rng.NextBounded(n))});
      }
      const size_t adds = rng.NextBounded(5);
      for (size_t i = 0; i < adds; ++i) {
        delta.add_edges.push_back({static_cast<int>(rng.NextBounded(n)),
                                   static_cast<int>(rng.NextBounded(n))});
      }
      if (!delta.add_edges.empty() && rng.NextBounded(3) == 0) {
        // Repeat a requested add verbatim: an in-delta duplicate.
        delta.add_edges.push_back(delta.add_edges.front());
      }
    }

    // Replay the delta against the reference set (removes before adds,
    // self-loops and duplicates ignored) while predicting the receipt.
    size_t want_removed = 0, want_removes_ignored = 0;
    for (const graph::Edge& e : delta.remove_edges) {
      if (model.erase({e.src, e.dst}) > 0) {
        ++want_removed;
      } else {
        ++want_removes_ignored;
      }
    }
    size_t want_added = 0, want_adds_ignored = 0;
    for (const graph::Edge& e : delta.add_edges) {
      if (e.src != e.dst && model.insert({e.src, e.dst}).second) {
        ++want_added;
      } else {
        ++want_adds_ignored;
      }
    }

    auto receipt = store.value().Apply(delta);
    ASSERT_TRUE(receipt.ok()) << "step " << step;
    ++expected_generation;  // every apply bumps, even an all-ignored one
    EXPECT_EQ(receipt->generation, expected_generation) << "step " << step;
    EXPECT_EQ(store.value().generation(), expected_generation);
    EXPECT_EQ(receipt->edges_added, want_added) << "step " << step;
    EXPECT_EQ(receipt->edges_removed, want_removed) << "step " << step;
    EXPECT_EQ(receipt->adds_ignored, want_adds_ignored) << "step " << step;
    EXPECT_EQ(receipt->removes_ignored, want_removes_ignored)
        << "step " << step;
    EXPECT_EQ(receipt->applied_adds.size(), receipt->edges_added);
    EXPECT_EQ(receipt->applied_removes.size(), receipt->edges_removed);

    // The store's canonical edge set must equal the reference set exactly,
    // and the overlays must stay bounded by the compaction threshold.
    std::vector<std::pair<int, int>> canonical;
    for (const graph::Edge& e : store.value().CanonicalEdges()) {
      canonical.emplace_back(e.src, e.dst);
    }
    std::vector<std::pair<int, int>> want(model.begin(), model.end());
    ASSERT_EQ(canonical, want) << "step " << step;
    EXPECT_EQ(store.value().num_edges(), model.size());
    EXPECT_LE(store.value().overlay_size(), options.compaction_threshold);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphDeltaFuzzTest, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Adversarial AttackSpec fuzzing
// ---------------------------------------------------------------------------

class AttackSpecFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AttackSpecFuzzTest, RandomSpecsValidateOrGenerateCleanly) {
  // Random — frequently degenerate — specs must either be rejected by
  // Validate with InvalidArgument or produce a dataset that passes its own
  // Validate; the generator must never crash, and the two surfaces must
  // agree on which specs are acceptable.
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151);
  data::GeneratorConfig config;
  config.name = "attack_fuzz";
  config.num_users = 80;
  config.num_items = 60;
  config.num_communities = 3;
  config.avg_trust_out_degree = 5.0;
  config.avg_purchases_per_user = 4.0;
  config.seed = 17;
  data::SocialNetworkGenerator gen(config);
  const data::SocialDataset clean = gen.Generate();

  for (int trial = 0; trial < 40; ++trial) {
    data::AttackSpec spec;
    // Half the draws land in the valid range, half stress the boundaries
    // (zero counts, oversize rosters, fractions at/outside [0, 1], NaN).
    spec.sybil_rings = rng.NextBounded(5);
    spec.sybil_ring_size = rng.NextBounded(8);
    spec.sybil_targets_per_member = rng.NextBounded(100);
    spec.spam_hubs = rng.NextBounded(5);
    spec.spam_edges_per_hub = rng.NextBounded(120);
    auto fraction = [&rng]() -> double {
      switch (rng.NextBounded(6)) {
        case 0: return -1.0;                 // disabled
        case 1: return 0.0;                  // degenerate: no-op attack
        case 2: return 1.0;                  // degenerate: no clean regime
        case 3: return std::numeric_limits<double>::quiet_NaN();
        default: return 0.1 + 0.8 * rng.NextDouble();
      }
    };
    spec.camouflage_fraction = fraction();
    spec.shift_fraction = fraction();

    const Status valid = spec.Validate(config);
    auto result = gen.GenerateWithAttacks(spec);
    if (!valid.ok()) {
      EXPECT_EQ(valid.code(), StatusCode::kInvalidArgument)
          << "trial " << trial;
      ASSERT_FALSE(result.ok()) << "trial " << trial;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << "trial " << trial;
      continue;
    }
    ASSERT_TRUE(result.ok()) << "trial " << trial << ": "
                             << result.status().ToString();
    EXPECT_TRUE(result.value().Validate().ok()) << "trial " << trial;
    // The overlay only ever appends or re-targets: the clean edge count is
    // a floor, and user/item populations never change.
    EXPECT_GE(result.value().trust_edges.size(), clean.trust_edges.size());
    EXPECT_EQ(result.value().num_users, clean.num_users);
    EXPECT_EQ(result.value().num_items, clean.num_items);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttackSpecFuzzTest, ::testing::Range(1, 5));

}  // namespace
}  // namespace ahntp
