// Tests for the online inference substrate (src/serve): bounded queue
// backpressure, cooperative deadlines, deterministic retry/backoff,
// circuit breaker trip/probe/recover with degraded fallback, checkpoint
// hot-reload, and the thread-count invariance of the whole pipeline
// (extending the tests/parallel_test.cc determinism pattern).

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/fileio.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "core/model_zoo.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/split.h"
#include "nn/serialization.h"
#include "serve/backend.h"
#include "serve/bounded_queue.h"
#include "serve/circuit_breaker.h"
#include "serve/retry.h"
#include "serve/server.h"

namespace ahntp {
namespace {

using serve::BoundedQueue;
using serve::CircuitBreaker;
using serve::CircuitBreakerOptions;
using serve::RetryPolicy;
using serve::ServeOptions;
using serve::TrustQuery;
using serve::TrustResponse;
using serve::TrustServer;

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(std::isinf(d.RemainingMillis()));
}

TEST(DeadlineTest, ZeroBudgetIsExpiredImmediately) {
  Deadline d = Deadline::AfterMillis(0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingMillis(), 0.0);
}

TEST(DeadlineTest, GenerousBudgetIsNotExpired) {
  Deadline d = Deadline::AfterMillis(60000);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 0.0);
  EXPECT_LE(d.RemainingMillis(), 60000.0);
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, RejectsWhenFullWithResourceExhausted) {
  BoundedQueue<int> queue(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(queue.TryPush(a).ok());
  EXPECT_TRUE(queue.TryPush(b).ok());
  Status status = queue.TryPush(c);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueueTest, PopBatchPreservesFifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(queue.TryPush(v).ok());
  }
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.PopBatch(&out, 3), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BoundedQueueTest, CloseRejectsPushesAndDrains) {
  BoundedQueue<int> queue(4);
  int v = 7;
  ASSERT_TRUE(queue.TryPush(v).ok());
  queue.Close();
  int w = 8;
  EXPECT_EQ(queue.TryPush(w).code(), StatusCode::kFailedPrecondition);
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 4), 1u);  // drains the remaining item
  EXPECT_EQ(queue.PopBatch(&out, 4), 0u);  // closed and empty
}

// ---------------------------------------------------------------------------
// RetryPolicy: deterministic exponential backoff with seeded jitter
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, SameSeedSameKeyGivesIdenticalSchedule) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.seed = 42;
  std::vector<double> a = policy.Schedule(9);
  std::vector<double> b = policy.Schedule(9);
  ASSERT_EQ(a.size(), 4u);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(RetryPolicyTest, NoJitterIsPureCappedExponential) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_delay_ms = 1.0;
  policy.max_delay_ms = 6.0;
  policy.jitter = 0.0;
  std::vector<double> schedule = policy.Schedule(0);
  ASSERT_EQ(schedule.size(), 5u);
  EXPECT_DOUBLE_EQ(schedule[0], 1.0);
  EXPECT_DOUBLE_EQ(schedule[1], 2.0);
  EXPECT_DOUBLE_EQ(schedule[2], 4.0);
  EXPECT_DOUBLE_EQ(schedule[3], 6.0);  // capped
  EXPECT_DOUBLE_EQ(schedule[4], 6.0);
}

TEST(RetryPolicyTest, JitterStaysWithinTheConfiguredFraction) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay_ms = 8.0;
  policy.max_delay_ms = 8.0;
  policy.jitter = 0.5;
  for (uint64_t key = 0; key < 64; ++key) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      double d = policy.DelayMillis(key, attempt);
      EXPECT_GT(d, 4.0 - 1e-9);
      EXPECT_LE(d, 8.0);
    }
  }
}

TEST(RetryPolicyTest, DifferentSeedsChangeTheSchedule) {
  RetryPolicy a, b;
  a.seed = 1;
  b.seed = 2;
  bool any_different = false;
  for (uint64_t key = 0; key < 8 && !any_different; ++key) {
    any_different = a.DelayMillis(key, 0) != b.DelayMillis(key, 0);
  }
  EXPECT_TRUE(any_different);
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailures) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(options);
  breaker.OnFailure();
  breaker.OnFailure();
  EXPECT_FALSE(breaker.open());
  breaker.OnFailure();
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveCount) {
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  CircuitBreaker breaker(options);
  breaker.OnFailure();
  breaker.OnSuccess();
  breaker.OnFailure();
  EXPECT_FALSE(breaker.open());  // never two in a row
}

TEST(CircuitBreakerTest, ProbesEveryNthAdmissionWhileOpen) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.probe_interval = 3;
  CircuitBreaker breaker(options);
  breaker.OnFailure();
  ASSERT_TRUE(breaker.open());
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kFallback);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kFallback);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProbe);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kFallback);
  EXPECT_EQ(breaker.probes(), 1);
}

TEST(CircuitBreakerTest, ProbeSuccessClosesAndCountsRecovery) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.probe_interval = 1;
  CircuitBreaker breaker(options);
  breaker.OnFailure();
  ASSERT_TRUE(breaker.open());
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProbe);
  breaker.OnFailure();  // failed probe keeps it open without a new trip
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProbe);
  breaker.OnSuccess();
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.recoveries(), 1);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Decision::kPrimary);
}

// ---------------------------------------------------------------------------
// FaultPoint + the new Status codes
// ---------------------------------------------------------------------------

TEST(ServeStatusTest, NewCodesRoundTripThroughToString) {
  EXPECT_EQ(Status::DeadlineExceeded("x").ToString(), "DeadlineExceeded: x");
  EXPECT_EQ(Status::ResourceExhausted("y").ToString(),
            "ResourceExhausted: y");
  EXPECT_EQ(Status::Unavailable("z").ToString(), "Unavailable: z");
}

TEST(FaultPointTest, ReturnsTheRequestedCodeWhenFiring) {
  ASSERT_TRUE(fault::EnableFromSpec("serve_test.point@1").ok());
  Status first =
      fault::FaultPoint("serve_test.point", StatusCode::kUnavailable);
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  Status second =
      fault::FaultPoint("serve_test.point", StatusCode::kUnavailable);
  EXPECT_TRUE(second.ok());
  fault::Disable();
}

TEST(FaultPointTest, SilentWhenDisabled) {
  fault::Disable();
  EXPECT_TRUE(fault::FaultPoint("serve_test.other").ok());
}

// ---------------------------------------------------------------------------
// TrustServer against scripted fake backends
// ---------------------------------------------------------------------------

/// A scripted ScoreBackend: `fn` decides each batch's fate.
class FakeBackend : public serve::ScoreBackend {
 public:
  using Fn = std::function<Result<std::vector<float>>(
      const std::vector<data::TrustPair>&, int call)>;

  explicit FakeBackend(Fn fn) : fn_(std::move(fn)) {}

  Result<std::vector<float>> ScoreBatch(
      const std::vector<data::TrustPair>& pairs) override {
    return fn_(pairs, calls_++);
  }

  std::string name() const override { return "fake"; }

  int64_t generation() const override { return generation_; }
  void set_generation(int64_t generation) { generation_ = generation; }

  int calls() const { return calls_; }

 private:
  Fn fn_;
  int calls_ = 0;
  std::atomic<int64_t> generation_{0};
};

FakeBackend::Fn ConstantScores(float value) {
  return [value](const std::vector<data::TrustPair>& pairs, int) {
    return Result<std::vector<float>>(
        std::vector<float>(pairs.size(), value));
  };
}

ServeOptions FastOptions() {
  ServeOptions options;
  options.queue_capacity = 64;
  options.max_batch_size = 4;
  options.retry.max_attempts = 3;
  options.sleep_on_backoff = false;  // schedules are asserted, not slept
  return options;
}

std::vector<TrustResponse> RunClosedLoop(TrustServer* server, int requests) {
  std::vector<std::future<TrustResponse>> futures;
  for (int i = 0; i < requests; ++i) {
    TrustQuery q;
    q.src = i;
    q.dst = i + 1;
    futures.push_back(server->Submit(q));
  }
  server->Start();
  std::vector<TrustResponse> out;
  for (auto& f : futures) out.push_back(f.get());
  server->Shutdown();
  return out;
}

TEST(TrustServerTest, ServesEveryRequestWithTheBackendScore) {
  FakeBackend backend(ConstantScores(0.75f));
  TrustServer server(FastOptions(), &backend, nullptr);
  std::vector<TrustResponse> responses = RunClosedLoop(&server, 10);
  ASSERT_EQ(responses.size(), 10u);
  for (const TrustResponse& r : responses) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FLOAT_EQ(r.score, 0.75f);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.attempts, 1);
  }
  serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 10);
  EXPECT_EQ(stats.ok, 10);
  EXPECT_EQ(stats.rejected + stats.expired + stats.degraded + stats.failed,
            0);
}

TEST(TrustServerTest, OverflowIsRejectedWithResourceExhausted) {
  FakeBackend backend(ConstantScores(0.5f));
  ServeOptions options = FastOptions();
  options.queue_capacity = 4;
  TrustServer server(options, &backend, nullptr);
  std::vector<TrustResponse> responses = RunClosedLoop(&server, 10);
  int rejected = 0;
  for (const TrustResponse& r : responses) {
    if (!r.status.ok()) {
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 6);
  EXPECT_EQ(server.Stats().rejected, 6);
  EXPECT_EQ(server.Stats().ok, 4);
}

TEST(TrustServerTest, ExpiredDeadlinesCompleteAsDeadlineExceeded) {
  FakeBackend backend(ConstantScores(0.5f));
  TrustServer server(FastOptions(), &backend, nullptr);
  std::vector<std::future<TrustResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    TrustQuery q;
    q.src = i;
    q.dst = i + 1;
    if (i % 2 == 0) q.deadline = Deadline::AfterMillis(0);
    futures.push_back(server.Submit(q));
  }
  server.Start();
  int expired = 0;
  for (auto& f : futures) {
    TrustResponse r = f.get();
    if (r.status.code() == StatusCode::kDeadlineExceeded) ++expired;
  }
  server.Shutdown();
  EXPECT_EQ(expired, 3);
  EXPECT_EQ(server.Stats().expired, 3);
  EXPECT_EQ(server.Stats().ok, 3);
}

TEST(TrustServerTest, TransientFailureIsRetriedToSuccess) {
  // First call fails with a transient code; the retry succeeds.
  FakeBackend backend(
      [](const std::vector<data::TrustPair>& pairs,
         int call) -> Result<std::vector<float>> {
        if (call == 0) return Status::Unavailable("flaky");
        return std::vector<float>(pairs.size(), 0.25f);
      });
  ServeOptions options = FastOptions();
  options.max_batch_size = 8;
  TrustServer server(options, &backend, nullptr);
  std::vector<TrustResponse> responses = RunClosedLoop(&server, 4);
  for (const TrustResponse& r : responses) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.attempts, 2);
  }
  EXPECT_EQ(server.Stats().retries, 1);
  EXPECT_EQ(backend.calls(), 2);
}

TEST(TrustServerTest, NonTransientFailureIsNotRetried) {
  FakeBackend backend(
      [](const std::vector<data::TrustPair>&,
         int) -> Result<std::vector<float>> {
        return Status::InvalidArgument("bad shape");
      });
  ServeOptions options = FastOptions();
  options.max_batch_size = 8;
  TrustServer server(options, &backend, nullptr);
  std::vector<TrustResponse> responses = RunClosedLoop(&server, 2);
  for (const TrustResponse& r : responses) {
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(backend.calls(), 1);  // no retry for deterministic failures
  EXPECT_EQ(server.Stats().retries, 0);
}

TEST(TrustServerTest, ExhaustedRetriesDegradeToTheFallback) {
  FakeBackend primary(
      [](const std::vector<data::TrustPair>&,
         int) -> Result<std::vector<float>> {
        return Status::Unavailable("down");
      });
  FakeBackend fallback(ConstantScores(0.125f));
  ServeOptions options = FastOptions();
  options.max_batch_size = 8;
  TrustServer server(options, &primary, &fallback);
  std::vector<TrustResponse> responses = RunClosedLoop(&server, 4);
  for (const TrustResponse& r : responses) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_TRUE(r.degraded);
    EXPECT_FLOAT_EQ(r.score, 0.125f);
  }
  EXPECT_EQ(server.Stats().degraded, 4);
  EXPECT_EQ(primary.calls(), 3);  // all attempts burned
}

TEST(TrustServerTest, NonFiniteScoresCountAndFailWithoutRetry) {
  FakeBackend primary(
      [](const std::vector<data::TrustPair>& pairs,
         int) -> Result<std::vector<float>> {
        std::vector<float> scores(pairs.size(), 0.5f);
        scores[0] = std::nanf("");
        return scores;
      });
  ServeOptions options = FastOptions();
  options.max_batch_size = 8;
  TrustServer server(options, &primary, nullptr);
  std::vector<TrustResponse> responses = RunClosedLoop(&server, 2);
  for (const TrustResponse& r : responses) {
    EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  }
  EXPECT_EQ(primary.calls(), 1);
  EXPECT_EQ(server.Stats().nonfinite, 1);
}

TEST(TrustServerTest, BreakerTripsDegradesAndRecoversViaProbe) {
  // The primary fails for its first 6 calls, then heals. With
  // max_attempts=1 and threshold=2 the breaker trips on the second batch;
  // probes keep testing the primary and the first healthy probe closes it.
  FakeBackend primary(
      [](const std::vector<data::TrustPair>& pairs,
         int call) -> Result<std::vector<float>> {
        if (call < 6) return Status::Unavailable("outage");
        return std::vector<float>(pairs.size(), 0.875f);
      });
  FakeBackend fallback(ConstantScores(0.0625f));
  ServeOptions options = FastOptions();
  options.max_batch_size = 1;  // one request per batch: scripted precisely
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.probe_interval = 2;
  TrustServer server(options, &primary, &fallback);
  std::vector<TrustResponse> responses = RunClosedLoop(&server, 16);

  serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.breaker_trips, 1);
  EXPECT_GE(stats.breaker_probes, 1);
  EXPECT_EQ(stats.breaker_recoveries, 1);
  EXPECT_GT(stats.degraded, 0);
  EXPECT_GT(stats.ok, 0);
  // Once recovered, the tail of the stream is served by the primary.
  EXPECT_TRUE(responses.back().status.ok());
  EXPECT_FALSE(responses.back().degraded);
  EXPECT_FLOAT_EQ(responses.back().score, 0.875f);
  // Degraded responses are flagged and carry the fallback's score.
  for (const TrustResponse& r : responses) {
    if (r.degraded) EXPECT_FLOAT_EQ(r.score, 0.0625f);
  }
}

TEST(TrustServerTest, ShutdownWithoutStartDrainsEveryFuture) {
  FakeBackend backend(ConstantScores(0.5f));
  TrustServer server(FastOptions(), &backend, nullptr);
  std::vector<std::future<TrustResponse>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(server.Submit(TrustQuery{}));
  server.Shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status.code(), StatusCode::kFailedPrecondition);
  }
}

TEST(TrustServerTest, SubmitAfterShutdownIsRejected) {
  FakeBackend backend(ConstantScores(0.5f));
  TrustServer server(FastOptions(), &backend, nullptr);
  server.Start();
  server.Shutdown();
  TrustResponse r = server.Submit(TrustQuery{}).get();
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// ModelBackend hot reload
// ---------------------------------------------------------------------------

/// A tiny AHNTP serving fixture shared by the reload and determinism
/// tests: generated dataset, split, training graph, features, and a
/// seeded predictor factory.
struct ServingFixture {
  data::SocialDataset dataset;
  data::TrustSplit split;
  graph::Digraph graph;
  tensor::Matrix features;

  static ServingFixture Make() {
    data::GeneratorConfig config;
    config.num_users = 60;
    config.num_items = 30;
    config.num_communities = 3;
    config.seed = 11;
    ServingFixture f;
    f.dataset = data::SocialNetworkGenerator(config).Generate();
    f.split = data::MakeSplit(f.dataset);
    auto graph = f.dataset.GraphFromEdges(f.split.train_positive);
    EXPECT_TRUE(graph.ok());
    f.graph = std::move(graph).value();
    f.features = data::BuildFeatureMatrix(f.dataset);
    return f;
  }

  serve::ModelBackend::Factory MakeFactory(uint64_t seed) const {
    models::ModelInputs inputs;
    inputs.features = &features;
    inputs.graph = &graph;
    inputs.dataset = &dataset;
    inputs.hidden_dims = {8, 4};
    return [inputs, seed]() mutable {
      Rng rng(seed);
      inputs.rng = &rng;
      auto created =
          core::CreatePredictor("AHNTP", inputs, core::AhntpConfig{});
      EXPECT_TRUE(created.ok()) << created.status().ToString();
      return std::move(created).value();
    };
  }

  std::vector<data::TrustPair> Queries(size_t n) const {
    std::vector<data::TrustPair> pairs;
    for (size_t i = 0; i < n; ++i) {
      pairs.push_back(split.test_pairs[i % split.test_pairs.size()]);
    }
    return pairs;
  }
};

TEST(ModelBackendTest, ReloadSwapsWeightsAndAdvancesGeneration) {
  ServingFixture fixture = ServingFixture::Make();
  auto factory = fixture.MakeFactory(5);
  serve::ModelBackend backend(factory, factory());

  // Checkpoint a *different* seed's weights; reloading must change scores.
  auto other = fixture.MakeFactory(99)();
  std::string path = ::testing::TempDir() + "/serve_reload.ckpt";
  ASSERT_TRUE(nn::SaveModule(*other, path).ok());

  std::vector<data::TrustPair> queries = fixture.Queries(6);
  auto before = backend.ScoreBatch(queries);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(backend.generation(), 0);

  ASSERT_TRUE(backend.Reload(path).ok());
  EXPECT_EQ(backend.generation(), 1);
  auto after = backend.ScoreBatch(queries);
  ASSERT_TRUE(after.ok());
  auto expected = other->PredictProbabilities(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ((*after)[i], expected[i]) << "score " << i;
  }
  std::filesystem::remove(path);
}

TEST(ModelBackendTest, FailedReloadKeepsTheOldModelServing) {
  ServingFixture fixture = ServingFixture::Make();
  auto factory = fixture.MakeFactory(5);
  serve::ModelBackend backend(factory, factory());
  std::vector<data::TrustPair> queries = fixture.Queries(6);
  auto before = backend.ScoreBatch(queries);
  ASSERT_TRUE(before.ok());

  Status status = backend.Reload(::testing::TempDir() + "/does_not_exist");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(backend.generation(), 0);
  auto after = backend.ScoreBatch(queries);
  ASSERT_TRUE(after.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ((*before)[i], (*after)[i]);
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: same --fault_seed => bit-identical retry
// schedule, serve counters, and scores at 1, 2, and 8 threads.
// ---------------------------------------------------------------------------

class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) { SetNumThreads(threads); }
  ~ThreadGuard() { SetNumThreads(0); }
};

struct DeterministicRun {
  serve::ServerStats stats;
  std::vector<float> scores;
  std::vector<bool> degraded;
};

DeterministicRun RunFaultyServe(const ServingFixture& fixture, int threads) {
  ThreadGuard guard(threads);
  // Fresh spec install resets per-site hit counters, so every run replays
  // the identical fault sequence.
  fault::SetSeed(1234);
  EXPECT_TRUE(fault::EnableFromSpec("serve.infer@~0.5").ok());

  auto factory = fixture.MakeFactory(5);
  serve::ModelBackend primary(factory, factory());
  serve::HeuristicBackend fallback(&fixture.graph,
                                   models::Heuristic::kJaccard);
  ServeOptions options;
  options.queue_capacity = 64;
  options.max_batch_size = 4;
  options.retry.max_attempts = 2;
  options.retry.seed = 1234;
  options.sleep_on_backoff = false;
  options.breaker.failure_threshold = 2;
  options.breaker.probe_interval = 2;
  TrustServer server(options, &primary, &fallback);

  std::vector<std::future<TrustResponse>> futures;
  for (const data::TrustPair& p : fixture.Queries(48)) {
    TrustQuery q;
    q.src = p.src;
    q.dst = p.dst;
    futures.push_back(server.Submit(q));
  }
  server.Start();
  DeterministicRun run;
  for (auto& f : futures) {
    TrustResponse r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    run.scores.push_back(r.score);
    run.degraded.push_back(r.degraded);
  }
  server.Shutdown();
  run.stats = server.Stats();
  fault::Disable();
  return run;
}

TEST(ServeDeterminismTest, CountersAndScoresBitIdenticalAcrossThreadCounts) {
  ServingFixture fixture = ServingFixture::Make();
  DeterministicRun r1 = RunFaultyServe(fixture, 1);
  DeterministicRun r2 = RunFaultyServe(fixture, 2);
  DeterministicRun r8 = RunFaultyServe(fixture, 8);

  for (const DeterministicRun* other : {&r2, &r8}) {
    EXPECT_EQ(r1.stats.ok, other->stats.ok);
    EXPECT_EQ(r1.stats.degraded, other->stats.degraded);
    EXPECT_EQ(r1.stats.failed, other->stats.failed);
    EXPECT_EQ(r1.stats.retries, other->stats.retries);
    EXPECT_EQ(r1.stats.batches, other->stats.batches);
    EXPECT_EQ(r1.stats.breaker_trips, other->stats.breaker_trips);
    EXPECT_EQ(r1.stats.breaker_probes, other->stats.breaker_probes);
    EXPECT_EQ(r1.stats.breaker_recoveries, other->stats.breaker_recoveries);
    ASSERT_EQ(r1.scores.size(), other->scores.size());
    EXPECT_EQ(std::memcmp(r1.scores.data(), other->scores.data(),
                          r1.scores.size() * sizeof(float)),
              0)
        << "scores must be bit-identical across thread counts";
    EXPECT_EQ(r1.degraded, other->degraded);
  }
  // The injected fault stream actually exercised the retry path.
  EXPECT_GT(r1.stats.retries, 0);
}

// ---------------------------------------------------------------------------
// AdmissionController: lane limits, reservation, downgrade pressure
// ---------------------------------------------------------------------------

using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::Lane;

TEST(AdmissionControllerTest, DefaultsResolveFromCapacityAndReserve) {
  AdmissionOptions options;
  options.queue_capacity = 16;
  options.strict_reserve = 4;
  AdmissionController admission(options);
  EXPECT_EQ(admission.LimitFor(Lane::kStrict), 16u);
  EXPECT_EQ(admission.LimitFor(Lane::kDegradedEligible), 12u);
  EXPECT_EQ(admission.LimitFor(Lane::kBesteffort), 6u);  // (12 + 1) / 2
  EXPECT_EQ(admission.resolved().degrade_pressure, 6u);
}

TEST(AdmissionControllerTest, ReserveClampsToCapacity) {
  AdmissionOptions options;
  options.queue_capacity = 8;
  options.strict_reserve = 100;
  AdmissionController admission(options);
  EXPECT_EQ(admission.LimitFor(Lane::kStrict), 8u);
  EXPECT_EQ(admission.LimitFor(Lane::kDegradedEligible), 0u);
  EXPECT_EQ(admission.LimitFor(Lane::kBesteffort), 0u);
}

TEST(AdmissionControllerTest, DowngradeOnlyForDegradedLaneUnderPressure) {
  AdmissionOptions options;
  options.queue_capacity = 8;
  options.degrade_pressure = 4;
  AdmissionController admission(options);
  EXPECT_FALSE(admission.ShouldDowngrade(Lane::kDegradedEligible, 3));
  EXPECT_TRUE(admission.ShouldDowngrade(Lane::kDegradedEligible, 4));
  EXPECT_FALSE(admission.ShouldDowngrade(Lane::kStrict, 7));
  EXPECT_FALSE(admission.ShouldDowngrade(Lane::kBesteffort, 7));
}

TEST(AdmissionControllerTest, LaneNamesAreStable) {
  // Metric names, bench rows and the SERVE_LANES digest embed these.
  EXPECT_STREQ(serve::LaneName(Lane::kStrict), "strict");
  EXPECT_STREQ(serve::LaneName(Lane::kDegradedEligible), "degraded");
  EXPECT_STREQ(serve::LaneName(Lane::kBesteffort), "besteffort");
}

// ---------------------------------------------------------------------------
// ScoreCache: LRU semantics and generation keying
// ---------------------------------------------------------------------------

using serve::ScoreCache;
using serve::ScoreKey;

TEST(ScoreCacheTest, HitReturnsCachedScoreMissReturnsNothing) {
  ScoreCache cache(4);
  cache.Put({1, 2, 0}, 0.5f, 0.9f);
  auto hit = cache.Get({1, 2, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_FLOAT_EQ(hit->score, 0.5f);
  EXPECT_FLOAT_EQ(hit->confidence, 0.9f);
  EXPECT_FALSE(cache.Get({2, 1, 0}).has_value());
}

TEST(ScoreCacheTest, GenerationIsPartOfTheKey) {
  ScoreCache cache(4);
  cache.Put({1, 2, 0}, 0.5f);
  EXPECT_FALSE(cache.Get({1, 2, 1}).has_value())
      << "a generation bump must make the old score unreachable";
}

TEST(ScoreCacheTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  ScoreCache cache(2);
  cache.Put({1, 0, 0}, 0.1f);
  cache.Put({2, 0, 0}, 0.2f);
  ASSERT_TRUE(cache.Get({1, 0, 0}).has_value());  // 1 is now most recent
  cache.Put({3, 0, 0}, 0.3f);                     // evicts 2
  EXPECT_TRUE(cache.Get({1, 0, 0}).has_value());
  EXPECT_FALSE(cache.Get({2, 0, 0}).has_value());
  EXPECT_TRUE(cache.Get({3, 0, 0}).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ScoreCacheTest, FlushDropsEverythingAndReportsCount) {
  ScoreCache cache(8);
  cache.Put({1, 0, 0}, 0.1f);
  cache.Put({2, 0, 0}, 0.2f);
  EXPECT_EQ(cache.Flush(), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get({1, 0, 0}).has_value());
}

// ---------------------------------------------------------------------------
// CircuitBreaker gauge state
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, StateTracksProbeLifecycle) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.probe_interval = 2;
  CircuitBreaker breaker(options);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.OnFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  ASSERT_EQ(breaker.Admit(), CircuitBreaker::Decision::kFallback);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  ASSERT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProbe);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.OnFailure();  // failed probe: open again, no longer half-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  ASSERT_EQ(breaker.Admit(), CircuitBreaker::Decision::kFallback);
  ASSERT_EQ(breaker.Admit(), CircuitBreaker::Decision::kProbe);
  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(TrustServerTest, BreakerStateGaugeExported) {
  metrics::Reset();
  metrics::Enable();
  FakeBackend primary(
      [](const std::vector<data::TrustPair>&,
         int) -> Result<std::vector<float>> {
        return Status::Unavailable("down");
      });
  FakeBackend fallback(ConstantScores(0.25f));
  ServeOptions options = FastOptions();
  options.max_batch_size = 1;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.probe_interval = 8;
  TrustServer server(options, &primary, &fallback);
  RunClosedLoop(&server, 4);
  metrics::Snapshot snapshot = metrics::Collect();
  double state = -1.0;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "serve.breaker_state") state = gauge.value;
  }
  EXPECT_EQ(state, 1.0) << "breaker tripped open must publish state=1";
  EXPECT_GE(snapshot.CounterValue("serve.breaker_trips", 0), 1);
  metrics::Disable();
}

// ---------------------------------------------------------------------------
// Priority admission lanes
// ---------------------------------------------------------------------------

TEST(TrustServerLaneTest, BesteffortShedsFirstStrictHoldsTheReservation) {
  FakeBackend backend(ConstantScores(0.5f));
  ServeOptions options = FastOptions();
  options.queue_capacity = 8;
  options.admission.strict_reserve = 2;
  // Resolved: besteffort_limit = 3, degraded limit = 6, strict limit = 8.
  TrustServer server(options, &backend, nullptr);

  std::vector<std::future<TrustResponse>> futures;
  auto submit = [&](int i, Lane lane) {
    TrustQuery q;
    q.src = i;
    q.dst = i + 1;
    q.lane = lane;
    futures.push_back(server.Submit(q));
  };
  int i = 0;
  for (int k = 0; k < 4; ++k) submit(i++, Lane::kBesteffort);
  for (int k = 0; k < 6; ++k) submit(i++, Lane::kDegradedEligible);
  for (int k = 0; k < 4; ++k) submit(i++, Lane::kStrict);
  server.Start();
  for (auto& f : futures) f.get();
  server.Shutdown();

  serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.lane_admitted[static_cast<int>(Lane::kBesteffort)], 3);
  EXPECT_EQ(stats.lane_rejected[static_cast<int>(Lane::kBesteffort)], 1);
  EXPECT_EQ(stats.lane_admitted[static_cast<int>(Lane::kDegradedEligible)], 3);
  EXPECT_EQ(stats.lane_rejected[static_cast<int>(Lane::kDegradedEligible)], 3);
  // Only strict traffic may use the last `strict_reserve` slots.
  EXPECT_EQ(stats.lane_admitted[static_cast<int>(Lane::kStrict)], 2);
  EXPECT_EQ(stats.lane_rejected[static_cast<int>(Lane::kStrict)], 2);
  EXPECT_EQ(stats.rejected, 6);
}

TEST(TrustServerLaneTest, DegradedEligibleDowngradesUnderPressure) {
  FakeBackend primary(ConstantScores(0.75f));
  FakeBackend fallback(ConstantScores(0.25f));
  ServeOptions options = FastOptions();
  options.queue_capacity = 8;
  options.max_batch_size = 8;
  // Resolved: degrade_pressure = besteffort_limit = 4.
  TrustServer server(options, &primary, &fallback);

  std::vector<std::future<TrustResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    TrustQuery q;
    q.src = i;
    q.dst = i + 1;
    q.lane = Lane::kDegradedEligible;
    futures.push_back(server.Submit(q));
  }
  server.Start();
  std::vector<TrustResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());
  server.Shutdown();

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(responses[i].status.ok());
    if (i < 4) {
      EXPECT_FALSE(responses[i].degraded) << "request " << i;
      EXPECT_FLOAT_EQ(responses[i].score, 0.75f);
    } else {
      EXPECT_TRUE(responses[i].degraded)
          << "request " << i << " arrived above the pressure threshold";
      EXPECT_FLOAT_EQ(responses[i].score, 0.25f);
    }
  }
  EXPECT_EQ(server.Stats().downgraded, 4);
  EXPECT_EQ(server.Stats().degraded, 4);
  EXPECT_EQ(server.Stats().ok, 4);
}

TEST(TrustServerLaneTest, DowngradeIsIgnoredWithoutAFallback) {
  FakeBackend primary(ConstantScores(0.75f));
  ServeOptions options = FastOptions();
  options.queue_capacity = 8;
  options.max_batch_size = 8;
  TrustServer server(options, &primary, nullptr);
  std::vector<std::future<TrustResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    TrustQuery q;
    q.src = i;
    q.dst = i + 1;
    q.lane = Lane::kDegradedEligible;
    futures.push_back(server.Submit(q));
  }
  server.Start();
  for (auto& f : futures) {
    TrustResponse r = f.get();
    EXPECT_TRUE(r.status.ok());
    EXPECT_FALSE(r.degraded);
    EXPECT_FLOAT_EQ(r.score, 0.75f);
  }
  server.Shutdown();
  EXPECT_EQ(server.Stats().downgraded, 0);
}

// ---------------------------------------------------------------------------
// Request coalescing
// ---------------------------------------------------------------------------

TEST(CoalescingTest, DuplicatesAttachToOneLeaderAndOneBackendCall) {
  FakeBackend backend(ConstantScores(0.625f));
  ServeOptions options = FastOptions();
  options.coalesce = true;
  options.max_batch_size = 8;
  TrustServer server(options, &backend, nullptr);

  std::vector<std::future<TrustResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    TrustQuery q;
    q.src = 3;
    q.dst = 4;
    futures.push_back(server.Submit(q));
  }
  EXPECT_EQ(server.queue_depth(), 1u) << "duplicates must not occupy slots";
  server.Start();
  int coalesced = 0;
  for (auto& f : futures) {
    TrustResponse r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FLOAT_EQ(r.score, 0.625f);
    if (r.coalesced) ++coalesced;
  }
  server.Shutdown();
  EXPECT_EQ(coalesced, 7);
  EXPECT_EQ(backend.calls(), 1) << "one inference serves all duplicates";
  EXPECT_EQ(server.Stats().coalesced, 7);
  EXPECT_EQ(server.Stats().ok, 8);
}

TEST(CoalescingTest, DistinctPairsDoNotCoalesce) {
  FakeBackend backend(ConstantScores(0.5f));
  ServeOptions options = FastOptions();
  options.coalesce = true;
  TrustServer server(options, &backend, nullptr);
  std::vector<TrustResponse> responses = RunClosedLoop(&server, 6);
  for (const TrustResponse& r : responses) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_FALSE(r.coalesced);
  }
  EXPECT_EQ(server.Stats().coalesced, 0);
}

TEST(CoalescingTest, FollowerDeadlineExpiryDoesNotCancelTheLeader) {
  FakeBackend backend(ConstantScores(0.5f));
  ServeOptions options = FastOptions();
  options.coalesce = true;
  TrustServer server(options, &backend, nullptr);

  TrustQuery leader;
  leader.src = 1;
  leader.dst = 2;
  std::future<TrustResponse> leader_future = server.Submit(leader);

  TrustQuery follower = leader;
  follower.deadline = Deadline::AfterMillis(0);  // expired while coalesced
  std::future<TrustResponse> follower_future = server.Submit(follower);

  server.Start();
  TrustResponse leader_response = leader_future.get();
  TrustResponse follower_response = follower_future.get();
  server.Shutdown();

  EXPECT_TRUE(leader_response.status.ok())
      << "an expired follower must not cancel its leader";
  EXPECT_FLOAT_EQ(leader_response.score, 0.5f);
  EXPECT_EQ(follower_response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(follower_response.coalesced);
  EXPECT_EQ(backend.calls(), 1);
  serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.coalesced_expired, 1);
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.ok, 1);
}

// ---------------------------------------------------------------------------
// Generation-keyed score cache behind the server
// ---------------------------------------------------------------------------

TEST(ServerScoreCacheTest, RepeatWaveIsServedFromASharedCache) {
  FakeBackend backend(ConstantScores(0.375f));
  ScoreCache cache(64);
  ServeOptions options = FastOptions();
  options.shared_score_cache = &cache;

  {
    TrustServer first(options, &backend, nullptr);
    std::vector<TrustResponse> wave = RunClosedLoop(&first, 6);
    for (const TrustResponse& r : wave) EXPECT_FALSE(r.cached);
    EXPECT_EQ(first.Stats().cache_hits, 0);
    EXPECT_EQ(first.Stats().cache_misses, 6);
  }
  const int calls_after_first = backend.calls();

  TrustServer second(options, &backend, nullptr);
  std::vector<TrustResponse> wave = RunClosedLoop(&second, 6);
  for (const TrustResponse& r : wave) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_TRUE(r.cached);
    EXPECT_FLOAT_EQ(r.score, 0.375f);
  }
  EXPECT_EQ(backend.calls(), calls_after_first)
      << "a repeat wave must not touch the backend";
  EXPECT_EQ(second.Stats().cache_hits, 6);
  EXPECT_EQ(second.Stats().ok, 6);
}

TEST(ServerScoreCacheTest, GenerationBumpFlushesAndRescores) {
  FakeBackend backend(ConstantScores(0.875f));
  ServeOptions options = FastOptions();
  options.score_cache_entries = 16;
  TrustServer server(options, &backend, nullptr);
  server.Start();

  TrustQuery q;
  q.src = 7;
  q.dst = 8;
  TrustResponse first = server.Submit(q).get();
  EXPECT_FALSE(first.cached);
  TrustResponse second = server.Submit(q).get();
  EXPECT_TRUE(second.cached) << "repeat lookup within a generation hits";

  backend.set_generation(1);  // as after a hot reload or retrain
  TrustResponse third = server.Submit(q).get();
  EXPECT_FALSE(third.cached)
      << "a generation bump must invalidate the cached score";
  server.Shutdown();

  serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache_flushes, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(backend.calls(), 2);
}

TEST(ServerScoreCacheTest, DegradedScoresAreNeverCached) {
  FakeBackend primary(
      [](const std::vector<data::TrustPair>&,
         int) -> Result<std::vector<float>> {
        return Status::Unavailable("down");
      });
  FakeBackend fallback(ConstantScores(0.125f));
  ServeOptions options = FastOptions();
  options.max_batch_size = 8;
  options.score_cache_entries = 16;
  TrustServer server(options, &primary, &fallback);
  std::vector<TrustResponse> responses = RunClosedLoop(&server, 4);
  for (const TrustResponse& r : responses) {
    EXPECT_TRUE(r.degraded);
    EXPECT_FALSE(r.cached);
  }
  EXPECT_EQ(server.Stats().cache_hits, 0)
      << "fallback answers must never be served as cached model scores";
}

// ---------------------------------------------------------------------------
// Overload-control determinism: lanes + coalescing + cache under faults,
// bit-identical at 1, 2, and 8 threads.
// ---------------------------------------------------------------------------

struct OverloadRun {
  serve::ServerStats stats;
  std::vector<int> codes;
  std::vector<float> scores;
  std::vector<bool> degraded, cached, coalesced;
};

OverloadRun RunOverloadServe(const ServingFixture& fixture, int threads) {
  ThreadGuard guard(threads);
  fault::SetSeed(4321);
  EXPECT_TRUE(fault::EnableFromSpec("serve.infer@~0.5").ok());

  auto factory = fixture.MakeFactory(5);
  serve::ModelBackend primary(factory, factory());
  serve::HeuristicBackend fallback(&fixture.graph,
                                   models::Heuristic::kJaccard);
  ServeOptions options;
  options.queue_capacity = 64;
  options.max_batch_size = 4;
  options.retry.max_attempts = 2;
  options.retry.seed = 4321;
  options.sleep_on_backoff = false;
  options.breaker.failure_threshold = 2;
  options.breaker.probe_interval = 2;
  options.admission.strict_reserve = 8;
  options.coalesce = true;
  options.score_cache_entries = 128;
  TrustServer server(options, &primary, &fallback);

  std::vector<data::TrustPair> queries = fixture.Queries(96);
  std::vector<std::future<TrustResponse>> futures;
  for (size_t i = 0; i < queries.size(); ++i) {
    // A hot key every 5th request plus a three-way lane rotation: the mix
    // exercises shedding, downgrade, and coalescing in one stream.
    const data::TrustPair& p = i % 5 == 0 ? queries[0] : queries[i];
    TrustQuery q;
    q.src = p.src;
    q.dst = p.dst;
    q.lane = static_cast<Lane>(i % serve::kNumLanes);
    futures.push_back(server.Submit(q));
  }
  server.Start();
  OverloadRun run;
  for (auto& f : futures) {
    TrustResponse r = f.get();
    run.codes.push_back(static_cast<int>(r.status.code()));
    run.scores.push_back(r.status.ok() ? r.score : -1.0f);
    run.degraded.push_back(r.degraded);
    run.cached.push_back(r.cached);
    run.coalesced.push_back(r.coalesced);
  }
  server.Shutdown();
  run.stats = server.Stats();
  fault::Disable();
  return run;
}

TEST(ServeDeterminismTest, OverloadControlBitIdenticalAcrossThreadCounts) {
  ServingFixture fixture = ServingFixture::Make();
  OverloadRun r1 = RunOverloadServe(fixture, 1);
  OverloadRun r2 = RunOverloadServe(fixture, 2);
  OverloadRun r8 = RunOverloadServe(fixture, 8);

  for (const OverloadRun* other : {&r2, &r8}) {
    EXPECT_EQ(r1.stats.ok, other->stats.ok);
    EXPECT_EQ(r1.stats.degraded, other->stats.degraded);
    EXPECT_EQ(r1.stats.failed, other->stats.failed);
    EXPECT_EQ(r1.stats.rejected, other->stats.rejected);
    EXPECT_EQ(r1.stats.retries, other->stats.retries);
    EXPECT_EQ(r1.stats.batches, other->stats.batches);
    EXPECT_EQ(r1.stats.downgraded, other->stats.downgraded);
    EXPECT_EQ(r1.stats.coalesced, other->stats.coalesced);
    EXPECT_EQ(r1.stats.cache_hits, other->stats.cache_hits);
    EXPECT_EQ(r1.stats.cache_misses, other->stats.cache_misses);
    for (int lane = 0; lane < serve::kNumLanes; ++lane) {
      EXPECT_EQ(r1.stats.lane_admitted[lane], other->stats.lane_admitted[lane]);
      EXPECT_EQ(r1.stats.lane_rejected[lane], other->stats.lane_rejected[lane]);
    }
    EXPECT_EQ(r1.codes, other->codes);
    ASSERT_EQ(r1.scores.size(), other->scores.size());
    EXPECT_EQ(std::memcmp(r1.scores.data(), other->scores.data(),
                          r1.scores.size() * sizeof(float)),
              0)
        << "scores must be bit-identical across thread counts";
    EXPECT_EQ(r1.degraded, other->degraded);
    EXPECT_EQ(r1.cached, other->cached);
    EXPECT_EQ(r1.coalesced, other->coalesced);
  }
  // The stream actually exercised the overload-control machinery.
  EXPECT_GT(r1.stats.coalesced, 0);
  EXPECT_GT(r1.stats.cache_hits + r1.stats.cache_misses, 0);
}

}  // namespace
}  // namespace ahntp
