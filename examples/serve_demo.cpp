// serve_demo: drives the online inference substrate (src/serve) end to end
// and verifies its robustness invariants — overload backpressure, deadline
// expiry, deterministic retry/backoff under injected faults, circuit
// breaker trip/probe/recover with degraded-mode fallback, corrupt
// checkpoint hot-reload, the overload-control layer (priority
// admission lanes, request coalescing, generation-keyed score cache), and
// the dynamic write lane (graph deltas applied on the server's writer
// thread beside reads, with generation-keyed cache invalidation) —
// exiting non-zero if any invariant breaks.
//
//   ./build/examples/serve_demo --fault_spec='serve.infer@~0.75'
//       --fault_seed=42 --threads=8
//
// Run closed-loop (each wave's requests enqueued before its server
// starts), so batch composition — and with it every serve counter and
// score — is bit-identical at any --threads=N for a fixed --fault_seed.
// The workload is fixed by the named constants below. The shared runtime
// flags (--threads, --kernel_isa, --fault_spec, --fault_seed,
// --metrics_out, --trace_out) apply as everywhere else (common/flags.h);
// --serve_checkpoint sets where the demo writes its checkpoint.
// tests/serve_golden_test.cc runs this binary and checks its SERVE_ digest
// lines against tests/golden/serve_digests_<isa>.golden.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/fileio.h"
#include "common/flags.h"
#include "core/dynamic_pipeline.h"
#include "core/model_zoo.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/split.h"
#include "graph/delta.h"
#include "models/uncertainty.h"
#include "nn/serialization.h"
#include "serve/admission.h"
#include "serve/backend.h"
#include "serve/dynamic.h"
#include "serve/score_cache.h"
#include "serve/server.h"

namespace {

using namespace ahntp;

// The demo's workload. The goldens of tests/serve_golden_test.cc are
// recorded at these values.
constexpr double kScale = 0.03;
constexpr uint64_t kModelSeed = 1;
constexpr int kRequests = 96;
constexpr size_t kQueueCapacity = 48;
constexpr int kExpiredEvery = 8;
constexpr size_t kStrictReserve = kQueueCapacity / 4;
constexpr size_t kScoreCacheEntries = 256;
constexpr size_t kBatchSize = 8;
constexpr int kRetryAttempts = 3;
constexpr double kBackoffMs = 0.25;
constexpr double kBackoffMaxMs = 4.0;
constexpr int kBreakerThreshold = 2;
constexpr int kProbeInterval = 3;
constexpr size_t kMutations = 4;
constexpr int kReadsPerSegment = 8;

int g_violations = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", what);
    ++g_violations;
  }
}

/// Accumulates per-phase server stats into one run total.
serve::ServerStats Add(const serve::ServerStats& a,
                       const serve::ServerStats& b) {
  serve::ServerStats s;
  s.submitted = a.submitted + b.submitted;
  s.rejected = a.rejected + b.rejected;
  s.expired = a.expired + b.expired;
  s.ok = a.ok + b.ok;
  s.degraded = a.degraded + b.degraded;
  s.failed = a.failed + b.failed;
  s.retries = a.retries + b.retries;
  s.nonfinite = a.nonfinite + b.nonfinite;
  s.batches = a.batches + b.batches;
  s.breaker_trips = a.breaker_trips + b.breaker_trips;
  s.breaker_probes = a.breaker_probes + b.breaker_probes;
  s.breaker_recoveries = a.breaker_recoveries + b.breaker_recoveries;
  for (int lane = 0; lane < serve::kNumLanes; ++lane) {
    s.lane_admitted[lane] = a.lane_admitted[lane] + b.lane_admitted[lane];
    s.lane_rejected[lane] = a.lane_rejected[lane] + b.lane_rejected[lane];
  }
  s.downgraded = a.downgraded + b.downgraded;
  s.coalesced = a.coalesced + b.coalesced;
  s.coalesced_expired = a.coalesced_expired + b.coalesced_expired;
  s.cache_hits = a.cache_hits + b.cache_hits;
  s.cache_misses = a.cache_misses + b.cache_misses;
  s.cache_flushes = a.cache_flushes + b.cache_flushes;
  s.abstained = a.abstained + b.abstained;
  s.mutations_submitted = a.mutations_submitted + b.mutations_submitted;
  s.mutations_rejected = a.mutations_rejected + b.mutations_rejected;
  s.mutations_applied = a.mutations_applied + b.mutations_applied;
  s.mutations_failed = a.mutations_failed + b.mutations_failed;
  return s;
}

/// FNV-1a over the deterministic response fields (status code, the
/// abstained/degraded/cached/coalesced flags, score and confidence bits);
/// wall-clock latency is deliberately excluded so the digest matches at
/// any --threads=N.
uint64_t FoldResponse(uint64_t h, const serve::TrustResponse& r) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  auto byte = [&](uint8_t b) { h = (h ^ b) * kPrime; };
  byte(static_cast<uint8_t>(r.status.code()));
  byte(static_cast<uint8_t>((r.abstained << 3) | (r.degraded << 2) |
                            (r.cached << 1) | r.coalesced));
  uint32_t bits = 0;
  if (r.status.ok()) std::memcpy(&bits, &r.score, sizeof(bits));
  for (int shift = 0; shift < 32; shift += 8) {
    byte(static_cast<uint8_t>(bits >> shift));
  }
  uint32_t conf_bits = 0;
  std::memcpy(&conf_bits, &r.confidence, sizeof(conf_bits));
  for (int shift = 0; shift < 32; shift += 8) {
    byte(static_cast<uint8_t>(conf_bits >> shift));
  }
  return h;
}

/// FNV-1a over the deterministic fields of a mutation response: status
/// code, generation, and the receipt's bookkeeping counts. Latency is
/// excluded for the same reason as in FoldResponse.
uint64_t FoldMutation(uint64_t h, const serve::MutationResponse& r) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  auto fold64 = [&](uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h = (h ^ static_cast<uint8_t>(v >> shift)) * kPrime;
    }
  };
  h = (h ^ static_cast<uint8_t>(r.status.code())) * kPrime;
  fold64(static_cast<uint64_t>(r.generation));
  fold64(r.receipt.edges_added);
  fold64(r.receipt.edges_removed);
  fold64(r.receipt.adds_ignored);
  fold64(r.receipt.removes_ignored);
  fold64(r.receipt.rating_rows);
  fold64(r.receipt.touched_vertices.size());
  return h;
}

/// Every response must be terminal and self-consistent regardless of which
/// path (ok / degraded / expired / rejected / failed) produced it.
void CheckResponses(std::vector<std::future<serve::TrustResponse>>* futures,
                    std::vector<serve::TrustResponse>* out) {
  for (auto& future : *futures) {
    serve::TrustResponse response = future.get();
    if (response.status.ok()) {
      Expect(std::isfinite(response.score),
             "an OK response must carry a finite score");
    } else {
      Expect(response.status.code() == StatusCode::kResourceExhausted ||
                 response.status.code() == StatusCode::kDeadlineExceeded ||
                 response.status.code() == StatusCode::kUnavailable ||
                 response.status.code() == StatusCode::kIoError ||
                 response.status.code() == StatusCode::kInternal ||
                 response.status.code() == StatusCode::kFailedPrecondition,
             "failed responses must carry a recognized Status code");
      Expect(!response.degraded, "a failed response cannot be degraded=true");
    }
    out->push_back(std::move(response));
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  AHNTP_CHECK_OK(flags.Parse(argc, argv));
  const int threads = ApplyRuntimeFlags(flags);

  const std::string checkpoint =
      flags.GetString("serve_checkpoint", "/tmp/ahntp_serve_demo.ckpt");

  serve::ServeOptions options;
  options.queue_capacity = kQueueCapacity;
  options.max_batch_size = kBatchSize;
  options.retry.max_attempts = kRetryAttempts;
  options.retry.base_delay_ms = kBackoffMs;
  options.retry.max_delay_ms = kBackoffMaxMs;
  options.retry.seed = static_cast<uint64_t>(flags.GetInt("fault_seed", 0));
  options.breaker.failure_threshold = kBreakerThreshold;
  options.breaker.probe_interval = kProbeInterval;

  // --- Model, fallback, and checkpoints -----------------------------------
  data::GeneratorConfig gen_config = data::GeneratorConfig::CiaoLike(kScale);
  data::SocialDataset dataset =
      data::SocialNetworkGenerator(gen_config).Generate();
  data::TrustSplit split = data::MakeSplit(dataset);
  auto train_graph = dataset.GraphFromEdges(split.train_positive);
  AHNTP_CHECK(train_graph.ok()) << train_graph.status().ToString();
  tensor::Matrix features = data::BuildFeatureMatrix(dataset);

  models::ModelInputs inputs;
  inputs.features = &features;
  inputs.graph = &train_graph.value();
  inputs.dataset = &dataset;
  inputs.hidden_dims = {16, 8};

  // Architecture-identical instances from a fixed seed: the initial model
  // and every hot-reload staging clone.
  auto make_model = [inputs]() mutable {
    Rng rng(kModelSeed);
    inputs.rng = &rng;
    auto created =
        core::CreatePredictor("AHNTP", inputs, core::AhntpConfig{});
    AHNTP_CHECK(created.ok()) << created.status().ToString();
    return std::move(created).value();
  };
  auto initial = make_model();
  AHNTP_CHECK_OK(nn::SaveModule(*initial, checkpoint));

  // A corrupt sibling: one bit flipped mid-payload, which the v2 loader's
  // CRC32 must reject during hot-reload.
  std::string image;
  AHNTP_CHECK_OK(ReadFileToString(checkpoint, &image));
  std::string corrupted = image;
  corrupted[corrupted.size() / 2] ^= 0x10;
  const std::string corrupt_checkpoint = checkpoint + ".corrupt";
  AHNTP_CHECK_OK(WriteFileAtomic(corrupt_checkpoint, corrupted));

  serve::ModelBackend primary(make_model, std::move(initial));
  serve::HeuristicBackend fallback(&train_graph.value(),
                                   models::Heuristic::kJaccard);

  std::printf("serve_demo: %d requests, queue capacity %zu, batch %zu, "
              "threads %d\n",
              kRequests, kQueueCapacity, kBatchSize, threads);

  // Deterministic query stream: cycle over the held-out test pairs.
  auto query_at = [&](int i) {
    const data::TrustPair& p =
        split.test_pairs[static_cast<size_t>(i) % split.test_pairs.size()];
    serve::TrustQuery q;
    q.src = p.src;
    q.dst = p.dst;
    return q;
  };

  // --- Phase 1: overload backpressure + deadline expiry -------------------
  // All requests are submitted before Start(), so exactly kQueueCapacity
  // are accepted and the rest rejected, and every kExpiredEvery-th accepted
  // request carries an already-expired deadline.
  serve::ServerStats phase1;
  int expected_expired = 0;
  {
    serve::TrustServer server(options, &primary, &fallback);
    std::vector<std::future<serve::TrustResponse>> futures;
    for (int i = 0; i < kRequests; ++i) {
      serve::TrustQuery q = query_at(i);
      if (static_cast<size_t>(i) < kQueueCapacity &&
          (i + 1) % kExpiredEvery == 0) {
        q.deadline = Deadline::AfterMillis(0);
        ++expected_expired;
      }
      futures.push_back(server.Submit(q));
    }
    server.Start();
    std::vector<serve::TrustResponse> responses;
    CheckResponses(&futures, &responses);
    server.Shutdown();
    phase1 = server.Stats();

    const int expected_rejected =
        kRequests - static_cast<int>(kQueueCapacity);
    Expect(phase1.rejected == expected_rejected,
           "overload must reject exactly the overflow beyond queue capacity");
    int rejected_seen = 0;
    for (const auto& r : responses) {
      if (r.status.code() == StatusCode::kResourceExhausted) ++rejected_seen;
    }
    Expect(rejected_seen == expected_rejected,
           "every rejected request must surface ResourceExhausted");
    Expect(phase1.expired == expected_expired,
           "every expired-deadline request must surface DeadlineExceeded");
    std::printf("phase 1 (overload): rejected %lld/%d, expired %lld\n",
                static_cast<long long>(phase1.rejected), kRequests,
                static_cast<long long>(phase1.expired));
  }

  // --- Phase 2: faults, breaker, degraded mode, hot reload ----------------
  serve::ServerStats phase2;
  int64_t reload_failures = 0;
  int64_t reload_success = 0;
  std::vector<serve::TrustResponse> wave2;
  {
    // Each wave runs closed-loop on its own server (all requests enqueued
    // before Start), which pins batch composition: submitting into a live
    // dispatcher would make batch boundaries — and with them the
    // fault-site alignment — timing-dependent.
    serve::ServeOptions open_options = options;
    open_options.queue_capacity = static_cast<size_t>(kRequests) + 8;
    std::vector<serve::TrustResponse> wave1;
    {
      serve::TrustServer server(open_options, &primary, &fallback);
      std::vector<std::future<serve::TrustResponse>> futures;
      for (int i = 0; i < kRequests; ++i) {
        futures.push_back(server.Submit(query_at(i)));
      }
      server.Start();
      CheckResponses(&futures, &wave1);
      server.Shutdown();
      phase2 = server.Stats();
    }

    // Hot reload between waves: the corrupt checkpoint must be rejected
    // with the old weights kept; the pristine one must swap in.
    const int64_t generation_before = primary.generation();
    Status corrupt_reload = primary.Reload(corrupt_checkpoint);
    Expect(!corrupt_reload.ok(),
           "reloading a bit-flipped checkpoint must fail");
    Expect(primary.generation() == generation_before,
           "a failed reload must keep the old model generation");
    if (!corrupt_reload.ok()) ++reload_failures;
    Status good_reload = primary.Reload(checkpoint);
    Expect(good_reload.ok(), "reloading the pristine checkpoint must work");
    Expect(primary.generation() == generation_before + 1,
           "a successful reload must advance the model generation");
    if (good_reload.ok()) ++reload_success;

    // Second wave against the reloaded model (fresh server, fresh breaker).
    {
      serve::TrustServer server(open_options, &primary, &fallback);
      std::vector<std::future<serve::TrustResponse>> futures;
      for (int i = 0; i < kRequests / 2; ++i) {
        futures.push_back(server.Submit(query_at(i)));
      }
      server.Start();
      CheckResponses(&futures, &wave2);
      server.Shutdown();
      phase2 = Add(phase2, server.Stats());
    }

    for (const auto& r : wave1) {
      if (r.status.ok() && r.degraded) {
        Expect(std::isfinite(r.score),
               "degraded responses must carry finite heuristic scores");
      }
    }
    std::printf(
        "phase 2 (faults): retries %lld, trips %lld, probes %lld, "
        "recoveries %lld, degraded %lld, reload failures %lld\n",
        static_cast<long long>(phase2.retries),
        static_cast<long long>(phase2.breaker_trips),
        static_cast<long long>(phase2.breaker_probes),
        static_cast<long long>(phase2.breaker_recoveries),
        static_cast<long long>(phase2.degraded),
        static_cast<long long>(reload_failures));
  }

  // --- Phase 3: overload control — lanes, coalescing, score cache ---------
  // Two closed-loop waves of a multi-tenant mix (steady strict tenant,
  // bursty degraded-eligible tenants, hot-key best-effort tenant) at 2x
  // queue capacity each, sharing one score cache so wave 2 is absorbed by
  // wave 1's fills. One follower per wave carries an already-expired
  // deadline onto a hot key to exercise the coalesced-expiry path.
  serve::ServerStats phase3;
  uint64_t lanes_digest = 1469598103934665603ULL;  // FNV-1a offset basis
  {
    serve::ServeOptions lane_options = options;
    lane_options.admission.strict_reserve = kStrictReserve;
    lane_options.coalesce = true;
    serve::ScoreCache cache(kScoreCacheEntries);
    lane_options.shared_score_cache = &cache;

    auto lane_for = [](int i) {
      switch (i % 4) {
        case 0: return serve::Lane::kStrict;
        case 3: return serve::Lane::kBesteffort;
        default: return serve::Lane::kDegradedEligible;
      }
    };
    auto lane_query = [&](int i) {
      // The best-effort tenant hammers six hot keys; everyone else cycles
      // the test pairs. Index-only mapping, so wave 2 repeats wave 1.
      serve::TrustQuery q = lane_for(i) == serve::Lane::kBesteffort
                                ? query_at((i / 4) % 6)
                                : query_at(i);
      q.lane = lane_for(i);
      return q;
    };

    const int per_wave = 2 * static_cast<int>(kQueueCapacity);
    for (int wave = 0; wave < 2; ++wave) {
      serve::TrustServer server(lane_options, &primary, &fallback);
      std::vector<std::future<serve::TrustResponse>> futures;
      for (int i = 0; i < per_wave; ++i) {
        futures.push_back(server.Submit(lane_query(i)));
      }
      serve::TrustQuery expired_follower = lane_query(3);  // a hot key
      expired_follower.deadline = Deadline::AfterMillis(0);
      futures.push_back(server.Submit(expired_follower));
      server.Start();
      std::vector<serve::TrustResponse> responses;
      CheckResponses(&futures, &responses);
      server.Shutdown();
      phase3 = Add(phase3, server.Stats());
      for (const auto& r : responses) {
        lanes_digest = FoldResponse(lanes_digest, r);
      }
    }

    Expect(phase3.lane_rejected[static_cast<int>(serve::Lane::kStrict)] == 0,
           "the strict reservation must shed no strict traffic at 2x load");
    Expect(phase3.coalesced > 0,
           "hot-key duplicates must coalesce onto in-flight leaders");
    Expect(phase3.coalesced_expired >= 1,
           "an expired follower must resolve DeadlineExceeded while "
           "coalesced");
    Expect(phase3.cache_hits > 0,
           "the repeat wave must be partially absorbed by the score cache");
    Expect(phase3.lane_rejected[static_cast<int>(
               serve::Lane::kBesteffort)] +
                   phase3.coalesced + phase3.cache_hits >
               0,
           "the best-effort lane must shed, coalesce, or hit cache first");
    std::printf(
        "phase 3 (lanes): admitted s/d/b %lld/%lld/%lld, rejected s/d/b "
        "%lld/%lld/%lld, downgraded %lld, coalesced %lld, cache hits %lld\n",
        static_cast<long long>(
            phase3.lane_admitted[static_cast<int>(serve::Lane::kStrict)]),
        static_cast<long long>(phase3.lane_admitted[static_cast<int>(
            serve::Lane::kDegradedEligible)]),
        static_cast<long long>(
            phase3.lane_admitted[static_cast<int>(serve::Lane::kBesteffort)]),
        static_cast<long long>(
            phase3.lane_rejected[static_cast<int>(serve::Lane::kStrict)]),
        static_cast<long long>(phase3.lane_rejected[static_cast<int>(
            serve::Lane::kDegradedEligible)]),
        static_cast<long long>(
            phase3.lane_rejected[static_cast<int>(serve::Lane::kBesteffort)]),
        static_cast<long long>(phase3.downgraded),
        static_cast<long long>(phase3.coalesced),
        static_cast<long long>(phase3.cache_hits));
  }

  // --- Phase 4: uncertainty + abstain-aware serving -----------------------
  // A seed ensemble (3 init seeds + 2 MC-dropout samples of the canonical
  // member) serves behind an EnsembleBackend with min_confidence set to the
  // median of the ensemble's own confidence distribution over the query
  // stream — roughly half the keys abstain and reroute to the heuristic
  // fallback. Two closed-loop waves share a score cache: confident scores
  // are absorbed by the cache in wave 2, abstained keys are recomputed (and
  // abstain again), which the wave-symmetry invariant below pins.
  serve::ServerStats phase4;
  uint64_t conf_digest = 1469598103934665603ULL;  // FNV-1a offset basis
  float abstain_threshold = 0.0f;
  {
    // Phases 2-3 own the fault-recovery interplay; this phase pins the
    // abstain partition and its wave symmetry, which an externally
    // injected serve.infer fault stream would perturb (a faulted batch
    // degrades without abstaining, and the draws differ across waves).
    fault::Disable();
    std::vector<std::shared_ptr<models::TrustPredictor>> members;
    for (uint64_t m = 0; m < 3; ++m) {
      Rng rng(kModelSeed + m);
      models::ModelInputs member_inputs = inputs;
      member_inputs.rng = &rng;
      auto created =
          core::CreatePredictor("AHNTP", member_inputs, core::AhntpConfig{});
      AHNTP_CHECK(created.ok()) << created.status().ToString();
      members.push_back(std::move(created).value());
    }
    models::EnsembleOptions ens_options;
    ens_options.tau = 0.05;
    ens_options.mc_dropout_samples = 2;
    ens_options.mc_dropout_rate = 0.15f;
    auto ensemble = std::make_shared<models::SeedEnsemble>(std::move(members),
                                                           ens_options);

    const int per_wave = 2 * static_cast<int>(kQueueCapacity);
    std::vector<data::TrustPair> probe_pairs;
    for (int i = 0; i < per_wave; ++i) {
      serve::TrustQuery q = query_at(i);
      probe_pairs.push_back({q.src, q.dst, 0.0f});
    }
    models::SeedEnsemble::Scored probe = ensemble->Score(probe_pairs);
    std::vector<float> sorted_conf = probe.confidence;
    std::sort(sorted_conf.begin(), sorted_conf.end());
    abstain_threshold = sorted_conf[sorted_conf.size() / 2];

    serve::EnsembleBackend ensemble_backend(ensemble);
    serve::ServeOptions conf_options = options;
    conf_options.queue_capacity = static_cast<size_t>(per_wave) + 8;
    conf_options.min_confidence = abstain_threshold;
    serve::ScoreCache cache(kScoreCacheEntries);
    conf_options.shared_score_cache = &cache;

    serve::ServerStats waves[2];
    for (int wave = 0; wave < 2; ++wave) {
      serve::TrustServer server(conf_options, &ensemble_backend, &fallback);
      std::vector<std::future<serve::TrustResponse>> futures;
      for (int i = 0; i < per_wave; ++i) {
        futures.push_back(server.Submit(query_at(i)));
      }
      server.Start();
      std::vector<serve::TrustResponse> responses;
      CheckResponses(&futures, &responses);
      server.Shutdown();
      waves[wave] = server.Stats();
      phase4 = Add(phase4, waves[wave]);
      for (const auto& r : responses) {
        conf_digest = FoldResponse(conf_digest, r);
        if (r.abstained) {
          Expect(r.degraded,
                 "with a fallback configured, abstained responses must be "
                 "served degraded");
          Expect(r.status.ok() && std::isfinite(r.score),
                 "abstained responses must carry finite fallback scores");
          Expect(r.confidence < abstain_threshold,
                 "abstained responses must report the rejected confidence");
        } else if (r.status.ok() && !r.degraded) {
          Expect(r.confidence >= abstain_threshold,
                 "served primary scores must meet the confidence threshold");
        }
      }
    }

    Expect(phase4.abstained > 0,
           "the median threshold must make some requests abstain");
    Expect(phase4.ok > 0,
           "confident requests must still be served by the primary");
    Expect(waves[1].cache_hits > 0,
           "wave 2 must absorb confident repeats from the score cache");
    Expect(waves[0].abstained == waves[1].abstained,
           "abstained scores must not be cached: wave 2 must abstain "
           "exactly like wave 1");
    std::printf(
        "phase 4 (abstain): threshold %.4f, abstained %lld, ok %lld, "
        "degraded %lld, cache hits %lld\n",
        static_cast<double>(abstain_threshold),
        static_cast<long long>(phase4.abstained),
        static_cast<long long>(phase4.ok),
        static_cast<long long>(phase4.degraded),
        static_cast<long long>(phase4.cache_hits));
  }

  // --- Phase 5: dynamic mutations — write lane + delta invalidation -------
  // Interleaved read/write traffic against a DynamicBackend: segments of
  // reads separated by graph deltas. Deltas apply on the server's writer
  // thread beside the dispatcher, so the demo pins the interleaving the
  // way a client needing read-your-writes does: it waits on each
  // segment's reads before submitting the segment's delta, and on the
  // delta's future before the next segment. Each segment is one
  // closed-loop wave on its own server over a shared score cache, so batch
  // composition — and with it every score, generation observation, and
  // cache flush — is bit-identical at any --threads=N. The next wave's
  // server exists before the delta publishes, so, like a long-lived
  // server, its first batch observes the bump and flushes the cache. After
  // the last mutation the first segment's keys are re-read: same keys,
  // newer generation, so the score cache must flush rather than serve
  // stale scores.
  serve::ServerStats phase5;
  uint64_t mut_digest = 1469598103934665603ULL;  // FNV-1a offset basis
  int64_t final_generation = 0;
  {
    // Phase 2 owns the fault-recovery interplay; an injected serve.infer
    // stream here would fold retry noise into the mutation digest.
    fault::Disable();
    core::DynamicPipelineOptions dyn_options;
    dyn_options.model.hidden_dims = {16, 8};
    auto pipeline = core::DynamicTrustPipeline::Create(dataset, dyn_options);
    AHNTP_CHECK(pipeline.ok()) << pipeline.status().ToString();
    serve::DynamicBackend dynamic_backend(&pipeline.value());

    data::DeltaStreamConfig delta_config;
    delta_config.num_deltas = kMutations;
    std::vector<graph::GraphDelta> deltas =
        data::GenerateTrustDeltas(dataset, delta_config);

    serve::ServeOptions dyn_serve = options;
    dyn_serve.queue_capacity = static_cast<size_t>(kReadsPerSegment);
    serve::ScoreCache cache(kScoreCacheEntries);
    dyn_serve.shared_score_cache = &cache;
    auto make_wave = [&] {
      return std::make_unique<serve::TrustServer>(
          dyn_serve, &dynamic_backend, &fallback, &dynamic_backend);
    };

    std::vector<serve::TrustResponse> responses;
    std::vector<serve::MutationResponse> mut_responses;
    std::unique_ptr<serve::TrustServer> wave = make_wave();
    for (size_t segment = 0; segment <= deltas.size(); ++segment) {
      // The last wave re-reads the first segment's keys.
      const int first_query =
          segment < deltas.size()
              ? static_cast<int>(segment) * kReadsPerSegment
              : 0;
      std::vector<std::future<serve::TrustResponse>> read_futures;
      for (int r = 0; r < kReadsPerSegment; ++r) {
        read_futures.push_back(wave->Submit(query_at(first_query + r)));
      }
      wave->Start();
      CheckResponses(&read_futures, &responses);
      if (segment == deltas.size()) break;
      std::unique_ptr<serve::TrustServer> next = make_wave();
      mut_responses.push_back(wave->SubmitMutation(deltas[segment]).get());
      wave->Shutdown();
      phase5 = Add(phase5, wave->Stats());
      wave = std::move(next);
    }
    wave->Shutdown();
    phase5 = Add(phase5, wave->Stats());

    int64_t expected_generation = 0;
    for (const auto& m : mut_responses) {
      Expect(m.status.ok(), "every submitted mutation must apply");
      ++expected_generation;
      Expect(m.generation == expected_generation,
             "mutations must observe sequential graph generations");
      mut_digest = FoldMutation(mut_digest, m);
    }
    for (const auto& r : responses) {
      mut_digest = FoldResponse(mut_digest, r);
    }
    final_generation = pipeline.value().generation();
    Expect(final_generation == static_cast<int64_t>(deltas.size()),
           "the store generation must equal the number of applied deltas");
    Expect(phase5.mutations_applied ==
               static_cast<int64_t>(deltas.size()),
           "every mutation must be counted applied");
    Expect(phase5.mutations_submitted - phase5.mutations_rejected ==
               phase5.mutations_applied + phase5.mutations_failed,
           "accepted mutations must partition into applied+failed");
    Expect(phase5.cache_flushes >= 1,
           "a generation bump across a read segment must flush the cache");
    std::printf(
        "phase 5 (mutations): reads %lld, mutations %lld, applied %lld, "
        "generation %lld, cache flushes %lld\n",
        static_cast<long long>(phase5.submitted),
        static_cast<long long>(phase5.mutations_submitted),
        static_cast<long long>(phase5.mutations_applied),
        static_cast<long long>(final_generation),
        static_cast<long long>(phase5.cache_flushes));
  }

  // --- Summary + invariants ------------------------------------------------
  serve::ServerStats total =
      Add(Add(Add(Add(phase1, phase2), phase3), phase4), phase5);
  const int64_t accepted = total.submitted - total.rejected;
  Expect(accepted == total.expired + total.ok + total.degraded + total.failed,
         "accepted requests must partition into expired+ok+degraded+failed");

  // Deterministic digest lines for tests/serve_golden_test.cc: counters,
  // then the first second-wave scores in hexfloat (bit-exact across thread
  // counts). Wall-clock fields (latency) are deliberately excluded.
  std::printf(
      "SERVE_SUMMARY {\"submitted\": %lld, \"rejected\": %lld, "
      "\"expired\": %lld, \"ok\": %lld, \"degraded\": %lld, "
      "\"failed\": %lld, \"retries\": %lld, \"nonfinite\": %lld, "
      "\"batches\": %lld, \"breaker_trips\": %lld, \"breaker_probes\": %lld, "
      "\"breaker_recoveries\": %lld, \"reload_failures\": %lld, "
      "\"reload_success\": %lld, \"downgraded\": %lld, \"coalesced\": %lld, "
      "\"coalesced_expired\": %lld, \"cache_hits\": %lld, "
      "\"cache_misses\": %lld, \"cache_flushes\": %lld}\n",
      static_cast<long long>(total.submitted),
      static_cast<long long>(total.rejected),
      static_cast<long long>(total.expired),
      static_cast<long long>(total.ok),
      static_cast<long long>(total.degraded),
      static_cast<long long>(total.failed),
      static_cast<long long>(total.retries),
      static_cast<long long>(total.nonfinite),
      static_cast<long long>(total.batches),
      static_cast<long long>(total.breaker_trips),
      static_cast<long long>(total.breaker_probes),
      static_cast<long long>(total.breaker_recoveries),
      static_cast<long long>(reload_failures),
      static_cast<long long>(reload_success),
      static_cast<long long>(total.downgraded),
      static_cast<long long>(total.coalesced),
      static_cast<long long>(total.coalesced_expired),
      static_cast<long long>(total.cache_hits),
      static_cast<long long>(total.cache_misses),
      static_cast<long long>(total.cache_flushes));
  std::printf(
      "SERVE_LANES {\"strict_admitted\": %lld, \"strict_rejected\": %lld, "
      "\"degraded_admitted\": %lld, \"degraded_rejected\": %lld, "
      "\"besteffort_admitted\": %lld, \"besteffort_rejected\": %lld, "
      "\"downgraded\": %lld, \"coalesced\": %lld, "
      "\"coalesced_expired\": %lld, \"cache_hits\": %lld, "
      "\"cache_misses\": %lld, \"cache_flushes\": %lld, "
      "\"digest\": \"%016llx\"}\n",
      static_cast<long long>(
          phase3.lane_admitted[static_cast<int>(serve::Lane::kStrict)]),
      static_cast<long long>(
          phase3.lane_rejected[static_cast<int>(serve::Lane::kStrict)]),
      static_cast<long long>(phase3.lane_admitted[static_cast<int>(
          serve::Lane::kDegradedEligible)]),
      static_cast<long long>(phase3.lane_rejected[static_cast<int>(
          serve::Lane::kDegradedEligible)]),
      static_cast<long long>(
          phase3.lane_admitted[static_cast<int>(serve::Lane::kBesteffort)]),
      static_cast<long long>(
          phase3.lane_rejected[static_cast<int>(serve::Lane::kBesteffort)]),
      static_cast<long long>(phase3.downgraded),
      static_cast<long long>(phase3.coalesced),
      static_cast<long long>(phase3.coalesced_expired),
      static_cast<long long>(phase3.cache_hits),
      static_cast<long long>(phase3.cache_misses),
      static_cast<long long>(phase3.cache_flushes),
      static_cast<unsigned long long>(lanes_digest));
  std::printf(
      "SERVE_CONF {\"threshold\": \"%a\", \"abstained\": %lld, \"ok\": %lld, "
      "\"degraded\": %lld, \"failed\": %lld, \"cache_hits\": %lld, "
      "\"cache_misses\": %lld, \"digest\": \"%016llx\"}\n",
      static_cast<double>(abstain_threshold),
      static_cast<long long>(phase4.abstained),
      static_cast<long long>(phase4.ok),
      static_cast<long long>(phase4.degraded),
      static_cast<long long>(phase4.failed),
      static_cast<long long>(phase4.cache_hits),
      static_cast<long long>(phase4.cache_misses),
      static_cast<unsigned long long>(conf_digest));
  std::printf(
      "SERVE_MUT {\"reads\": %lld, \"mutations\": %lld, \"applied\": %lld, "
      "\"failed\": %lld, \"generation\": %lld, \"cache_hits\": %lld, "
      "\"cache_misses\": %lld, \"cache_flushes\": %lld, "
      "\"digest\": \"%016llx\"}\n",
      static_cast<long long>(phase5.submitted),
      static_cast<long long>(phase5.mutations_submitted),
      static_cast<long long>(phase5.mutations_applied),
      static_cast<long long>(phase5.mutations_failed),
      static_cast<long long>(final_generation),
      static_cast<long long>(phase5.cache_hits),
      static_cast<long long>(phase5.cache_misses),
      static_cast<long long>(phase5.cache_flushes),
      static_cast<unsigned long long>(mut_digest));
  std::printf("SERVE_SCORES");
  for (size_t i = 0; i < wave2.size() && i < 8; ++i) {
    std::printf(" %a%s", static_cast<double>(wave2[i].score),
                wave2[i].degraded ? "d" : "");
  }
  std::printf("\n");

  if (g_violations > 0) {
    std::fprintf(stderr, "serve_demo: %d invariant violation(s)\n",
                 g_violations);
    return 1;
  }
  std::printf("serve_demo: all invariants held\n");
  return 0;
}
