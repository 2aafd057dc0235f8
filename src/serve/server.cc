#include "serve/server.h"

#ifdef __linux__
#include <sched.h>
#endif

#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ahntp::serve {

namespace {

/// Failure codes worth retrying: transient outages and I/O hiccups. A
/// non-finite score (Internal) or a shape/config problem is deterministic
/// and retrying would only burn the deadline.
bool IsTransient(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kIoError;
}

bool AllFinite(const std::vector<float>& values) {
  for (float v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Per-lane admission counters carry the lane name, which varies at
/// runtime, so they go through the registry lookup instead of the
/// static-caching AHNTP_METRIC_COUNT macro.
void CountLaneMetric(Lane lane, const char* outcome) {
  if (metrics::Enabled()) {
    metrics::GetCounter(std::string("serve.lane.") + LaneName(lane) + "." +
                        outcome)
        .Increment();
  }
}

void ObserveLatency(double latency_ms) {
  if (metrics::Enabled()) {
    metrics::GetHistogram("serve.request_latency_seconds")
        .Observe(latency_ms * 1e-3);
  }
}

/// The CPU the calling thread runs on, or -1 where that is unknown.
int CurrentCpu() {
#ifdef __linux__
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Drops `cpu` from the calling thread's CPU mask when the mask holds
/// another CPU. The writer calls it with the CPU Start() ran on, where the
/// dispatcher starts: Linux may start both threads there, and since
/// neither stays runnable the load balancer may never separate them. A
/// saturated dispatcher then halves the writer's share (on a 4-vCPU VM
/// with three server CPUs, a closed read loop stretched each apply from
/// ~80 ms to ~170 ms).
void LeaveCpu(int cpu) {
#ifdef __linux__
  cpu_set_t mask;
  if (cpu < 0 || sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  if (!CPU_ISSET(cpu, &mask) || CPU_COUNT(&mask) < 2) return;
  CPU_CLR(cpu, &mask);
  sched_setaffinity(0, sizeof(mask), &mask);
#else
  (void)cpu;
#endif
}

}  // namespace

TrustServer::TrustServer(const ServeOptions& options, ScoreBackend* primary,
                         ScoreBackend* fallback, MutationSink* mutations)
    : options_(options),
      primary_(primary),
      fallback_(fallback),
      mutations_(mutations),
      admission_([&options] {
        AdmissionOptions resolved = options.admission;
        resolved.queue_capacity = options.queue_capacity;
        return resolved;
      }()),
      queue_(options.queue_capacity),
      writes_(options.queue_capacity),
      breaker_(options.breaker) {
  AHNTP_CHECK(primary_ != nullptr) << "TrustServer needs a primary backend";
  AHNTP_CHECK_GT(options_.max_batch_size, 0u);
  if (options_.shared_score_cache != nullptr) {
    cache_ = options_.shared_score_cache;
  } else if (options_.score_cache_entries > 0) {
    owned_cache_ = std::make_unique<ScoreCache>(options_.score_cache_entries);
    cache_ = owned_cache_.get();
  }
  cache_generation_ = primary_->generation();
}

TrustServer::~TrustServer() { Shutdown(); }

std::future<TrustResponse> TrustServer::Submit(const TrustQuery& query) {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  AHNTP_METRIC_COUNT("serve.submitted", 1);
  const Lane lane = query.lane;
  const int lane_index = static_cast<int>(lane);
  AHNTP_CHECK(lane_index >= 0 && lane_index < kNumLanes)
      << "invalid lane " << lane_index;

  Request request;
  request.query = query;
  std::future<TrustResponse> future = request.promise.get_future();
  request.key = {query.src, query.dst, primary_->generation()};

  // Fast path: a repeat lookup for the live generation is answered from
  // the cache without occupying a queue slot or touching any backend. An
  // entry below the abstain threshold (possible only with a shared cache
  // filled by a laxer server) is treated as a miss, never served.
  if (cache_ != nullptr && !queue_.closed() && !query.deadline.Expired()) {
    std::optional<CachedScore> hit = cache_->Get(request.key);
    if (hit && hit->confidence >= options_.min_confidence) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      AHNTP_METRIC_COUNT("serve.cache_hits", 1);
      stats_.lane_admitted[lane_index].fetch_add(1, std::memory_order_relaxed);
      CountLaneMetric(lane, "admitted");
      TrustResponse response;
      response.score = hit->score;
      response.confidence = hit->confidence;
      response.cached = true;
      CountOutcome(response);
      Complete(&request, std::move(response));
      return future;
    }
  }

  Status pushed;
  if (options_.coalesce) {
    // The map registration and the queue push form one critical section:
    // a follower can only attach to a leader that is (or will be)
    // enqueued. Lock order here and in Complete() is coalesce_mu_ before
    // the group mutex.
    std::lock_guard<std::mutex> lock(coalesce_mu_);
    auto it = inflight_.find(request.key);
    if (it != inflight_.end()) {
      std::lock_guard<std::mutex> group_lock(it->second->mu);
      if (!it->second->done) {
        it->second->followers.push_back(
            Follower{query.deadline, std::move(request.promise), request.queued});
        stats_.coalesced.fetch_add(1, std::memory_order_relaxed);
        AHNTP_METRIC_COUNT("serve.coalesced", 1);
        stats_.lane_admitted[lane_index].fetch_add(1,
                                                   std::memory_order_relaxed);
        CountLaneMetric(lane, "admitted");
        return future;
      }
    }
    request.group = std::make_shared<CoalesceGroup>();
    request.downgrade = fallback_ != nullptr &&
                        admission_.ShouldDowngrade(lane, queue_.size());
    std::shared_ptr<CoalesceGroup> group = request.group;
    const ScoreKey key = request.key;
    pushed = queue_.TryPushIfBelow(request, admission_.LimitFor(lane));
    if (pushed.ok()) inflight_[key] = std::move(group);
  } else {
    request.downgrade = fallback_ != nullptr &&
                        admission_.ShouldDowngrade(lane, queue_.size());
    pushed = queue_.TryPushIfBelow(request, admission_.LimitFor(lane));
  }

  if (!pushed.ok()) {
    stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    AHNTP_METRIC_COUNT("serve.rejected", 1);
    stats_.lane_rejected[lane_index].fetch_add(1, std::memory_order_relaxed);
    CountLaneMetric(lane, "rejected");
    TrustResponse response;
    response.status = pushed;
    request.promise.set_value(std::move(response));
    return future;
  }
  stats_.lane_admitted[lane_index].fetch_add(1, std::memory_order_relaxed);
  CountLaneMetric(lane, "admitted");
  return future;
}

std::future<MutationResponse> TrustServer::SubmitMutation(
    graph::GraphDelta delta) {
  stats_.mutations_submitted.fetch_add(1, std::memory_order_relaxed);
  AHNTP_METRIC_COUNT("serve.mutations_submitted", 1);
  WriteRequest request;
  request.delta = std::move(delta);
  std::future<MutationResponse> future = request.promise.get_future();
  // The write queue has its own capacity: mutations are never shed by a
  // read lane's limit, never coalesced, and never served from the cache.
  const Status pushed =
      mutations_ == nullptr
          ? Status::FailedPrecondition("no mutation sink configured")
          : writes_.TryPush(request);
  if (!pushed.ok()) {
    stats_.mutations_rejected.fetch_add(1, std::memory_order_relaxed);
    AHNTP_METRIC_COUNT("serve.mutations_rejected", 1);
    MutationResponse response;
    response.status = pushed;
    request.promise.set_value(std::move(response));
  }
  return future;
}

void TrustServer::Start() {
  AHNTP_CHECK(!started_) << "TrustServer started twice";
  started_ = true;
  const int dispatcher_cpu = CurrentCpu();
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  if (mutations_ == nullptr) return;
  writer_ = std::thread([this, dispatcher_cpu] {
    LeaveCpu(dispatcher_cpu);
    WriteLoop();
  });
}

void TrustServer::Shutdown() {
  queue_.Close();
  writes_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (writer_.joinable()) writer_.join();
  // Never started: drain whatever sits in the queues so every future
  // completes (coalesced followers ride their leader's fan-out).
  std::vector<Request> leftover;
  while (queue_.PopBatch(&leftover, options_.max_batch_size) > 0) {
    for (Request& request : leftover) {
      TrustResponse response;
      response.status = Status::FailedPrecondition("server shut down");
      stats_.failed.fetch_add(1, std::memory_order_relaxed);
      Complete(&request, std::move(response));
    }
    leftover.clear();
  }
  std::vector<WriteRequest> unapplied;
  while (writes_.PopBatch(&unapplied, options_.max_batch_size) > 0) {
    for (WriteRequest& request : unapplied) {
      MutationResponse response;
      response.status = Status::FailedPrecondition("server shut down");
      response.latency_ms = request.queued.ElapsedMillis();
      stats_.mutations_failed.fetch_add(1, std::memory_order_relaxed);
      request.promise.set_value(std::move(response));
    }
    unapplied.clear();
  }
}

ServerStats TrustServer::Stats() const {
  ServerStats out;
  out.submitted = stats_.submitted.load(std::memory_order_relaxed);
  out.rejected = stats_.rejected.load(std::memory_order_relaxed);
  out.expired = stats_.expired.load(std::memory_order_relaxed);
  out.ok = stats_.ok.load(std::memory_order_relaxed);
  out.degraded = stats_.degraded.load(std::memory_order_relaxed);
  out.failed = stats_.failed.load(std::memory_order_relaxed);
  out.retries = stats_.retries.load(std::memory_order_relaxed);
  out.nonfinite = stats_.nonfinite.load(std::memory_order_relaxed);
  out.batches = stats_.batches.load(std::memory_order_relaxed);
  out.breaker_trips = stats_.trips.load(std::memory_order_relaxed);
  out.breaker_probes = stats_.probes.load(std::memory_order_relaxed);
  out.breaker_recoveries = stats_.recoveries.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumLanes; ++i) {
    out.lane_admitted[i] = stats_.lane_admitted[i].load(std::memory_order_relaxed);
    out.lane_rejected[i] = stats_.lane_rejected[i].load(std::memory_order_relaxed);
  }
  out.downgraded = stats_.downgraded.load(std::memory_order_relaxed);
  out.coalesced = stats_.coalesced.load(std::memory_order_relaxed);
  out.coalesced_expired =
      stats_.coalesced_expired.load(std::memory_order_relaxed);
  out.cache_hits = stats_.cache_hits.load(std::memory_order_relaxed);
  out.cache_misses = stats_.cache_misses.load(std::memory_order_relaxed);
  out.cache_flushes = stats_.cache_flushes.load(std::memory_order_relaxed);
  out.abstained = stats_.abstained.load(std::memory_order_relaxed);
  out.mutations_submitted =
      stats_.mutations_submitted.load(std::memory_order_relaxed);
  out.mutations_rejected =
      stats_.mutations_rejected.load(std::memory_order_relaxed);
  out.mutations_applied =
      stats_.mutations_applied.load(std::memory_order_relaxed);
  out.mutations_failed =
      stats_.mutations_failed.load(std::memory_order_relaxed);
  return out;
}

void TrustServer::DispatchLoop() {
  std::vector<Request> batch;
  while (queue_.PopBatch(&batch, options_.max_batch_size) > 0) {
    ProcessBatch(&batch);
    batch.clear();
  }
}

void TrustServer::WriteLoop() {
  std::vector<WriteRequest> batch;
  while (writes_.PopBatch(&batch, options_.max_batch_size) > 0) {
    for (WriteRequest& request : batch) ApplyMutationRequest(&request);
    batch.clear();
  }
}

void TrustServer::CountOutcome(const TrustResponse& response) {
  if (response.abstained) {
    stats_.abstained.fetch_add(1, std::memory_order_relaxed);
    AHNTP_METRIC_COUNT("serve.abstained", 1);
  }
  if (response.status.ok()) {
    if (response.degraded) {
      stats_.degraded.fetch_add(1, std::memory_order_relaxed);
      AHNTP_METRIC_COUNT("serve.degraded", 1);
    } else {
      stats_.ok.fetch_add(1, std::memory_order_relaxed);
      AHNTP_METRIC_COUNT("serve.ok", 1);
    }
  } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
    stats_.expired.fetch_add(1, std::memory_order_relaxed);
    AHNTP_METRIC_COUNT("serve.expired", 1);
  } else {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
    AHNTP_METRIC_COUNT("serve.failed", 1);
  }
}

void TrustServer::PublishBreakerState() {
  if (metrics::Enabled()) {
    metrics::GetGauge("serve.breaker_state")
        .Set(static_cast<double>(static_cast<int>(breaker_.state())));
  }
}

void TrustServer::Complete(Request* request, TrustResponse response) {
  std::vector<Follower> followers;
  if (request->group != nullptr) {
    {
      // Unregister first (same lock order as Submit: coalesce_mu_ before
      // the group mutex), so late duplicates start a fresh leader instead
      // of attaching to a completed one.
      std::lock_guard<std::mutex> lock(coalesce_mu_);
      auto it = inflight_.find(request->key);
      if (it != inflight_.end() && it->second == request->group) {
        inflight_.erase(it);
      }
    }
    std::lock_guard<std::mutex> group_lock(request->group->mu);
    request->group->done = true;
    followers = std::move(request->group->followers);
  }
  for (Follower& follower : followers) {
    TrustResponse fanned = response;
    if (follower.deadline.Expired()) {
      // The follower's own budget ran out while it rode the leader; it
      // resolves DeadlineExceeded without cancelling the leader.
      fanned = TrustResponse{};
      fanned.status =
          Status::DeadlineExceeded("deadline expired while coalesced");
      stats_.coalesced_expired.fetch_add(1, std::memory_order_relaxed);
      AHNTP_METRIC_COUNT("serve.coalesced_expired", 1);
    }
    fanned.coalesced = true;
    fanned.latency_ms = follower.queued.ElapsedMillis();
    ObserveLatency(fanned.latency_ms);
    CountOutcome(fanned);
    follower.promise.set_value(std::move(fanned));
  }
  response.latency_ms = request->queued.ElapsedMillis();
  ObserveLatency(response.latency_ms);
  request->promise.set_value(std::move(response));
}

void TrustServer::ApplyMutationRequest(WriteRequest* request) {
  trace::TraceSpan span("serve.mutation");
  MutationResponse response;
  Result<graph::DeltaReceipt> applied =
      mutations_->ApplyMutation(request->delta);
  if (applied.ok()) {
    response.receipt = std::move(applied).value();
    // The backend generation, not the receipt's store generation: the
    // contract is "reads submitted after this response see at least this
    // generation", and the backend is what reads observe. This thread is
    // the only writer, so nothing newer can have been published yet.
    response.generation = primary_->generation();
    stats_.mutations_applied.fetch_add(1, std::memory_order_relaxed);
    AHNTP_METRIC_COUNT("serve.mutations_applied", 1);
  } else {
    response.status = applied.status();
    stats_.mutations_failed.fetch_add(1, std::memory_order_relaxed);
    AHNTP_METRIC_COUNT("serve.mutations_failed", 1);
    AHNTP_LOG(Warning) << "serve: mutation failed: "
                       << response.status.ToString();
  }
  response.latency_ms = request->queued.ElapsedMillis();
  if (metrics::Enabled()) {
    metrics::GetHistogram("serve.mutation_latency_seconds")
        .Observe(response.latency_ms * 1e-3);
  }
  request->promise.set_value(std::move(response));
}

void TrustServer::ProcessBatch(std::vector<Request>* batch) {
  trace::TraceSpan span("serve.batch");
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  AHNTP_METRIC_COUNT("serve.batches", 1);
  if (metrics::Enabled()) {
    metrics::GetGauge("serve.queue_depth")
        .Set(static_cast<double>(queue_.size()));
    metrics::GetHistogram("serve.batch_size")
        .Observe(static_cast<double>(batch->size()));
  }
  const uint64_t batch_key = batch_ordinal_++;

  // One generation observation per batch: a bump since the last batch
  // (hot reload, training, sharded-plan rebuild, or a delta the writer
  // published meanwhile) flushes the cache. The flush is hygiene — stale
  // entries are already unreachable because the generation is part of
  // every key. A delta published between this observation and the scoring
  // call below makes the batch score against the newer rows; its cache
  // fills then sit under the older key, which no request submitted after
  // the publish can look up.
  const int64_t generation = primary_->generation();
  if (cache_ != nullptr && generation != cache_generation_) {
    cache_->Flush();
    cache_generation_ = generation;
    stats_.cache_flushes.fetch_add(1, std::memory_order_relaxed);
    AHNTP_METRIC_COUNT("serve.cache_flushes", 1);
  }

  // Deadlines are enforced here, at the batch boundary: expired requests
  // complete as DeadlineExceeded instead of being silently computed. The
  // survivors split into the admission-downgraded slice (fallback-bound),
  // batch-time cache hits, and the primary slice.
  std::vector<Request*> live;
  std::vector<data::TrustPair> pairs;
  std::vector<Request*> downgraded;
  std::vector<data::TrustPair> downgraded_pairs;
  live.reserve(batch->size());
  pairs.reserve(batch->size());
  for (Request& slot : *batch) {
    Request* request = &slot;
    if (request->query.deadline.Expired()) {
      TrustResponse response;
      response.status =
          Status::DeadlineExceeded("deadline expired before inference");
      CountOutcome(response);
      Complete(request, std::move(response));
      continue;
    }
    if (request->downgrade && fallback_ != nullptr) {
      stats_.downgraded.fetch_add(1, std::memory_order_relaxed);
      AHNTP_METRIC_COUNT("serve.downgraded", 1);
      downgraded.push_back(request);
      downgraded_pairs.push_back(
          {request->query.src, request->query.dst, 0.0f});
      continue;
    }
    if (cache_ != nullptr) {
      ScoreKey key{request->query.src, request->query.dst, generation};
      std::optional<CachedScore> hit = cache_->Get(key);
      if (hit && hit->confidence >= options_.min_confidence) {
        stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
        AHNTP_METRIC_COUNT("serve.cache_hits", 1);
        TrustResponse response;
        response.score = hit->score;
        response.confidence = hit->confidence;
        response.cached = true;
        CountOutcome(response);
        Complete(request, std::move(response));
        continue;
      }
      stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
      AHNTP_METRIC_COUNT("serve.cache_misses", 1);
    }
    live.push_back(request);
    pairs.push_back({request->query.src, request->query.dst, 0.0f});
  }
  if (!downgraded.empty()) {
    Degrade(downgraded, downgraded_pairs,
            Status::Unavailable("downgraded by admission pressure"), 0);
  }
  if (live.empty()) return;

  CircuitBreaker::Decision decision = breaker_.Admit();
  PublishBreakerState();
  if (decision == CircuitBreaker::Decision::kProbe) {
    stats_.probes.fetch_add(1, std::memory_order_relaxed);
    AHNTP_METRIC_COUNT("serve.breaker_probes", 1);
  }
  if (decision == CircuitBreaker::Decision::kFallback) {
    Degrade(live, pairs, Status::Unavailable("circuit breaker open"), 0);
    return;
  }

  // Primary path with deterministic retry/backoff for transient failures.
  const int max_attempts = std::max(options_.retry.max_attempts, 1);
  Status failure;
  int attempts = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      stats_.retries.fetch_add(1, std::memory_order_relaxed);
      AHNTP_METRIC_COUNT("serve.retries", 1);
      trace::TraceSpan retry_span("serve.retry");
      double delay_ms = options_.retry.DelayMillis(batch_key, attempt - 1);
      if (options_.sleep_on_backoff && delay_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
      }
    }
    attempts = attempt + 1;
    Result<BatchScores> scored = primary_->ScoreBatchWithConfidence(pairs);
    if (!scored.ok()) {
      failure = scored.status();
      if (IsTransient(failure.code())) continue;
      break;
    }
    AHNTP_CHECK_EQ(scored->scores.size(), pairs.size());
    AHNTP_CHECK_EQ(scored->confidence.size(), pairs.size());
    if (!AllFinite(scored->scores) || !AllFinite(scored->confidence)) {
      stats_.nonfinite.fetch_add(1, std::memory_order_relaxed);
      AHNTP_METRIC_COUNT("serve.nonfinite", 1);
      failure = Status::Internal("non-finite score from primary backend");
      break;  // deterministic corruption; retrying cannot help
    }
    breaker_.OnSuccess();
    PublishBreakerState();
    if (decision == CircuitBreaker::Decision::kProbe) {
      stats_.recoveries.fetch_add(1, std::memory_order_relaxed);
      AHNTP_METRIC_COUNT("serve.breaker_recoveries", 1);
      AHNTP_LOG(Info) << "serve: probe succeeded, circuit breaker closed";
    }
    // The abstain partition is a pure function of the batch contents (the
    // backend's scores and confidences are thread-count-invariant), so
    // which requests abstain is deterministic at any --threads=N.
    // Confident scores are served and cached; abstained ones reroute
    // through the degraded-fallback machinery and are never cached.
    std::vector<Request*> abstain;
    std::vector<data::TrustPair> abstain_pairs;
    std::vector<float> abstain_confidence;
    for (size_t i = 0; i < live.size(); ++i) {
      const float conf = scored->confidence[i];
      if (options_.min_confidence > 0.0f && conf < options_.min_confidence) {
        abstain.push_back(live[i]);
        abstain_pairs.push_back(pairs[i]);
        abstain_confidence.push_back(conf);
        continue;
      }
      if (cache_ != nullptr) {
        cache_->Put({pairs[i].src, pairs[i].dst, generation},
                    scored->scores[i], conf);
      }
      TrustResponse response;
      response.score = scored->scores[i];
      response.confidence = conf;
      response.attempts = attempts;
      CountOutcome(response);
      Complete(live[i], std::move(response));
    }
    if (!abstain.empty()) {
      Degrade(abstain, abstain_pairs,
              Status::FailedPrecondition(
                  "abstained: primary confidence below min_confidence"),
              attempts, &abstain_confidence);
    }
    return;
  }

  const bool was_open = breaker_.open();
  breaker_.OnFailure();
  PublishBreakerState();
  if (breaker_.open() && !was_open) {
    stats_.trips.fetch_add(1, std::memory_order_relaxed);
    AHNTP_METRIC_COUNT("serve.breaker_trips", 1);
    AHNTP_LOG(Warning) << "serve: circuit breaker tripped after "
                       << breaker_.consecutive_failures()
                       << " consecutive failures (" << failure.ToString()
                       << ")";
  }
  Degrade(live, pairs, failure, attempts);
}

void TrustServer::Degrade(const std::vector<Request*>& live,
                          const std::vector<data::TrustPair>& pairs,
                          const Status& reason, int attempts,
                          const std::vector<float>* abstain_confidence) {
  if (fallback_ != nullptr) {
    trace::TraceSpan span("serve.degraded");
    Result<std::vector<float>> scores = fallback_->ScoreBatch(pairs);
    if (scores.ok()) {
      for (size_t i = 0; i < live.size(); ++i) {
        TrustResponse response;
        response.score = (*scores)[i];
        response.degraded = true;
        response.attempts = attempts;
        if (abstain_confidence != nullptr) {
          response.abstained = true;
          response.confidence = (*abstain_confidence)[i];
        }
        CountOutcome(response);
        Complete(live[i], std::move(response));
      }
      return;
    }
    AHNTP_LOG(Warning) << "serve: fallback backend failed too: "
                       << scores.status().ToString();
  }
  for (size_t i = 0; i < live.size(); ++i) {
    TrustResponse response;
    response.status = reason.ok()
                          ? Status::Unavailable("primary backend unavailable")
                          : reason;
    response.attempts = attempts;
    if (abstain_confidence != nullptr) {
      response.abstained = true;
      response.confidence = (*abstain_confidence)[i];
    }
    CountOutcome(response);
    Complete(live[i], std::move(response));
  }
}

}  // namespace ahntp::serve
