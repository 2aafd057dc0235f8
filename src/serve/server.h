#ifndef AHNTP_SERVE_SERVER_H_
#define AHNTP_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "data/split.h"
#include "serve/admission.h"
#include "serve/backend.h"
#include "serve/bounded_queue.h"
#include "serve/circuit_breaker.h"
#include "serve/mutation.h"
#include "serve/retry.h"
#include "serve/score_cache.h"

namespace ahntp::serve {

/// One trust query: does `src` trust `dst`?
struct TrustQuery {
  int src = 0;
  int dst = 0;
  /// Checked cooperatively at batch boundaries; expired requests complete
  /// as DeadlineExceeded instead of being silently computed.
  Deadline deadline;
  /// Priority lane for overload control (serve/admission.h). Strict by
  /// default, which preserves the pre-lane behaviour: admitted while any
  /// queue slot is free, never downgraded.
  Lane lane = Lane::kStrict;
};

/// The terminal answer every submitted query eventually receives.
struct TrustResponse {
  /// Ok, or why no score was computed: ResourceExhausted (queue full /
  /// lane shed), DeadlineExceeded, Unavailable / IoError (primary kept
  /// failing and no fallback was configured), FailedPrecondition (server
  /// shut down).
  Status status;
  float score = std::numeric_limits<float>::quiet_NaN();
  /// True when the score came from the degraded-mode fallback backend
  /// (stale-but-sane heuristic) instead of the model — whether via the
  /// circuit breaker, an admission downgrade under pressure, or an
  /// abstention (see `abstained`).
  bool degraded = false;
  /// The primary backend's confidence in its score (serve/backend.h), in
  /// (0, 1]; 1.0 for backends without an uncertainty signal, and for
  /// degraded/failed responses where no primary score was produced. Cache
  /// hits reproduce the confidence cached with the score.
  float confidence = 1.0f;
  /// True when the primary scored this pair but its confidence fell below
  /// ServeOptions::min_confidence: the response carries the fallback's
  /// score instead (degraded=true), or the abstention error when no
  /// fallback is configured. `confidence` then reports the rejected
  /// primary confidence.
  bool abstained = false;
  /// True when the score was served from the generation-keyed score cache
  /// without touching the backend.
  bool cached = false;
  /// True when this request rode another in-flight request for the same
  /// (src, dst, generation) instead of occupying a queue slot.
  bool coalesced = false;
  /// Primary inference attempts spent on this request's batch.
  int attempts = 0;
  /// Submit-to-completion wall time (queue wait + compute).
  double latency_ms = 0.0;
};

struct ServeOptions {
  /// Bounded request queue; Submit rejects with ResourceExhausted beyond
  /// this — explicit backpressure, never unbounded growth. The write queue
  /// (SubmitMutation) has the same capacity of its own.
  size_t queue_capacity = 256;
  /// Requests scored per inference batch.
  size_t max_batch_size = 32;
  RetryPolicy retry;
  CircuitBreakerOptions breaker;
  /// Lane thresholds (serve/admission.h). `queue_capacity` above wins over
  /// the copy inside this struct. Defaults keep strict-lane-only traffic
  /// byte-identical to the pre-admission server.
  AdmissionOptions admission;
  /// Attach duplicate in-flight (src, dst, generation) requests to the
  /// first one's future instead of occupying queue slots.
  bool coalesce = false;
  /// LRU score cache entries keyed on (src, dst, generation); 0 disables.
  /// Ignored when `shared_score_cache` is set.
  size_t score_cache_entries = 0;
  /// Optional externally owned cache, shared across server instances (and
  /// so across closed-loop waves); must outlive the server.
  ScoreCache* shared_score_cache = nullptr;
  /// Sleep the computed backoff between retries. Tests that only assert
  /// on the deterministic schedule/counters can turn the actual sleeping
  /// off.
  bool sleep_on_backoff = true;
  /// Abstain policy (DESIGN.md §16): a primary score whose confidence is
  /// strictly below this threshold is not served — the request reroutes
  /// through the degraded-fallback machinery (TrustResponse::abstained).
  /// <= 0 disables (the default; plain backends report confidence 1.0 and
  /// would never abstain anyway). The comparison and the resulting
  /// partition are pure functions of the batch contents, so abstain
  /// decisions are deterministic at any --threads=N.
  float min_confidence = 0.0f;
};

/// Monotonic totals since construction. `submitted - rejected` accepted
/// requests partition into `expired + ok + degraded + failed` once the
/// server drains; coalesced followers and cache hits are accepted
/// requests like any other and land in the same partition.
struct ServerStats {
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t expired = 0;
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t failed = 0;
  int64_t retries = 0;
  int64_t nonfinite = 0;
  int64_t batches = 0;
  int64_t breaker_trips = 0;
  int64_t breaker_probes = 0;
  int64_t breaker_recoveries = 0;
  /// Per-lane admission outcomes, indexed by Lane. `admitted` includes
  /// queue slots, coalesced followers, and submit-time cache hits.
  int64_t lane_admitted[kNumLanes] = {0, 0, 0};
  int64_t lane_rejected[kNumLanes] = {0, 0, 0};
  /// Degraded-eligible requests admitted under pressure and routed to the
  /// fallback without touching the primary.
  int64_t downgraded = 0;
  /// Followers attached to an in-flight leader.
  int64_t coalesced = 0;
  /// Followers whose own deadline expired before the leader completed
  /// (they resolve DeadlineExceeded; the leader is unaffected).
  int64_t coalesced_expired = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_flushes = 0;
  /// Responses (leaders and coalesced followers alike) whose primary score
  /// was withheld by the min_confidence abstain policy. Each lands in the
  /// `degraded` partition (fallback served) or `failed` (no fallback).
  int64_t abstained = 0;
  /// Write-lane totals. `mutations_submitted - mutations_rejected`
  /// admitted mutations partition into `mutations_applied +
  /// mutations_failed` once the server drains (failed covers apply-cascade
  /// errors and shutdown drains alike).
  int64_t mutations_submitted = 0;
  int64_t mutations_rejected = 0;
  int64_t mutations_applied = 0;
  int64_t mutations_failed = 0;
};

/// The online inference substrate: a bounded MPMC queue feeding batched
/// TrustPredictor inference, with per-request deadlines, deterministic
/// retry/backoff for transient failures, a circuit breaker that degrades
/// to the heuristic fallback, and an overload-control layer — priority
/// admission lanes, duplicate-request coalescing, and a generation-keyed
/// score cache (DESIGN.md §12).
///
/// Thread model: any number of producer threads call Submit(); one
/// dispatcher thread (spawned by Start()) drains the queue in FIFO
/// batches and runs inference, which itself parallelizes on the common/
/// parallel pool. Admission decisions, coalescing leadership, and cache
/// fills are all pure functions of the submission sequence and the fault
/// seed, so a closed-loop run (enqueue everything, then Start) yields
/// bit-identical counters and scores at any --threads=N.
///
/// Writes take their own lane: SubmitMutation() enqueues a graph delta on
/// a separate FIFO write queue, drained by one writer thread that exists
/// only when a MutationSink is configured (also spawned by Start(), so it
/// inherits the dispatcher's CPU mask; when that mask holds more than one
/// CPU the writer leaves the one Start() ran on to the dispatcher). The
/// writer applies deltas one at a time, in submission order, concurrently
/// with the dispatcher's scoring — a read never waits behind an apply
/// cascade. The contract: a read sees the newest generation the backend
/// has published when its batch is scored, and each batch re-observes the
/// generation, so a published delta flushes the score cache through the
/// existing generation key. A client that needs read-your-writes waits on
/// the mutation's future before submitting the read; that is also how a
/// mixed read/write run pins its interleaving (and so stays bit-identical
/// at any --threads=N).
///
/// The server does not own its backends: `primary` (and optional
/// `fallback`/`mutations`) must outlive it, which lets a demo hot-reload
/// the ModelBackend or share backends across server instances.
class TrustServer {
 public:
  /// `mutations` is the write-lane sink (typically the same DynamicBackend
  /// instance as `primary`); null keeps the server read-only and makes
  /// SubmitMutation resolve FailedPrecondition immediately.
  TrustServer(const ServeOptions& options, ScoreBackend* primary,
              ScoreBackend* fallback, MutationSink* mutations = nullptr);
  ~TrustServer();

  TrustServer(const TrustServer&) = delete;
  TrustServer& operator=(const TrustServer&) = delete;

  /// Enqueues a query; never blocks. The future always completes: with a
  /// score once served (possibly immediately, from the score cache), or
  /// immediately with ResourceExhausted / FailedPrecondition when the
  /// lane's admission limit is exhausted / the server is shut down.
  std::future<TrustResponse> Submit(const TrustQuery& query);

  /// Enqueues a graph delta on the write lane; never blocks. The write
  /// queue has `queue_capacity` slots of its own; mutations are never shed
  /// by a read lane's limit, never coalesced, cached, or downgraded, and
  /// are applied in FIFO order on the writer thread. The future resolves
  /// once the delta is published (or failed): with the apply receipt, or
  /// with ResourceExhausted (write queue full) / FailedPrecondition (no
  /// sink, or the server shut down without ever starting).
  std::future<MutationResponse> SubmitMutation(graph::GraphDelta delta);

  /// Spawns the dispatcher, and the writer when a sink is configured.
  /// Submitting before Start() is allowed (the queues buffer up to
  /// capacity) and is how deterministic closed-loop runs pin their batch
  /// composition.
  void Start();

  /// Closes both queues, drains every pending request to a terminal
  /// response (a started writer still applies every queued delta), and
  /// joins the threads. Idempotent; called by the destructor.
  void Shutdown();

  size_t queue_depth() const { return queue_.size(); }
  ServerStats Stats() const;

 private:
  /// Followers share their leader's backend answer but keep their own
  /// promise, deadline, and latency clock.
  struct Follower {
    Deadline deadline;
    std::promise<TrustResponse> promise;
    Stopwatch queued;
  };
  struct CoalesceGroup {
    std::mutex mu;
    bool done = false;
    std::vector<Follower> followers;
  };

  struct Request {
    TrustQuery query;
    std::promise<TrustResponse> promise;
    Stopwatch queued;
    /// Admission decided this request is served by the fallback (degraded-
    /// eligible lane under pressure). Ignored when no fallback exists.
    bool downgrade = false;
    /// Coalescing identity at submit time; followers submitted later for
    /// the same key attach to `group`.
    ScoreKey key;
    std::shared_ptr<CoalesceGroup> group;  // null unless coalescing
  };

  struct WriteRequest {
    graph::GraphDelta delta;
    std::promise<MutationResponse> promise;
    Stopwatch queued;
  };

  void DispatchLoop();
  /// The read path for one popped batch: one generation observation,
  /// breaker decision, and retry loop.
  void ProcessBatch(std::vector<Request>* batch);
  void WriteLoop();
  void ApplyMutationRequest(WriteRequest* request);
  /// Scores `live` on the fallback (degraded=true) or, without one,
  /// completes everything with `reason`. The abstain path passes the
  /// rejected primary confidences (parallel to `live`; null otherwise) so
  /// responses report why the primary score was withheld, and marks every
  /// response abstained.
  void Degrade(const std::vector<Request*>& live,
               const std::vector<data::TrustPair>& pairs,
               const Status& reason, int attempts,
               const std::vector<float>* abstain_confidence = nullptr);
  void Complete(Request* request, TrustResponse response);
  /// Folds `response` into the ok/degraded/failed/expired counters (the
  /// terminal-outcome partition); used for leaders, followers, and
  /// submit-time cache hits alike.
  void CountOutcome(const TrustResponse& response);
  void PublishBreakerState();

  ServeOptions options_;
  ScoreBackend* primary_;
  ScoreBackend* fallback_;  // nullable
  MutationSink* mutations_;  // nullable; write lane disabled when null
  AdmissionController admission_;
  BoundedQueue<Request> queue_;
  BoundedQueue<WriteRequest> writes_;
  CircuitBreaker breaker_;  // dispatcher-thread only
  std::unique_ptr<ScoreCache> owned_cache_;
  ScoreCache* cache_ = nullptr;  // nullable; owned_cache_ or shared
  int64_t cache_generation_ = 0;  // dispatcher-thread only
  std::mutex coalesce_mu_;
  std::unordered_map<ScoreKey, std::shared_ptr<CoalesceGroup>, ScoreKeyHash>
      inflight_;
  std::thread dispatcher_;
  std::thread writer_;  // only when mutations_ is set
  bool started_ = false;
  uint64_t batch_ordinal_ = 0;  // dispatcher-thread only; retry jitter key

  /// Counters live in atomics (written by the dispatcher and the writer,
  /// except the submission-side ones by producers) so Stats() is readable
  /// from any thread while serving.
  struct AtomicStats {
    std::atomic<int64_t> submitted{0}, rejected{0}, expired{0}, ok{0},
        degraded{0}, failed{0}, retries{0}, nonfinite{0}, batches{0},
        trips{0}, probes{0}, recoveries{0};
    std::atomic<int64_t> lane_admitted[kNumLanes] = {};
    std::atomic<int64_t> lane_rejected[kNumLanes] = {};
    std::atomic<int64_t> downgraded{0}, coalesced{0}, coalesced_expired{0},
        cache_hits{0}, cache_misses{0}, cache_flushes{0}, abstained{0};
    std::atomic<int64_t> mutations_submitted{0}, mutations_rejected{0},
        mutations_applied{0}, mutations_failed{0};
  };
  AtomicStats stats_;
};

}  // namespace ahntp::serve

#endif  // AHNTP_SERVE_SERVER_H_
