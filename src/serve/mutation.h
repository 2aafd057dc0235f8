#ifndef AHNTP_SERVE_MUTATION_H_
#define AHNTP_SERVE_MUTATION_H_

#include <cstdint>

#include "common/status.h"
#include "graph/delta.h"

namespace ahntp::serve {

/// The terminal answer every submitted mutation eventually receives.
struct MutationResponse {
  /// Ok, or why the delta was not applied: ResourceExhausted (queue full),
  /// FailedPrecondition (no mutation sink configured / server shut down),
  /// or whatever the sink's apply cascade returned (e.g. an injected fault
  /// at "graph.delta.apply" or "plan.delta.refresh" — the store rolls back
  /// and the previous generation keeps serving).
  Status status;
  /// What the apply actually did (applied edge lists, ignored counts, the
  /// new generation). Default-constructed on failure.
  graph::DeltaReceipt receipt;
  /// The backend generation this mutation published; reads submitted after
  /// the response resolves see at least this generation (read-your-writes
  /// is waiting on this future). 0 on failure.
  int64_t generation = 0;
  /// Submit-to-published wall time (write-queue wait + apply cascade).
  double latency_ms = 0.0;
};

/// The write side of a servable backend: applies one graph delta through
/// whatever incremental maintenance the backend keeps (see DynamicBackend).
/// Called from the server's single writer thread — never concurrently with
/// itself, but concurrently with ScoreBatch on the dispatcher. An
/// implementation must therefore make a delta visible to reads atomically:
/// a read scores either wholly before or wholly after it, and generation()
/// must never pair a new generation with old scores.
class MutationSink {
 public:
  virtual ~MutationSink() = default;

  /// Applies `delta` and publishes it; on success the receipt reports the
  /// real membership changes and the new generation. On failure the sink
  /// must publish nothing (reads keep the previous generation and scores)
  /// so cached scores stay sound.
  virtual Result<graph::DeltaReceipt> ApplyMutation(
      const graph::GraphDelta& delta) = 0;
};

}  // namespace ahntp::serve

#endif  // AHNTP_SERVE_MUTATION_H_
