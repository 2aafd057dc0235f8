#ifndef AHNTP_SERVE_DYNAMIC_H_
#define AHNTP_SERVE_DYNAMIC_H_

#include <string>
#include <vector>

#include "core/dynamic_pipeline.h"
#include "serve/backend.h"
#include "serve/mutation.h"

namespace ahntp::serve {

/// A DynamicTrustPipeline (core/dynamic_pipeline.h) behind both serving
/// interfaces: reads score through the pipeline's predictor (compiled
/// inference plan, bit-identical to ModelBackend over the same weights),
/// and writes flow through ApplyMutation — the incremental delta cascade
/// that patches motif counts, influence, hypergroups, activation caches,
/// and plan rows instead of rebuilding.
///
/// generation() is the pipeline's *published* graph generation: every
/// applied delta advances it once its plan rows are patched, so the
/// server's generation-keyed score cache and coalescing map drop stale
/// scores as soon as a delta becomes visible. It is an atomic, so the
/// Submit fast path may probe it from any thread.
///
/// Threads: ApplyMutation runs on the server's writer thread while
/// ScoreBatch runs on the dispatcher. The cascade works on state scoring
/// never reads; only the short publish step (plan-row patch, then the
/// generation store) shares a mutex with ScoreBatch, so a read waits at
/// most for that patch, never for the cascade, and always scores one
/// published generation's rows.
///
/// Shares ModelBackend's fault sites — "serve.infer" (transient
/// Unavailable, the retry path) and "serve.nan" (poisons the first score,
/// the non-finite breaker path) — so the retry/breaker machinery is
/// exercised identically behind either backend. The apply path keeps its
/// own sites ("graph.delta.apply", "plan.delta.refresh"); a fault there
/// rolls the store back and the response carries the error while reads
/// keep serving the previous generation.
class DynamicBackend : public ScoreBackend, public MutationSink {
 public:
  /// `pipeline` must outlive the backend (and the server in front of it).
  explicit DynamicBackend(core::DynamicTrustPipeline* pipeline);

  Result<std::vector<float>> ScoreBatch(
      const std::vector<data::TrustPair>& pairs) override;

  std::string name() const override { return "dynamic"; }

  /// The pipeline's published generation (atomic; callable from any
  /// thread).
  int64_t generation() const override;

  Result<graph::DeltaReceipt> ApplyMutation(
      const graph::GraphDelta& delta) override;

  core::DynamicTrustPipeline& pipeline() { return *pipeline_; }

 private:
  core::DynamicTrustPipeline* pipeline_;
};

}  // namespace ahntp::serve

#endif  // AHNTP_SERVE_DYNAMIC_H_
