#ifndef AHNTP_SERVE_BACKEND_H_
#define AHNTP_SERVE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/split.h"
#include "graph/digraph.h"
#include "models/heuristics.h"
#include "models/inference_plan.h"
#include "models/trust_predictor.h"
#include "models/uncertainty.h"

namespace ahntp::serve {

/// Scores plus the backend's per-pair confidence in them (DESIGN.md §16).
/// `confidence` is parallel to `scores`, each value in (0, 1]; backends
/// without an uncertainty signal report a constant 1.0.
struct BatchScores {
  std::vector<float> scores;
  std::vector<float> confidence;
};

/// A batch scorer behind the serving loop. Implementations must tolerate
/// concurrent control-plane calls (e.g. ModelBackend::Reload, or a
/// MutationSink apply on the server's writer thread) against a single
/// scoring thread, but ScoreBatch itself is only ever invoked from the
/// server's dispatcher thread.
class ScoreBackend {
 public:
  virtual ~ScoreBackend() = default;

  /// Scores each (src, dst) pair in [0, 1]. A non-OK result is treated by
  /// the server as a failure of the whole batch (retryable when transient).
  virtual Result<std::vector<float>> ScoreBatch(
      const std::vector<data::TrustPair>& pairs) = 0;

  /// ScoreBatch plus a per-pair confidence channel. The server's primary
  /// path always calls this; the default wraps ScoreBatch with constant
  /// confidence 1.0, so plain backends never abstain and behave exactly as
  /// before the uncertainty subsystem existed. Override alongside
  /// ScoreBatch when the backend has a real signal (EnsembleBackend).
  virtual Result<BatchScores> ScoreBatchWithConfidence(
      const std::vector<data::TrustPair>& pairs) {
    auto scores = ScoreBatch(pairs);
    AHNTP_RETURN_IF_ERROR(scores.status());
    BatchScores out;
    out.confidence.assign(scores.value().size(), 1.0f);
    out.scores = std::move(scores).value();
    return out;
  }

  virtual std::string name() const = 0;

  /// Monotonic model generation: bumps whenever the scores this backend
  /// would produce may have changed (hot reload, training, sharded-plan
  /// rebuild). The serving layer keys its score cache and request
  /// coalescing on it, so a bump makes every cached/in-flight score from
  /// the previous generation unreachable. Backends with immutable scores
  /// (e.g. HeuristicBackend) keep the default constant 0.
  virtual int64_t generation() const { return 0; }
};

/// The primary backend: a TrustPredictor behind an atomically swappable
/// slot, with checkpoint hot-reload.
///
/// Reload() stages a *fresh* model instance (built by the factory, so the
/// live model is never touched), loads the checkpoint into it — the v2
/// loader validates magic, shapes, and the CRC32 footer — and only then
/// swaps it in under the slot mutex. Any load failure (corrupt file,
/// shape mismatch, injected fault at site "serve.reload") leaves the old
/// model serving and increments the `serve.reload_failures` counter.
/// In-flight batches hold a shared_ptr snapshot, so a swap never pulls the
/// model out from under them.
///
/// Scoring goes through the predictor's compiled InferencePlan: the
/// all-user embedding table is encoded once per model generation (warmed at
/// construction and during reload staging, before the swap) and every batch
/// reuses it through a per-predictor workspace arena, so the steady-state
/// scoring loop never touches the heap. A reload publishes a fresh
/// predictor whose caches were invalidated by the checkpoint load and
/// re-warmed from the loaded weights — stale embeddings can never serve.
///
/// Fault sites: "serve.infer" (transient Unavailable before scoring, the
/// retry path), "serve.nan" (poisons the first score with a NaN, the
/// non-finite breaker path), "serve.reload" (I/O failure during reload).
class ModelBackend : public ScoreBackend {
 public:
  using Factory = std::function<std::unique_ptr<models::TrustPredictor>()>;

  /// `factory` builds architecture-identical instances for reload staging;
  /// `initial` is the model served until the first successful Reload().
  /// When `sharded` is set, the initial model and every staged reload build
  /// their inference plan with those options (models/inference_plan.h):
  /// embeddings live in per-shard disk blocks, at most
  /// max_resident_shards of them in RAM, and a score batch fetches only
  /// the blocks of its (src, dst) users — scores stay bit-identical to
  /// the all-in-RAM plan. A generation's spill directory goes with its
  /// model, so reloads leave one directory behind, not one per reload.
  /// `precision` selects the embedding-table format for the initial model
  /// and every staged reload (kInt8 = quantized tables, 4x smaller,
  /// tolerance-equal scores; see models::PlanPrecision).
  ModelBackend(Factory factory, std::unique_ptr<models::TrustPredictor> initial,
               std::optional<models::ShardedPlanOptions> sharded = std::nullopt,
               models::PlanPrecision precision = models::PlanPrecision::kFloat32);

  Result<std::vector<float>> ScoreBatch(
      const std::vector<data::TrustPair>& pairs) override;

  std::string name() const override { return "model"; }

  /// Stage-validate-swap hot reload from a v2 checkpoint. On any failure
  /// the previous model keeps serving. Callable from any thread.
  Status Reload(const std::string& checkpoint_path);

  /// Number of successful reloads since construction; unchanged by failed
  /// ones (the hot-reload regression tests key on this).
  int64_t generation() const override;

 private:
  Factory factory_;
  std::optional<models::ShardedPlanOptions> sharded_;
  models::PlanPrecision precision_;
  mutable std::mutex mu_;
  std::shared_ptr<models::TrustPredictor> model_;
  int64_t generation_ = 0;
};

/// The degraded-mode fallback: a non-learned heuristic over the training
/// trust graph (models/heuristics.h). Orders of magnitude cheaper than
/// the model, never fails, and stays available when checkpoints are
/// corrupt or the model keeps erroring — stale-but-sane answers.
class HeuristicBackend : public ScoreBackend {
 public:
  /// `graph` must outlive the backend.
  HeuristicBackend(const graph::Digraph* graph, models::Heuristic heuristic,
                   const models::HeuristicOptions& options = {});

  Result<std::vector<float>> ScoreBatch(
      const std::vector<data::TrustPair>& pairs) override;

  std::string name() const override;

 private:
  const graph::Digraph* graph_;
  models::Heuristic heuristic_;
  models::HeuristicOptions options_;
};

/// A SeedEnsemble (models/uncertainty.h) behind the ScoreBackend interface:
/// scores come from the canonical member — bit-identical to serving that
/// member through a ModelBackend — and ScoreBatchWithConfidence adds the
/// ensemble-disagreement confidence channel that drives the server's
/// abstain policy (ServeOptions::min_confidence).
///
/// Shares ModelBackend's "serve.infer" / "serve.nan" fault sites so the
/// retry and breaker machinery is exercised identically behind either
/// backend. Members are fixed at construction (no hot reload), so the
/// generation stays the ScoreBackend default of 0.
class EnsembleBackend : public ScoreBackend {
 public:
  /// `ensemble` must be non-null; co-owned so benches and demos can keep
  /// scoring through the same ensemble directly.
  explicit EnsembleBackend(std::shared_ptr<models::SeedEnsemble> ensemble);

  Result<std::vector<float>> ScoreBatch(
      const std::vector<data::TrustPair>& pairs) override;

  Result<BatchScores> ScoreBatchWithConfidence(
      const std::vector<data::TrustPair>& pairs) override;

  std::string name() const override { return "ensemble"; }

  models::SeedEnsemble& ensemble() { return *ensemble_; }

 private:
  std::shared_ptr<models::SeedEnsemble> ensemble_;
};

}  // namespace ahntp::serve

#endif  // AHNTP_SERVE_BACKEND_H_
