#include "serve/backend.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "nn/serialization.h"

namespace ahntp::serve {

ModelBackend::ModelBackend(Factory factory,
                           std::unique_ptr<models::TrustPredictor> initial,
                           std::optional<models::ShardedPlanOptions> sharded,
                           models::PlanPrecision precision)
    : factory_(std::move(factory)),
      sharded_(std::move(sharded)),
      precision_(precision),
      model_(std::move(initial)) {
  AHNTP_CHECK(factory_ != nullptr) << "ModelBackend needs a model factory";
  AHNTP_CHECK(model_ != nullptr) << "ModelBackend needs an initial model";
  model_->SetInferencePrecision(precision_);
  if (sharded_) model_->EnableShardedInference(*sharded_);
  // Warm before the first request: encoding all users dominates cold-start
  // latency, and the dispatcher thread should only ever pay the cached
  // scoring path (for a sharded plan, encode + spill happen here and live
  // requests only fault blocks).
  model_->WarmInferencePlan();
}

Result<std::vector<float>> ModelBackend::ScoreBatch(
    const std::vector<data::TrustPair>& pairs) {
  AHNTP_RETURN_IF_ERROR(
      fault::FaultPoint("serve.infer", StatusCode::kUnavailable));
  std::shared_ptr<models::TrustPredictor> model;
  {
    std::lock_guard<std::mutex> lock(mu_);
    model = model_;
  }
  trace::TraceSpan span("serve.infer");
  std::vector<float> probs = model->PredictProbabilities(pairs);
  if (fault::ShouldInject("serve.nan")) {
    probs[0] = std::nanf("");
  }
  return probs;
}

Status ModelBackend::Reload(const std::string& checkpoint_path) {
  trace::TraceSpan span("serve.reload");
  Status status = fault::FaultPoint("serve.reload", StatusCode::kIoError);
  if (status.ok()) {
    std::unique_ptr<models::TrustPredictor> staged = factory_();
    AHNTP_CHECK(staged != nullptr) << "model factory returned null";
    // LoadModule validates magic, parameter count, shapes, and the CRC32
    // footer; the staged instance absorbs any partial state, never the
    // live model. A successful load also invalidates the staged instance's
    // caches, so the plan warmed below encodes the *loaded* weights.
    status = nn::LoadModule(staged.get(), checkpoint_path);
    if (status.ok()) {
      // The staged generation inherits the plan options and the table
      // precision; its plan spills into a fresh per-plan subdirectory, so
      // the live model's blocks stay valid until the swap, and the old
      // model's plan removes its own directory when the last reference
      // to it goes.
      staged->SetInferencePrecision(precision_);
      if (sharded_) staged->EnableShardedInference(*sharded_);
      // Warm outside the lock: the expensive all-user encode runs against
      // the staged instance while the old model keeps serving; the swap
      // itself stays O(1).
      staged->WarmInferencePlan();
      std::lock_guard<std::mutex> lock(mu_);
      model_ = std::move(staged);
      ++generation_;
    }
  }
  if (status.ok()) {
    AHNTP_METRIC_COUNT("serve.reload_success", 1);
  } else {
    AHNTP_METRIC_COUNT("serve.reload_failures", 1);
  }
  return status;
}

int64_t ModelBackend::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

EnsembleBackend::EnsembleBackend(
    std::shared_ptr<models::SeedEnsemble> ensemble)
    : ensemble_(std::move(ensemble)) {
  AHNTP_CHECK(ensemble_ != nullptr) << "EnsembleBackend needs an ensemble";
}

Result<std::vector<float>> EnsembleBackend::ScoreBatch(
    const std::vector<data::TrustPair>& pairs) {
  AHNTP_RETURN_IF_ERROR(
      fault::FaultPoint("serve.infer", StatusCode::kUnavailable));
  trace::TraceSpan span("serve.infer");
  std::vector<float> probs = ensemble_->canonical().PredictProbabilities(pairs);
  if (fault::ShouldInject("serve.nan")) {
    probs[0] = std::nanf("");
  }
  return probs;
}

Result<BatchScores> EnsembleBackend::ScoreBatchWithConfidence(
    const std::vector<data::TrustPair>& pairs) {
  AHNTP_RETURN_IF_ERROR(
      fault::FaultPoint("serve.infer", StatusCode::kUnavailable));
  trace::TraceSpan span("serve.infer");
  models::SeedEnsemble::Scored scored = ensemble_->Score(pairs);
  if (fault::ShouldInject("serve.nan")) {
    scored.scores[0] = std::nanf("");
  }
  BatchScores out;
  out.scores = std::move(scored.scores);
  out.confidence = std::move(scored.confidence);
  return out;
}

HeuristicBackend::HeuristicBackend(const graph::Digraph* graph,
                                   models::Heuristic heuristic,
                                   const models::HeuristicOptions& options)
    : graph_(graph), heuristic_(heuristic), options_(options) {
  AHNTP_CHECK(graph_ != nullptr) << "HeuristicBackend needs a graph";
}

Result<std::vector<float>> HeuristicBackend::ScoreBatch(
    const std::vector<data::TrustPair>& pairs) {
  trace::TraceSpan span("serve.fallback");
  return models::HeuristicProbabilities(*graph_, heuristic_, pairs, options_);
}

std::string HeuristicBackend::name() const {
  return "heuristic:" + models::HeuristicName(heuristic_);
}

}  // namespace ahntp::serve
