#include "models/trust_predictor.h"

#include "common/check.h"
#include "models/inference_plan.h"

namespace ahntp::models {

using autograd::Variable;

TrustPredictor::TrustPredictor(std::shared_ptr<Encoder> encoder,
                               const TrustPredictorConfig& config, Rng* rng)
    : encoder_(std::move(encoder)) {
  AHNTP_CHECK(encoder_ != nullptr && rng != nullptr);
  std::vector<size_t> dims;
  dims.push_back(encoder_->embedding_dim());
  dims.insert(dims.end(), config.tower_dims.begin(), config.tower_dims.end());
  AHNTP_CHECK_GE(dims.size(), 2u) << "tower needs at least one layer";
  tower_src_ = std::make_unique<nn::Mlp>(dims, rng, nn::Activation::kRelu,
                                         nn::Activation::kNone,
                                         config.dropout);
  tower_dst_ = std::make_unique<nn::Mlp>(dims, rng, nn::Activation::kRelu,
                                         nn::Activation::kNone,
                                         config.dropout);
  plan_ = std::make_unique<InferencePlan>(this);
}

TrustPredictor::~TrustPredictor() = default;

TrustPredictor::PairOutput TrustPredictor::Forward(
    const std::vector<data::TrustPair>& pairs) {
  AHNTP_CHECK(!pairs.empty());
  // A training forward precedes a parameter update, so any cached
  // embeddings are about to go stale. (SetTraining now recurses through
  // Submodules(), so the per-call flag pushes are gone.)
  if (training_) plan_->Invalidate();
  Variable embeddings = encoder_->EncodeUsers();
  std::vector<int> src_idx;
  std::vector<int> dst_idx;
  src_idx.reserve(pairs.size());
  dst_idx.reserve(pairs.size());
  for (const data::TrustPair& p : pairs) {
    src_idx.push_back(p.src);
    dst_idx.push_back(p.dst);
  }
  Variable t_src =
      tower_src_->Forward(autograd::GatherRows(embeddings, src_idx));
  Variable t_dst =
      tower_dst_->Forward(autograd::GatherRows(embeddings, dst_idx));
  PairOutput out;
  out.cosine = autograd::PairwiseCosine(t_src, t_dst);
  // p = (1 + cos) / 2, the fixed rescaling discussed in the class comment.
  out.probability =
      autograd::AddScalar(autograd::Scale(out.cosine, 0.5f), 0.5f);
  out.embeddings = embeddings;
  return out;
}

std::vector<float> TrustPredictor::PredictProbabilities(
    const std::vector<data::TrustPair>& pairs) {
  // No training flag is read or written: the plan encodes under
  // autograd::InferenceMode and scores through the tape-free chain, while a
  // delta cascade may be refreshing the module tree on another thread
  // (core/dynamic_pipeline.h). Spill-file I/O errors are environment
  // failures, not model state; fail loudly rather than serve from a
  // half-resident store.
  auto probs = plan_->Score(pairs);
  AHNTP_CHECK_OK(probs.status());
  return std::move(probs).value();
}

std::vector<float> TrustPredictor::PredictProbabilitiesWithInputDropout(
    const std::vector<data::TrustPair>& pairs, float rate, uint64_t seed) {
  auto probs = plan_->ScoreWithInputDropout(pairs, rate, seed);
  AHNTP_CHECK_OK(probs.status());
  return std::move(probs).value();
}

void TrustPredictor::WarmInferencePlan() {
  AHNTP_CHECK_OK(plan_->EnsureBuilt());
}

void TrustPredictor::EnableShardedInference(const ShardedPlanOptions& options) {
  const PlanPrecision precision = plan_->precision();
  plan_.reset();  // the old plan removes its spill directory first
  plan_ = std::make_unique<InferencePlan>(this, options);
  plan_->SetPrecision(precision);
}

void TrustPredictor::DisableShardedInference() {
  EnableShardedInference(ShardedPlanOptions{});
}

void TrustPredictor::SetInferencePrecision(PlanPrecision precision) {
  plan_->SetPrecision(precision);
}

PlanPrecision TrustPredictor::inference_precision() const {
  return plan_->precision();
}

Status TrustPredictor::RefreshPlanRows(const std::vector<int>& users,
                                       const tensor::Matrix& rows) {
  return plan_->RefreshRows(users, rows);
}

void TrustPredictor::InvalidateCaches() {
  nn::Module::InvalidateCaches();
  plan_->Invalidate();
}

std::vector<Variable> TrustPredictor::Parameters() const {
  std::vector<Variable> params = encoder_->Parameters();
  for (auto& p : tower_src_->Parameters()) params.push_back(p);
  for (auto& p : tower_dst_->Parameters()) params.push_back(p);
  return params;
}

std::vector<nn::Module*> TrustPredictor::Submodules() {
  return {encoder_.get(), tower_src_.get(), tower_dst_.get()};
}

}  // namespace ahntp::models
