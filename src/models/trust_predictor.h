#ifndef AHNTP_MODELS_TRUST_PREDICTOR_H_
#define AHNTP_MODELS_TRUST_PREDICTOR_H_

#include <memory>

#include "common/status.h"
#include "data/split.h"
#include "models/encoder.h"
#include "nn/mlp.h"

namespace ahntp::models {

class InferencePlan;
struct ShardedPlanOptions;
enum class PlanPrecision;  // models/inference_plan.h

/// Configuration of the pairwise head shared by all models.
struct TrustPredictorConfig {
  /// Tower widths appended after the encoder output (Eqs. 17-18); the last
  /// width is the similarity space dimension.
  std::vector<size_t> tower_dims = {32};
  float dropout = 0.0f;
};

/// Encoder + pairwise deep network + cosine head (Eqs. 17-19).
///
/// Trustor and trustee pass through separate MLP towers (W_a / W_b in the
/// paper), then cosine similarity scores the pair. The paper reads the
/// cosine as a probability in [0, 1]; cosine lives in [-1, 1], so the
/// probability head maps p = (1 + cos) / 2 — a fixed monotone rescaling that
/// preserves the paper's ranking semantics (documented in DESIGN.md). The
/// raw cosine feeds the contrastive loss (Eq. 20).
class TrustPredictor : public nn::Module {
 public:
  TrustPredictor(std::shared_ptr<Encoder> encoder,
                 const TrustPredictorConfig& config, Rng* rng);
  ~TrustPredictor() override;

  /// Outputs for a batch of user pairs.
  struct PairOutput {
    autograd::Variable cosine;      // (batch x 1) in [-1, 1]
    autograd::Variable probability;  // (batch x 1) in [0, 1]
    autograd::Variable embeddings;   // (n x d) encoder output, shared tape
  };

  /// Encodes all users and scores the given pairs. Respects training().
  PairOutput Forward(const std::vector<data::TrustPair>& pairs);

  /// Inference helper: probabilities for pairs. Routes through the compiled
  /// InferencePlan (tape-free, cached embeddings, workspace arena); results
  /// are bit-identical to Forward() in eval mode at any thread count,
  /// whatever the training flag says. Reads and writes no training flag.
  std::vector<float> PredictProbabilities(
      const std::vector<data::TrustPair>& pairs);

  /// PredictProbabilities with deterministic MC-dropout on the gathered
  /// embedding rows (InferencePlan::ScoreWithInputDropout) — one stochastic
  /// forward sample of the uncertainty ensemble (models/uncertainty.h).
  /// Masks are keyed on (seed, user, tower side, element), so a pair's
  /// perturbed score is independent of batch composition, thread count,
  /// and shard count. `rate` in (0, 1) (CHECK).
  std::vector<float> PredictProbabilitiesWithInputDropout(
      const std::vector<data::TrustPair>& pairs, float rate, uint64_t seed);

  /// Builds the inference plan eagerly (encodes all users, and spills the
  /// blocks of a sharded plan) so the first PredictProbabilities call is
  /// cheap. serve::ModelBackend calls this before publishing a predictor.
  void WarmInferencePlan();

  /// Rebuilds the inference plan with `options` (models/inference_plan.h):
  /// per-shard embedding blocks on disk, at most max_resident_shards of
  /// them in RAM, bit-identical scores to the all-in-RAM plan. The old
  /// plan and its spill directory go; the precision carries over. The new
  /// plan encodes lazily. Invalid options (num_shards < 1,
  /// max_resident_shards < 1, num_shards > 1 without spill_dir) abort via
  /// CHECK.
  void EnableShardedInference(const ShardedPlanOptions& options);

  /// Rebuilds the inference plan with default options: one resident block.
  void DisableShardedInference();

  /// Selects the embedding-table precision of the inference plan (kept
  /// across EnableShardedInference / DisableShardedInference). kInt8 stores
  /// the table quantized (4x smaller, tolerance-equal scores); kFloat32 is
  /// the bit-exact default. A change invalidates the plan.
  void SetInferencePrecision(models::PlanPrecision precision);
  models::PlanPrecision inference_precision() const;

  /// Delta-invalidation (DESIGN.md §17): patches only the given users'
  /// embedding rows in the inference plan WITHOUT invalidating it — the
  /// clean rows of the cached table keep serving. `users`
  /// ascending/deduplicated, `rows` their new (|users| x d) embeddings. A
  /// plan that is not built is left alone; it encodes the post-delta model
  /// from scratch on first use.
  Status RefreshPlanRows(const std::vector<int>& users,
                         const tensor::Matrix& rows);

  /// Drops the cached embeddings/plan in addition to the recursive module
  /// default. Called after parameter loads and restores.
  void InvalidateCaches() override;

  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

  Encoder& encoder() { return *encoder_; }
  const Encoder& encoder() const { return *encoder_; }
  const nn::Mlp& tower_src() const { return *tower_src_; }
  const nn::Mlp& tower_dst() const { return *tower_dst_; }
  /// The compiled plan (never null); for tests and diagnostics.
  const InferencePlan* inference_plan() const { return plan_.get(); }

 private:
  std::shared_ptr<Encoder> encoder_;
  std::unique_ptr<nn::Mlp> tower_src_;
  std::unique_ptr<nn::Mlp> tower_dst_;
  std::unique_ptr<InferencePlan> plan_;
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_TRUST_PREDICTOR_H_
