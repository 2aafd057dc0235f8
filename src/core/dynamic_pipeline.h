#ifndef AHNTP_CORE_DYNAMIC_PIPELINE_H_
#define AHNTP_CORE_DYNAMIC_PIPELINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/ahntp_model.h"
#include "data/dataset.h"
#include "data/features.h"
#include "graph/delta.h"
#include "graph/dynamic_motifs.h"
#include "models/trust_predictor.h"
#include "tensor/workspace.h"

namespace ahntp::core {

/// Configuration of a DynamicTrustPipeline. The default constructor
/// tightens the power-iteration settings: a warm-started PageRank and a
/// cold one must land on the same fixed point to testing tolerance, which
/// a loose 1e-9 stop does not guarantee after many deltas.
struct DynamicPipelineOptions {
  DynamicPipelineOptions() {
    model.pagerank.tolerance = 1e-12;
    model.pagerank.max_iterations = 300;
  }

  AhntpConfig model;
  models::TrustPredictorConfig predictor;
  data::FeatureOptions features;
  graph::MutableGraphOptions store;
  /// Seed for model/predictor initialization. Weight draws depend only on
  /// layer dimensions — never on graph structure — so a rebuilt pipeline
  /// with the same seed reproduces the weights bit-for-bit.
  uint64_t seed = 2024;
};

/// What one ApplyDelta() did beyond the raw store receipt.
struct DeltaOutcome {
  graph::DeltaReceipt receipt;
  /// Users whose final embeddings were recomputed and patched into the
  /// inference plans (the k-hop dirty closure through the conv stack).
  std::vector<int> refreshed_users;
  /// Power iterations the warm-started influence refresh used, and the
  /// cold-start count measured at construction. iterations saved =
  /// cold - warm. Both 0 for rating-only deltas (influence untouched).
  int pagerank_iterations = 0;
  int pagerank_cold_iterations = 0;
  /// Whether the social hypergroup was re-derived (structural deltas only;
  /// influence is a global fixed point, so its top-K sets are rebuilt
  /// whole rather than patched).
  bool social_rebuilt = false;
};

/// The dynamic trust stack (DESIGN.md §17): a mutable graph store plus
/// every derived structure — motif counts, influence scores, hypergroups,
/// the encoder's activation caches, and the inference-plan embedding
/// tables — maintained *incrementally* under graph deltas. Every patched
/// value is bit-identical to what a full rebuild from the current snapshot
/// produces (RebuildFromScratch() is the equivalence oracle; the influence
/// vector alone is tolerance-equal, see below).
///
/// Per delta, the update cascade is:
///   store.Apply  ->  motif counts patched around touched edges
///                ->  influence re-solved warm-started from the previous
///                    vector (iterations-saved telemetry in the outcome)
///                ->  hypergroups: social rebuilt whole (global top-K),
///                    attribute untouched, pairwise/multi-hop patched via
///                    retained + changed fragments (hypergraph/dynamic.h)
///                ->  encoder re-embeds only the dirty closure
///                    (AhntpModel::RefreshIncremental)
///                ->  fp32/int8 plan tables patched row-wise; spilled
///                    shard blocks re-written only for dirty shards.
///
/// Fault site "plan.delta.refresh" fires right after the store commit; an
/// injected fault rolls the store back (RevertLast) and leaves every
/// derived structure untouched, so the pipeline stays consistent at the
/// previous generation.
///
/// Publication: everything up to the encoder refresh runs on state the
/// read path never touches (store, motifs, influence, hypergroups, the
/// model's activation caches). The delta becomes visible in one short
/// step under a publish mutex: the plan-row patch, then the store of the
/// *published* generation. generation() reports that published value, so
/// a reader that sees generation g scores rows of generation >= g — a new
/// generation is never paired with old rows. A rolled-back delta publishes
/// nothing.
///
/// Threads: one thread at a time may call ApplyDelta (the server's writer).
/// PredictProbabilities and generation() are safe from any thread,
/// concurrently with ApplyDelta, once the predictor's plan is built
/// (WarmInferencePlan; serve::DynamicBackend does it at construction).
/// Every other accessor — predictor(), model(), store(), the hypergroups,
/// RebuildFromScratch — reads state the cascade writes, so it must not
/// overlap an ApplyDelta.
class DynamicTrustPipeline {
 public:
  /// Builds the full stack from `dataset` and primes the encoder's
  /// activation caches (one full inference pass — the cold baseline).
  static Result<DynamicTrustPipeline> Create(
      const data::SocialDataset& dataset,
      DynamicPipelineOptions options = DynamicPipelineOptions());

  DynamicTrustPipeline(DynamicTrustPipeline&&) = default;
  DynamicTrustPipeline& operator=(DynamicTrustPipeline&&) = default;

  /// Applies one delta through the whole cascade. On error (validation or
  /// an injected fault) the pipeline is unchanged, previous generation
  /// included.
  Result<DeltaOutcome> ApplyDelta(const graph::GraphDelta& delta);

  /// Builds a fresh pipeline from the current snapshot — the equivalence
  /// oracle for the incremental path. The incrementally maintained
  /// influence vector is handed to the rebuild verbatim
  /// (AhntpConfig::influence_override), so everything downstream of
  /// influence compares bitwise; the vector itself is validated separately
  /// against a cold solve at testing tolerance (tests/dynamic_test.cc).
  Result<DynamicTrustPipeline> RebuildFromScratch() const;

  /// Scores `pairs` through the predictor's plan under the publish mutex,
  /// so the batch sees one published generation's rows. The read path of
  /// serve::DynamicBackend.
  std::vector<float> PredictProbabilities(
      const std::vector<data::TrustPair>& pairs);

  /// The published generation — the serving cache key. It advances after
  /// the plan rows of a delta are patched (the store's own counter moves
  /// earlier, at store apply). Safe from any thread.
  int64_t generation() const {
    return published_->generation.load(std::memory_order_acquire);
  }

  models::TrustPredictor& predictor() { return *predictor_; }
  const models::TrustPredictor& predictor() const { return *predictor_; }
  AhntpModel& model() { return *model_; }
  const AhntpModel& model() const { return *model_; }
  const graph::MutableTrustGraph& store() const { return *store_; }
  const data::SocialDataset& dataset() const { return dataset_; }
  const tensor::Matrix& features() const { return features_; }
  const std::vector<double>& influence() const { return influence_; }
  /// Incrementally maintained motif counts (null when use_mpr is off).
  const graph::MotifCounts* motif_counts() const {
    return motifs_ ? &*motifs_ : nullptr;
  }
  int cold_pagerank_iterations() const { return cold_pr_iterations_; }

  /// The per-hypergroup states the incremental updates maintain.
  const hypergraph::Hypergraph& social_hypergroup() const { return social_; }
  const hypergraph::Hypergraph& attribute_hypergroup() const {
    return attribute_;
  }
  const hypergraph::Hypergraph& pairwise_hypergroup() const {
    return pairwise_;
  }
  const hypergraph::Hypergraph& multihop_hypergroup() const {
    return multihop_;
  }

 private:
  /// What readers synchronize on; boxed so the pipeline stays movable.
  struct Published {
    std::mutex mu;
    std::atomic<int64_t> generation{0};
  };

  DynamicTrustPipeline() = default;

  /// The publish step: patches `rows` into the plan and then advances the
  /// published generation to the store's, both under the publish mutex.
  Status Publish(const std::vector<int>& users, const tensor::Matrix& rows);

  DynamicPipelineOptions options_;
  data::SocialDataset dataset_;
  std::optional<graph::MutableTrustGraph> store_;
  tensor::Matrix features_;
  std::optional<graph::MotifCounts> motifs_;
  std::vector<double> influence_;
  int cold_pr_iterations_ = 0;

  hypergraph::Hypergraph social_{0};
  hypergraph::Hypergraph attribute_{0};
  hypergraph::Hypergraph pairwise_{0};
  hypergraph::Hypergraph multihop_{0};
  hypergraph::MultiHopOptions hop_options_;
  std::vector<int64_t> node_keys_;      // social || attribute, static
  std::vector<int64_t> pairwise_keys_;  // tracks the live edge set
  std::vector<int64_t> multihop_keys_;  // static

  std::unique_ptr<Rng> rng_;  // stable address: the model keeps a pointer
  std::shared_ptr<AhntpModel> model_;
  std::unique_ptr<models::TrustPredictor> predictor_;
  std::unique_ptr<tensor::Workspace> ws_;
  std::unique_ptr<Published> published_;
};

}  // namespace ahntp::core

#endif  // AHNTP_CORE_DYNAMIC_PIPELINE_H_
