#include "core/dynamic_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "hypergraph/builders.h"
#include "hypergraph/dynamic.h"

namespace ahntp::core {

using hypergraph::Hypergraph;

Result<DynamicTrustPipeline> DynamicTrustPipeline::Create(
    const data::SocialDataset& dataset, DynamicPipelineOptions options) {
  trace::TraceSpan span("dynamic.create");
  DynamicTrustPipeline p;
  p.options_ = options;
  p.dataset_ = dataset;
  if (p.options_.store.num_items == 0) {
    p.options_.store.num_items = static_cast<size_t>(dataset.num_items);
  }

  auto store = graph::MutableTrustGraph::Create(
      static_cast<size_t>(dataset.num_users), dataset.trust_edges,
      p.options_.store);
  AHNTP_RETURN_IF_ERROR(store.status());
  p.store_.emplace(std::move(store).value());
  const graph::Digraph& view = p.store_->View();

  p.features_ = data::BuildFeatureMatrix(p.dataset_, p.options_.features);

  // Influence: cold solve (or the override handed over by a rebuild). The
  // motif counter is kept either way so later deltas patch instead of
  // re-enumerating.
  const AhntpConfig& mc = p.options_.model;
  if (mc.use_mpr) {
    p.motifs_.emplace(view, mc.motif);
  }
  if (!mc.influence_override.empty()) {
    AHNTP_CHECK_EQ(mc.influence_override.size(), view.num_nodes());
    p.influence_ = mc.influence_override;
  } else {
    graph::PageRankStats stats;
    if (mc.use_mpr) {
      graph::MotifPageRankOptions mpr;
      mpr.alpha = mc.mpr_alpha;
      mpr.motif = mc.motif;
      mpr.pagerank = mc.pagerank;
      p.influence_ = graph::MotifPageRankFrom(view.Adjacency(),
                                              p.motifs_->ToCsr(), mpr,
                                              /*warm_start=*/nullptr, &stats)
                         .scores;
    } else {
      p.influence_ = graph::PageRankWarm(view.Adjacency(), mc.pagerank,
                                         /*warm_start=*/nullptr, &stats);
    }
    p.cold_pr_iterations_ = stats.iterations;
  }

  // Hypergroup states + identity keys.
  const size_t n = view.num_nodes();
  p.social_ =
      hypergraph::BuildSocialInfluenceHypergroup(view, p.influence_,
                                                 mc.social_top_k);
  p.attribute_ = hypergraph::BuildAttributeHypergroup(
      n, p.dataset_.attributes, mc.attribute_min_size);
  p.pairwise_ = hypergraph::BuildPairwiseHypergroup(view);
  p.hop_options_.num_hops = mc.multi_hop;
  p.hop_options_.max_edge_size = mc.multi_hop_max_edge_size;
  p.multihop_ = hypergraph::BuildMultiHopHypergroup(view, p.hop_options_);
  p.node_keys_ = hypergraph::ConcatKeys(
      hypergraph::SocialEdgeKeys(n),
      hypergraph::AttributeEdgeKeys(n, p.dataset_.attributes,
                                    mc.attribute_min_size));
  p.pairwise_keys_ = hypergraph::PairwiseEdgeKeys(p.pairwise_, view);
  p.multihop_keys_ = hypergraph::MultiHopEdgeKeys(n, p.hop_options_);

  // Model + predictor. The influence override keeps the model from
  // re-solving (M)PR — it consumes the pipeline's vector.
  p.rng_ = std::make_unique<Rng>(p.options_.seed);
  AhntpConfig model_config = mc;
  model_config.influence_override = p.influence_;
  models::ModelInputs inputs;
  inputs.features = &p.features_;
  inputs.graph = &view;
  inputs.dataset = &p.dataset_;
  inputs.rng = p.rng_.get();
  p.model_ = std::make_shared<AhntpModel>(inputs, model_config);
  p.predictor_ = std::make_unique<models::TrustPredictor>(
      p.model_, p.options_.predictor, p.rng_.get());

  // Prime the activation caches — the full pass incremental refreshes are
  // measured against.
  p.model_->InferUsersCached();
  p.ws_ = std::make_unique<tensor::Workspace>();
  p.published_ = std::make_unique<Published>();
  p.published_->generation.store(p.store_->generation(),
                                 std::memory_order_release);
  return p;
}

std::vector<float> DynamicTrustPipeline::PredictProbabilities(
    const std::vector<data::TrustPair>& pairs) {
  std::lock_guard<std::mutex> lock(published_->mu);
  return predictor_->PredictProbabilities(pairs);
}

Status DynamicTrustPipeline::Publish(const std::vector<int>& users,
                                     const tensor::Matrix& rows) {
  std::lock_guard<std::mutex> lock(published_->mu);
  // Published even when the patch fails part-way: the rows may already
  // have moved, and the new generation makes the serving caches drop
  // every score of the old one.
  Status patched = predictor_->RefreshPlanRows(users, rows);
  published_->generation.store(store_->generation(),
                               std::memory_order_release);
  return patched;
}

Result<DeltaOutcome> DynamicTrustPipeline::ApplyDelta(
    const graph::GraphDelta& delta) {
  trace::TraceSpan span("dynamic.apply");
  AHNTP_METRIC_COUNT("dynamic.apply.calls", 1);

  // Snapshot the pre-delta view before Apply() invalidates it — the
  // multi-hop ball diff needs adjacency on both sides of the delta. Only
  // deltas carrying edge operations can be structural.
  graph::Digraph old_view(0);
  if (!delta.add_edges.empty() || !delta.remove_edges.empty()) {
    old_view = store_->View();
  }

  auto applied = store_->Apply(delta);
  AHNTP_RETURN_IF_ERROR(applied.status());
  DeltaOutcome outcome;
  outcome.receipt = std::move(applied).value();
  const graph::DeltaReceipt& receipt = outcome.receipt;

  // The downstream-refresh fault site. Everything derived is still
  // untouched here, so rolling the store back restores the exact previous
  // pipeline state, generation included.
  Status fault =
      fault::FaultPoint("plan.delta.refresh", StatusCode::kInternal);
  if (!fault.ok()) {
    Status revert = store_->RevertLast();
    AHNTP_CHECK(revert.ok()) << revert.ToString();
    return fault;
  }

  const bool structural = receipt.structural_change();
  const graph::Digraph& new_view = store_->View();

  // Dataset bookkeeping: the edge list mirrors the canonical store state;
  // per-edge timestamps cannot be maintained under mutation and are
  // dropped on the first structural delta.
  if (structural) {
    dataset_.trust_edges = store_->CanonicalEdges();
    dataset_.trust_edge_times.clear();
  }
  for (const graph::RatingDelta& r : delta.add_ratings) {
    dataset_.purchases.push_back(
        data::Purchase{r.user, r.item, r.rating});
  }

  // Per-stage latency telemetry (seconds): where an apply actually spends
  // its time — analytics (motifs + influence), hypergroup maintenance,
  // branch diffing, the encoder refresh, and the plan-table patch.
  Stopwatch stage_watch;
  auto observe_stage = [&stage_watch](const char* name) {
    if (metrics::Enabled()) {
      metrics::GetHistogram(name).Observe(stage_watch.ElapsedSeconds());
    }
    stage_watch.Restart();
  };

  Hypergraph new_social(0);
  Hypergraph new_pairwise(0);
  Hypergraph new_multihop(0);
  std::vector<int64_t> new_pairwise_keys;
  if (structural) {
    // Motif counts: replay the applied changes (removes before adds, the
    // store's commit order).
    if (motifs_) {
      for (const graph::Edge& e : receipt.applied_removes) {
        motifs_->RemoveEdge(e.src, e.dst);
      }
      for (const graph::Edge& e : receipt.applied_adds) {
        motifs_->AddEdge(e.src, e.dst);
      }
    }

    // Influence: warm-started from the previous vector.
    const AhntpConfig& mc = options_.model;
    graph::PageRankStats stats;
    if (mc.use_mpr) {
      graph::MotifPageRankOptions mpr;
      mpr.alpha = mc.mpr_alpha;
      mpr.motif = mc.motif;
      mpr.pagerank = mc.pagerank;
      influence_ = graph::MotifPageRankFrom(new_view.Adjacency(),
                                            motifs_->ToCsr(), mpr,
                                            &influence_, &stats)
                       .scores;
    } else {
      influence_ = graph::PageRankWarm(new_view.Adjacency(), mc.pagerank,
                                       &influence_, &stats);
    }
    outcome.pagerank_iterations = stats.iterations;
    outcome.pagerank_cold_iterations = cold_pr_iterations_;
    AHNTP_METRIC_COUNT(
        "dynamic.pagerank.iterations_saved",
        static_cast<size_t>(std::max(0, cold_pr_iterations_ -
                                            stats.iterations)));
    observe_stage("dynamic.apply.analytics_seconds");

    // Hypergroups: social whole (global top-K), pairwise/multi-hop
    // incrementally, attribute never.
    new_social = hypergraph::BuildSocialInfluenceHypergroup(
        new_view, influence_, mc.social_top_k);
    outcome.social_rebuilt = true;
    new_pairwise = hypergraph::UpdatePairwiseHypergroup(
        pairwise_, new_view, receipt.applied_adds, receipt.applied_removes);
    new_pairwise_keys = hypergraph::PairwiseEdgeKeys(new_pairwise, new_view);
    new_multihop = hypergraph::UpdateMultiHopHypergroup(
        multihop_, old_view, new_view, hop_options_,
        receipt.touched_vertices);
    observe_stage("dynamic.apply.hypergroups_seconds");
  }

  // Feature rows: purchases feed the behavior/histogram columns, so only
  // rating-touched users can change (attributes are static; trust edges
  // are deliberately not encoded as features).
  std::vector<int> dirty_feature_rows;
  tensor::Matrix new_feature_rows;
  if (receipt.rating_rows > 0 && (options_.features.include_behavior ||
                                  options_.features.include_category_histogram)) {
    features_ = data::BuildFeatureMatrix(dataset_, options_.features);
    dirty_feature_rows = receipt.touched_rating_users;
    new_feature_rows =
        tensor::Matrix(dirty_feature_rows.size(), features_.cols());
    tensor::GatherRowsInto(&new_feature_rows, features_, dirty_feature_rows);
  }

  if (!structural && dirty_feature_rows.empty()) {
    // Nothing derived changed (all-ignored or attribute-only-features
    // rating delta); publishing the generation bump alone flushes serving
    // caches.
    AHNTP_RETURN_IF_ERROR(Publish({}, tensor::Matrix()));
    return outcome;
  }

  // Branch diffs + model refresh.
  AhntpModel::BranchUpdate node_update;
  AhntpModel::BranchUpdate structure_update;
  if (structural) {
    node_update.hypergraph = Hypergraph::Concat(new_social, attribute_);
    node_update.diff = hypergraph::DiffBranch(
        model_->node_hypergraph(), node_keys_, node_update.hypergraph,
        node_keys_);
    node_update.edge_sources.assign(new_social.num_edges(),
                                    "social-influence");
    node_update.edge_sources.insert(node_update.edge_sources.end(),
                                    attribute_.num_edges(), "attribute");

    structure_update.hypergraph = Hypergraph::Concat(new_pairwise,
                                                     new_multihop);
    structure_update.diff = hypergraph::DiffBranch(
        model_->structure_hypergraph(),
        hypergraph::ConcatKeys(pairwise_keys_, multihop_keys_),
        structure_update.hypergraph,
        hypergraph::ConcatKeys(new_pairwise_keys, multihop_keys_));
    structure_update.edge_sources.assign(new_pairwise.num_edges(),
                                         "pairwise");
    structure_update.edge_sources.insert(structure_update.edge_sources.end(),
                                         new_multihop.num_edges(),
                                         "multi-hop");
    observe_stage("dynamic.apply.diff_seconds");
  }

  ws_->Reset();
  AhntpModel::RefreshResult refresh = model_->RefreshIncremental(
      std::move(node_update), std::move(structure_update),
      dirty_feature_rows, new_feature_rows, influence_, ws_.get());
  ws_->Reset();
  observe_stage("dynamic.apply.refresh_seconds");

  if (structural) {
    social_ = std::move(new_social);
    pairwise_ = std::move(new_pairwise);
    pairwise_keys_ = std::move(new_pairwise_keys);
    multihop_ = std::move(new_multihop);
  }

  // Plan tables: patch only the dirty rows (fp32 memcpy / int8 per-row
  // requantize; sharded plans re-spill only the dirty shards) and publish.
  AHNTP_RETURN_IF_ERROR(
      Publish(refresh.dirty_users, refresh.dirty_embeddings));
  observe_stage("dynamic.apply.plan_seconds");

  AHNTP_METRIC_COUNT("dynamic.apply.dirty_users",
                     refresh.dirty_users.size());
  outcome.refreshed_users = std::move(refresh.dirty_users);
  return outcome;
}

Result<DynamicTrustPipeline> DynamicTrustPipeline::RebuildFromScratch()
    const {
  DynamicPipelineOptions options = options_;
  options.model.influence_override = influence_;
  return Create(dataset_, options);
}

}  // namespace ahntp::core
