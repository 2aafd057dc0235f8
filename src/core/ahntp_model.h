#ifndef AHNTP_CORE_AHNTP_MODEL_H_
#define AHNTP_CORE_AHNTP_MODEL_H_

#include <memory>
#include <vector>

#include "core/adaptive_conv.h"
#include "graph/pagerank.h"
#include "hypergraph/builders.h"
#include "hypergraph/dynamic.h"
#include "models/encoder.h"
#include "nn/mlp.h"

namespace ahntp::core {

/// Configuration of the full AHNTP model (Fig. 5). Defaults follow
/// Section V-A.4: alpha = 0.8, three conv layers of 256-128-64, 1-hop
/// multi-hop group at those dims.
struct AhntpConfig {
  /// Output widths of the stacked adaptive conv layers.
  std::vector<size_t> hidden_dims = {256, 128, 64};

  // --- Hypergroup construction (Section IV-B) ---
  /// K of the high-social-influence hyperedges (Eq. 6).
  int social_top_k = 5;
  /// false = AHNTP_nompr ablation: plain PageRank replaces MPR.
  bool use_mpr = true;
  /// alpha of Eq. (4).
  double mpr_alpha = 0.8;
  /// Motif driving the high-order term of MPR.
  graph::Motif motif = graph::Motif::kM6;
  /// N of the multi-hop hypergroup (Eq. 9).
  int multi_hop = 1;
  /// Cap on multi-hop hyperedge size (0 = unlimited).
  size_t multi_hop_max_edge_size = 128;
  /// Attribute hyperedges smaller than this are dropped.
  size_t attribute_min_size = 2;

  // --- Convolution (Section IV-C) ---
  /// false = AHNTP_noatt ablation: standard hypergraph convolution.
  bool use_attention = true;
  /// Attention heads per conv layer (1 = the paper's design). Every entry
  /// of hidden_dims must be divisible by this.
  size_t attention_heads = 1;
  float dropout = 0.1f;

  // --- Influence computation ---
  /// Inner power-iteration settings for both MPR and the plain-PageRank
  /// ablation. The dynamic pipeline tightens tolerance and raises the
  /// iteration cap so warm-started and cold runs land on the same fixed
  /// point to within testing tolerance.
  graph::PageRankOptions pagerank;
  /// When non-empty (must be sized to the user count), used verbatim as
  /// the influence scores instead of running (M)PR. The dynamic pipeline
  /// computes the scores once — warm-started — and shares them with any
  /// model it constructs, including the rebuild-from-scratch oracle.
  std::vector<double> influence_override;
};

/// The Adaptive Hypergraph Network for Trust Prediction.
///
/// Construction builds the two-tier hypergroups from the *training* trust
/// graph and user attributes:
///   node level      = social-influence (MPR top-K)  ||  attribute groups,
///   structure level = pairwise (2-uniform)          ||  multi-hop balls.
/// Each tier runs through its own feature MLP and stack of adaptive
/// hypergraph convolutions; the two embeddings are concatenated (Fig. 5).
/// The pairwise towers + cosine head live in models::TrustPredictor.
class AhntpModel : public models::Encoder {
 public:
  AhntpModel(const models::ModelInputs& inputs, const AhntpConfig& config);

  autograd::Variable EncodeUsers() override;
  size_t embedding_dim() const override {
    return 2 * config_.hidden_dims.back();
  }
  std::string name() const override { return "AHNTP"; }
  std::vector<autograd::Variable> Parameters() const override;
  std::vector<nn::Module*> Submodules() override;

  const AhntpConfig& config() const { return config_; }
  const hypergraph::Hypergraph& node_hypergraph() const { return node_hg_; }
  const hypergraph::Hypergraph& structure_hypergraph() const {
    return structure_hg_;
  }
  /// Union of both tiers, used by the Eq. 23 regularizer.
  const hypergraph::Hypergraph& combined_hypergraph() const {
    return combined_hg_;
  }
  /// The (motif-)PageRank influence scores used for the social hypergroup.
  const std::vector<double>& influence_scores() const { return influence_; }

  /// One hyperedge's contribution to a user's embedding, read from the
  /// final adaptive-convolution attention (Eq. 15).
  struct HyperedgeInfluence {
    std::string branch;   // "node" or "structure"
    std::string source;   // "social-influence", "attribute", "pairwise",
                          // "multi-hop"
    int edge_index = 0;   // index within the branch hypergraph
    float attention = 0;  // w_ie of the last conv layer
    std::vector<int> members;
  };

  /// Explains user u: the top_k hyperedges (across both branches) that the
  /// final conv layer attends to most when embedding u. Runs one forward
  /// under autograd::InferenceMode and writes no training flags. Requires
  /// the attention variant (use_attention).
  std::vector<HyperedgeInfluence> ExplainUser(int u, size_t top_k = 5);

  // --- Incremental refresh (DESIGN.md §17) ------------------------------

  /// Like InferUsers() — the same forward under autograd::InferenceMode,
  /// bit-identical output — but additionally snapshots every branch
  /// activation (the feature-MLP output and each conv layer's output) as
  /// owned matrices. These caches are what RefreshIncremental() reads and
  /// patches; call this once before the first refresh.
  tensor::Matrix InferUsersCached();

  /// Whether InferUsersCached() has primed the activation caches.
  bool caches_primed() const { return !node_branch_.cache.empty(); }

  /// One branch's post-delta structure, produced by the dynamic pipeline
  /// from the incremental hypergroup updates and hypergraph::DiffBranch.
  /// When `diff.any_change` is false the hypergraph/sources fields are
  /// ignored and the branch structure is left untouched.
  struct BranchUpdate {
    hypergraph::Hypergraph hypergraph{0};
    hypergraph::BranchDiff diff;
    /// Per-edge source labels parallel to `hypergraph` ("social-influence",
    /// "attribute", "pairwise", "multi-hop").
    std::vector<std::string> edge_sources;
  };

  /// Outcome of an incremental refresh: which users' final embeddings
  /// changed, with their new rows ready for InferencePlan::RefreshRows.
  struct RefreshResult {
    std::vector<int> dirty_users;     // ascending, deduplicated
    tensor::Matrix dirty_embeddings;  // (|dirty_users| x embedding_dim())
  };

  /// Incrementally re-embeds after a graph/rating delta. Per branch, the
  /// convs' incidence structures are rebuilt from the new hypergraph (edge
  /// weights remapped through diff.new_from_old), then the dirty closure
  ///   D^l = D^{l-1} ∪ members(incident(D^{l-1})) ∪ reorder_dirty
  ///         ∪ members(changed_edges)
  /// is propagated layer by layer, recomputing only the dirty rows via
  /// AdaptiveHypergraphConv::InferRows and patching the activation caches
  /// in place. Every patched row is bit-identical to a full InferUsers()
  /// on the post-delta model. `dirty_feature_rows` (ascending) are users
  /// whose feature rows changed, with their new rows in
  /// `new_feature_rows`; `new_influence` replaces influence_scores().
  /// Requires caches_primed().
  RefreshResult RefreshIncremental(BranchUpdate node_update,
                                   BranchUpdate structure_update,
                                   const std::vector<int>& dirty_feature_rows,
                                   const tensor::Matrix& new_feature_rows,
                                   const std::vector<double>& new_influence,
                                   tensor::Workspace* ws);

 private:
  /// One tier: feature MLP then stacked adaptive convolutions.
  struct Branch {
    std::unique_ptr<nn::Mlp> feature_mlp;
    std::vector<std::unique_ptr<AdaptiveHypergraphConv>> convs;
    /// Activation snapshots: cache[0] = feature-MLP output, cache[l+1] =
    /// conv l output. Empty until InferUsersCached() primes them.
    std::vector<tensor::Matrix> cache;
  };
  Branch MakeBranch(const hypergraph::Hypergraph& hg, size_t in_dim,
                    Rng* rng);
  /// Runs one tier. With `snapshots`, appends a copy of the feature-MLP
  /// output and of each conv layer's output (the Branch::cache layout).
  autograd::Variable RunBranch(
      const Branch& branch, const autograd::Variable& x,
      std::vector<tensor::Matrix>* snapshots = nullptr);
  /// Applies one BranchUpdate + feature-dirty seed to a branch; returns the
  /// final-layer dirty vertex set (ascending).
  std::vector<int> RefreshBranch(Branch& branch,
                                 hypergraph::Hypergraph* hg_member,
                                 std::vector<std::string>* sources_member,
                                 BranchUpdate* update,
                                 const std::vector<int>& seed,
                                 tensor::Workspace* ws);

  AhntpConfig config_;
  autograd::Variable features_;
  std::vector<double> influence_;
  hypergraph::Hypergraph node_hg_;
  hypergraph::Hypergraph structure_hg_;
  hypergraph::Hypergraph combined_hg_;
  std::vector<std::string> node_edge_sources_;       // per node_hg_ edge
  std::vector<std::string> structure_edge_sources_;  // per structure_hg_ edge
  Branch node_branch_;
  Branch structure_branch_;
  float dropout_;
  Rng* rng_;
};

}  // namespace ahntp::core

#endif  // AHNTP_CORE_AHNTP_MODEL_H_
