#include "core/ahntp_model.h"

#include <algorithm>

#include "common/check.h"
#include "graph/pagerank.h"
#include "nn/infer.h"
#include "tensor/kernels.h"

namespace ahntp::core {

using autograd::Variable;
using hypergraph::Hypergraph;

AhntpModel::AhntpModel(const models::ModelInputs& inputs,
                       const AhntpConfig& config)
    : config_(config),
      features_(autograd::Constant(*inputs.features)),
      node_hg_(0),
      structure_hg_(0),
      combined_hg_(0),
      dropout_(config.dropout),
      rng_(inputs.rng) {
  AHNTP_CHECK(inputs.features != nullptr && inputs.graph != nullptr &&
              inputs.dataset != nullptr && inputs.rng != nullptr);
  AHNTP_CHECK(!config_.hidden_dims.empty());
  const graph::Digraph& g = *inputs.graph;

  // ---- Influence scores: MPR (Eqs. 3-5) or plain PageRank (ablation). ----
  if (!config_.influence_override.empty()) {
    AHNTP_CHECK_EQ(config_.influence_override.size(), g.num_nodes());
    influence_ = config_.influence_override;
  } else if (config_.use_mpr) {
    graph::MotifPageRankOptions mpr;
    mpr.alpha = config_.mpr_alpha;
    mpr.motif = config_.motif;
    mpr.pagerank = config_.pagerank;
    influence_ = graph::MotifPageRank(g.Adjacency(), mpr).scores;
  } else {
    influence_ = graph::PageRank(g.Adjacency(), config_.pagerank);
  }

  // ---- Two-tier hypergroups (Section IV-B). ----
  Hypergraph social = hypergraph::BuildSocialInfluenceHypergroup(
      g, influence_, config_.social_top_k);
  Hypergraph attr = hypergraph::BuildAttributeHypergroup(
      g.num_nodes(), inputs.dataset->attributes, config_.attribute_min_size);
  node_hg_ = Hypergraph::Concat(social, attr);
  node_edge_sources_.assign(social.num_edges(), "social-influence");
  node_edge_sources_.insert(node_edge_sources_.end(), attr.num_edges(),
                            "attribute");

  Hypergraph pairwise = hypergraph::BuildPairwiseHypergroup(g);
  hypergraph::MultiHopOptions hop_options;
  hop_options.num_hops = config_.multi_hop;
  hop_options.max_edge_size = config_.multi_hop_max_edge_size;
  Hypergraph multihop = hypergraph::BuildMultiHopHypergroup(g, hop_options);
  structure_hg_ = Hypergraph::Concat(pairwise, multihop);
  structure_edge_sources_.assign(pairwise.num_edges(), "pairwise");
  structure_edge_sources_.insert(structure_edge_sources_.end(),
                                 multihop.num_edges(), "multi-hop");

  combined_hg_ = Hypergraph::Concat(node_hg_, structure_hg_);

  // ---- Branches. ----
  const size_t in_dim = inputs.features->cols();
  node_branch_ = MakeBranch(node_hg_, in_dim, inputs.rng);
  structure_branch_ = MakeBranch(structure_hg_, in_dim, inputs.rng);
}

AhntpModel::Branch AhntpModel::MakeBranch(const Hypergraph& hg, size_t in_dim,
                                          Rng* rng) {
  Branch branch;
  const auto& dims = config_.hidden_dims;
  // Feature-extraction MLP into the first conv width (Section IV-B end).
  branch.feature_mlp = std::make_unique<nn::Mlp>(
      std::vector<size_t>{in_dim, dims[0]}, rng, nn::Activation::kRelu,
      nn::Activation::kRelu);
  size_t prev = dims[0];
  for (size_t out : dims) {
    branch.convs.push_back(std::make_unique<AdaptiveHypergraphConv>(
        hg, prev, out, rng, config_.use_attention, /*leaky_slope=*/0.2f,
        config_.attention_heads));
    prev = out;
  }
  return branch;
}

Variable AhntpModel::RunBranch(const Branch& branch, const Variable& x,
                               std::vector<tensor::Matrix>* snapshots) {
  Variable h = branch.feature_mlp->Forward(x);
  if (snapshots != nullptr) snapshots->push_back(h.value());
  for (size_t i = 0; i < branch.convs.size(); ++i) {
    h = branch.convs[i]->Forward(h);
    if (snapshots != nullptr) snapshots->push_back(h.value());
    if (i + 1 < branch.convs.size()) {
      h = autograd::Dropout(h, dropout_, rng_, training_);
    }
  }
  return h;
}

Variable AhntpModel::EncodeUsers() {
  Variable node_embedding = RunBranch(node_branch_, features_);
  Variable structure_embedding = RunBranch(structure_branch_, features_);
  return autograd::ConcatCols({node_embedding, structure_embedding});
}

tensor::Matrix AhntpModel::InferUsersCached() {
  autograd::InferenceMode inference;
  std::vector<Variable> embeddings;
  for (Branch* branch : {&node_branch_, &structure_branch_}) {
    branch->cache.clear();
    branch->cache.reserve(branch->convs.size() + 1);
    embeddings.push_back(RunBranch(*branch, features_, &branch->cache));
  }
  return autograd::ConcatCols(embeddings).value();
}

std::vector<int> AhntpModel::RefreshBranch(
    Branch& branch, hypergraph::Hypergraph* hg_member,
    std::vector<std::string>* sources_member, BranchUpdate* update,
    const std::vector<int>& seed, tensor::Workspace* ws) {
  const size_t n = hg_member->num_vertices();
  const hypergraph::BranchDiff& diff = update->diff;
  const bool structural = diff.any_change;
  if (structural) {
    for (auto& conv : branch.convs) {
      conv->ResetStructure(update->hypergraph, diff.new_from_old);
    }
    *hg_member = std::move(update->hypergraph);
    *sources_member = std::move(update->edge_sources);
  }

  // Vertices whose structural context changed: any member of a new/changed
  // hyperedge, plus vertices whose ordered incidence sequence changed
  // (their attention segments are laid out differently). These are dirty
  // at every layer regardless of input changes.
  std::vector<char> structure_dirty(n, 0);
  if (structural) {
    for (int e : diff.changed_edges) {
      for (int v : hg_member->EdgeVertices(static_cast<size_t>(e))) {
        structure_dirty[v] = 1;
      }
    }
    for (int v : diff.reorder_dirty) structure_dirty[v] = 1;
  }

  // Vertex -> incident hyperedges of the (new) branch hypergraph, for the
  // closure expansion.
  std::vector<std::vector<int>> incident(n);
  const auto& pairs = hg_member->Pairs();
  for (size_t p = 0; p < pairs.vertex.size(); ++p) {
    incident[pairs.vertex[p]].push_back(pairs.edge[p]);
  }

  // D^0: users whose feature rows changed — recompute their MLP rows.
  // InferMlp is row-local, so running it on the gathered rows is bitwise
  // identical to the corresponding rows of the full pass.
  std::vector<int> dirty = seed;
  if (!dirty.empty()) {
    tensor::Matrix* sub =
        ws->Acquire(dirty.size(), features_.value().cols());
    tensor::GatherRowsInto(sub, features_.value(), dirty);
    const tensor::Matrix& rows = nn::InferMlp(*branch.feature_mlp, *sub, ws);
    tensor::Matrix& x0 = branch.cache[0];
    for (size_t i = 0; i < dirty.size(); ++i) {
      std::copy(rows.RowPtr(i), rows.RowPtr(i) + rows.cols(),
                x0.RowPtr(static_cast<size_t>(dirty[i])));
    }
  }

  for (size_t l = 0; l < branch.convs.size(); ++l) {
    std::vector<char> mark(n, 0);
    for (int v : dirty) {
      mark[v] = 1;
      for (int e : incident[v]) {
        for (int w : hg_member->EdgeVertices(static_cast<size_t>(e))) {
          mark[w] = 1;
        }
      }
    }
    if (structural) {
      for (size_t v = 0; v < n; ++v) {
        if (structure_dirty[v]) mark[v] = 1;
      }
    }
    std::vector<int> next;
    for (size_t v = 0; v < n; ++v) {
      if (mark[v]) next.push_back(static_cast<int>(v));
    }
    if (next.empty()) return {};
    tensor::Matrix& rows = branch.convs[l]->InferRows(branch.cache[l], next, ws);
    tensor::Matrix& out = branch.cache[l + 1];
    for (size_t i = 0; i < next.size(); ++i) {
      std::copy(rows.RowPtr(i), rows.RowPtr(i) + rows.cols(),
                out.RowPtr(static_cast<size_t>(next[i])));
    }
    dirty = std::move(next);
  }
  return dirty;
}

AhntpModel::RefreshResult AhntpModel::RefreshIncremental(
    BranchUpdate node_update, BranchUpdate structure_update,
    const std::vector<int>& dirty_feature_rows,
    const tensor::Matrix& new_feature_rows,
    const std::vector<double>& new_influence, tensor::Workspace* ws) {
  AHNTP_CHECK(caches_primed())
      << "prime the activation caches with InferUsersCached() first";
  AHNTP_CHECK_EQ(new_influence.size(), influence_.size());
  AHNTP_CHECK_EQ(dirty_feature_rows.size(), new_feature_rows.rows());
  influence_ = new_influence;

  if (!dirty_feature_rows.empty()) {
    tensor::Matrix feats = features_.value();
    AHNTP_CHECK_EQ(new_feature_rows.cols(), feats.cols());
    for (size_t i = 0; i < dirty_feature_rows.size(); ++i) {
      int r = dirty_feature_rows[i];
      AHNTP_CHECK(r >= 0 && static_cast<size_t>(r) < feats.rows());
      if (i > 0) {
        AHNTP_CHECK_GT(r, dirty_feature_rows[i - 1]);
      }
      std::copy(new_feature_rows.RowPtr(i),
                new_feature_rows.RowPtr(i) + new_feature_rows.cols(),
                feats.RowPtr(static_cast<size_t>(r)));
    }
    features_ = autograd::Constant(std::move(feats));
  }

  std::vector<int> node_dirty =
      RefreshBranch(node_branch_, &node_hg_, &node_edge_sources_,
                    &node_update, dirty_feature_rows, ws);
  std::vector<int> structure_dirty =
      RefreshBranch(structure_branch_, &structure_hg_,
                    &structure_edge_sources_, &structure_update,
                    dirty_feature_rows, ws);
  if (node_update.diff.any_change || structure_update.diff.any_change) {
    combined_hg_ = Hypergraph::Concat(node_hg_, structure_hg_);
  }

  RefreshResult result;
  std::set_union(node_dirty.begin(), node_dirty.end(),
                 structure_dirty.begin(), structure_dirty.end(),
                 std::back_inserter(result.dirty_users));
  const tensor::Matrix& node_out = node_branch_.cache.back();
  const tensor::Matrix& structure_out = structure_branch_.cache.back();
  result.dirty_embeddings =
      tensor::Matrix(result.dirty_users.size(), embedding_dim());
  for (size_t i = 0; i < result.dirty_users.size(); ++i) {
    const size_t v = static_cast<size_t>(result.dirty_users[i]);
    float* dst = result.dirty_embeddings.RowPtr(i);
    std::copy(node_out.RowPtr(v), node_out.RowPtr(v) + node_out.cols(), dst);
    std::copy(structure_out.RowPtr(v),
              structure_out.RowPtr(v) + structure_out.cols(),
              dst + node_out.cols());
  }
  return result;
}

std::vector<AhntpModel::HyperedgeInfluence> AhntpModel::ExplainUser(
    int u, size_t top_k) {
  AHNTP_CHECK(config_.use_attention)
      << "ExplainUser requires the attention variant";
  AHNTP_CHECK(u >= 0 && static_cast<size_t>(u) < node_hg_.num_vertices());
  {
    autograd::InferenceMode inference;
    EncodeUsers();  // refreshes last_attention() on every conv layer
  }

  std::vector<HyperedgeInfluence> influences;
  struct BranchView {
    const Branch* branch;
    const Hypergraph* hg;
    const std::vector<std::string>* sources;
    const char* name;
  };
  const BranchView views[] = {
      {&node_branch_, &node_hg_, &node_edge_sources_, "node"},
      {&structure_branch_, &structure_hg_, &structure_edge_sources_,
       "structure"},
  };
  for (const BranchView& view : views) {
    const AdaptiveHypergraphConv& last = *view.branch->convs.back();
    const auto& pairs = last.pairs();
    const tensor::Matrix& attention = last.last_attention();
    AHNTP_CHECK_EQ(attention.rows(), pairs.vertex.size());
    for (size_t p = 0; p < pairs.vertex.size(); ++p) {
      if (pairs.vertex[p] != u) continue;
      HyperedgeInfluence info;
      info.branch = view.name;
      info.edge_index = pairs.edge[p];
      info.source = (*view.sources)[static_cast<size_t>(pairs.edge[p])];
      info.attention = attention.At(p, 0);
      info.members =
          view.hg->EdgeVertices(static_cast<size_t>(pairs.edge[p]));
      influences.push_back(std::move(info));
    }
  }
  std::sort(influences.begin(), influences.end(),
            [](const HyperedgeInfluence& a, const HyperedgeInfluence& b) {
              return a.attention > b.attention;
            });
  if (influences.size() > top_k) influences.resize(top_k);
  return influences;
}

std::vector<Variable> AhntpModel::Parameters() const {
  std::vector<Variable> params;
  for (const Branch* branch : {&node_branch_, &structure_branch_}) {
    for (auto& p : branch->feature_mlp->Parameters()) params.push_back(p);
    for (const auto& conv : branch->convs) {
      for (auto& p : conv->Parameters()) params.push_back(p);
    }
  }
  return params;
}

std::vector<nn::Module*> AhntpModel::Submodules() {
  std::vector<nn::Module*> subs;
  for (Branch* branch : {&node_branch_, &structure_branch_}) {
    subs.push_back(branch->feature_mlp.get());
    for (const auto& conv : branch->convs) subs.push_back(conv.get());
  }
  return subs;
}

}  // namespace ahntp::core
