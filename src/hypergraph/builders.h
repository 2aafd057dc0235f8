#ifndef AHNTP_HYPERGRAPH_BUILDERS_H_
#define AHNTP_HYPERGRAPH_BUILDERS_H_

#include <vector>

#include "graph/digraph.h"
#include "graph/pagerank.h"
#include "hypergraph/hypergraph.h"

namespace ahntp::hypergraph {

// ---------------------------------------------------------------------------
// The four hypergroup constructions of Section IV-B. Node-level hypergroups
// (social influence, attributes) capture who a user is; structure-level
// hypergroups (pairwise, multi-hop) capture how users connect. AHNTP
// processes the two levels in separate adaptive-convolution branches.
// ---------------------------------------------------------------------------

/// Options for the high-social-influence hypergroup (Section IV-B.1).
struct SocialInfluenceOptions {
  /// Hyperedge size cap: the K highest-influence neighbours joined with the
  /// anchor user (Eq. 6).
  int top_k = 5;
  /// When false, plain PageRank scores replace Motif-based PageRank — this
  /// is the AHNTP_nompr ablation of Table V.
  bool use_motif_pagerank = true;
  graph::MotifPageRankOptions mpr;
};

/// Builds one hyperedge per user: {u} ∪ top-K of u's neighbours ranked by
/// the (motif-)PageRank influence score s' (Eqs. 5-6). Users without
/// neighbours contribute a singleton hyperedge so isolated nodes still
/// receive embeddings — one of the paper's motivations for hypergraphs.
Hypergraph BuildSocialInfluenceHypergroup(const graph::Digraph& graph,
                                          const SocialInfluenceOptions& options);

/// Same, but with externally supplied influence scores (one per user).
Hypergraph BuildSocialInfluenceHypergroup(
    const graph::Digraph& graph, const std::vector<double>& influence,
    int top_k);

/// Builds the attribute hypergroup (Section IV-B.2, Eq. 7): for each
/// categorical attribute column, one hyperedge per distinct value, linking
/// all users sharing it. `attributes[a][u]` is user u's value id for
/// attribute a; negative ids mean "missing" and join no hyperedge.
/// Hyperedges with fewer than `min_size` members are dropped (they carry no
/// correlation).
Hypergraph BuildAttributeHypergroup(
    size_t num_users, const std::vector<std::vector<int>>& attributes,
    size_t min_size = 2);

/// Builds the pairwise hypergroup (Section IV-B.3, Eq. 8): one 2-uniform
/// hyperedge per undirected social connection.
Hypergraph BuildPairwiseHypergroup(const graph::Digraph& graph);

/// Options for the multi-hop hypergroup (Section IV-B.4).
struct MultiHopOptions {
  /// Builds hypergroups H_hop1 .. H_hopN and concatenates them (Eq. 9).
  int num_hops = 1;
  /// Caps each hyperedge at this many members (nearest first, determined by
  /// BFS order); 0 disables the cap. Large balls otherwise dominate cost.
  size_t max_edge_size = 128;
};

/// Builds one hyperedge per user and hop level h: the ball of users within
/// h (undirected) hops of u, including u.
Hypergraph BuildMultiHopHypergroup(const graph::Digraph& graph,
                                   const MultiHopOptions& options);

/// Members of `anchor`'s hop-level hyperedge: the anchor, then
/// NeighborhoodBall(anchor, hops) in BFS order, cut at `max_edge_size`
/// members (0 = uncapped) so the nearest neighbours survive. The builder
/// and the incremental update (hypergraph/dynamic.h) both call it, which
/// keeps their hyperedges bit-identical.
std::vector<int> MultiHopBall(const graph::Digraph& graph, int anchor,
                              int hops, size_t max_edge_size);

}  // namespace ahntp::hypergraph

#endif  // AHNTP_HYPERGRAPH_BUILDERS_H_
