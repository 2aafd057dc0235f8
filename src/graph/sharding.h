#ifndef AHNTP_GRAPH_SHARDING_H_
#define AHNTP_GRAPH_SHARDING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/digraph.h"
#include "graph/pagerank.h"

namespace ahntp::graph {

// ---------------------------------------------------------------------------
// The shard abstraction behind the out-of-core path (DESIGN.md §14): users
// are partitioned deterministically into K shards, each shard materializes a
// local subgraph of its owned users plus a halo of ghost vertices wide
// enough that every boundary computation (motif counts, r-hop balls,
// influence rankings) is *exact*, and the per-shard results merge back into
// structures bit-identical to the monolithic build. K=1 therefore recovers
// today's path exactly and serves as the parity oracle.
// ---------------------------------------------------------------------------

/// Deterministic user -> shard partition: shard s owns a contiguous id
/// range, and ranges differ by at most one user. Immutable once created; every
/// consumer (generator edge routing, subgraph builders, the sharded
/// inference plan) derives its layout from the same instance, so shard ids
/// mean the same thing at every layer.
class UserSharding {
 public:
  /// Rejects non-positive shard counts, zero users, and K > N (which would
  /// manufacture empty shards) with InvalidArgument — degenerate requests
  /// are caller bugs worth surfacing, not silently clamping.
  static Result<UserSharding> Create(size_t num_users, int num_shards);

  int num_shards() const { return static_cast<int>(users_.size()); }
  size_t num_users() const { return num_users_; }

  /// Shard owning `user`. Precondition: user in [0, num_users).
  int ShardOf(int user) const;

  /// Owned users of `shard`, ascending. Precondition: shard in [0, K).
  const std::vector<int>& UsersOf(int shard) const;

  /// Position of `user` within UsersOf(ShardOf(user)): its row in the
  /// shard's embedding block. Precondition: user in [0, num_users).
  int RowOf(int user) const;

 private:
  size_t num_users_ = 0;
  std::vector<int> shard_of_;            // per user
  std::vector<int> row_of_;              // per user, index into users_[s]
  std::vector<std::vector<int>> users_;  // per shard, ascending
};

/// One shard's materialized subgraph: the owned users plus every vertex
/// within `halo_hops` undirected hops of them (the halo / ghost vertices),
/// with *all* edges of the global graph whose two endpoints both fall in
/// that vertex set (halo-closure edges included — the exactness argument of
/// DESIGN.md §14 needs edges between two halo vertices).
///
/// Local ids are assigned in ascending global-id order, so sorted local
/// neighbor lists correspond position-by-position to sorted global neighbor
/// lists and every order-sensitive traversal (BFS balls, influence ties,
/// CSR column order) is reproduced exactly.
struct ShardSubgraph {
  int shard = 0;
  size_t num_owned = 0;
  /// Ascending; owned and halo vertices interleaved in global-id order.
  std::vector<int> local_to_global;
  /// Parallel to local_to_global: 1 = owned by `shard`, 0 = halo ghost.
  std::vector<uint8_t> is_owned;
  /// The induced local graph. Edge order follows the global graph's edge
  /// order (restricted to surviving edges).
  Digraph graph;
  /// Per local edge, its index in the global graph's edges() — the key the
  /// hypergroup merge uses to reproduce monolithic first-appearance order.
  std::vector<int64_t> global_edge_index;

  int GlobalId(int local) const { return local_to_global[static_cast<size_t>(local)]; }
  /// Local id of a global vertex, or -1 when outside owned ∪ halo.
  int LocalId(int global) const;
};

/// Builds shard `shard`'s subgraph. The graph must cover exactly
/// sharding.num_users() vertices; halo_hops >= 0 (0 = owned users only, no
/// boundary exactness). Returns InvalidArgument on a bad shard index or a
/// vertex-count mismatch.
Result<ShardSubgraph> BuildShardSubgraph(const Digraph& graph,
                                         const UserSharding& sharding,
                                         int shard, int halo_hops = 1);

// ---------------------------------------------------------------------------
// Sharded analytics. Each runs the per-shard computation on every shard's
// subgraph (built with the minimal exact halo) and assembles the owned rows
// into the global structure. All are bit-identical to their monolithic
// counterparts at any (num_shards, thread-count) combination; motif counts
// are small integers, so even float accumulation is order-independent.
// ---------------------------------------------------------------------------

/// Per-shard reassembly of the global adjacency; bitwise equal to
/// graph.Adjacency().
tensor::CsrMatrix ShardedAdjacency(const Digraph& graph,
                                   const UserSharding& sharding);

/// Motif adjacency computed per shard on 1-hop-halo subgraphs; bitwise equal
/// to MotifAdjacency(graph.Adjacency(), motif). Exact because every motif
/// formula is Hadamard-masked by the (split) adjacency: a masked entry
/// (i, j) only sums over common neighbours k of i and j, and for owned i
/// all such k — and the k↔j closure edges — lie inside the 1-hop halo.
tensor::CsrMatrix ShardedMotifAdjacency(const Digraph& graph,
                                        const UserSharding& sharding,
                                        Motif motif);

/// PageRank over the shard-assembled adjacency; bitwise equal to
/// PageRank(graph.Adjacency(), options).
std::vector<double> ShardedPageRank(const Digraph& graph,
                                    const UserSharding& sharding,
                                    const PageRankOptions& options = {});

/// Motif-based PageRank from shard-assembled ingredients; every field is
/// bitwise equal to MotifPageRank(graph.Adjacency(), options).
MotifPageRankResult ShardedMotifPageRank(
    const Digraph& graph, const UserSharding& sharding,
    const MotifPageRankOptions& options = {});

}  // namespace ahntp::graph

#endif  // AHNTP_GRAPH_SHARDING_H_
