#include "graph/sharding.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"

namespace ahntp::graph {

Result<UserSharding> UserSharding::Create(size_t num_users, int num_shards) {
  if (num_shards <= 0) {
    return Status::InvalidArgument(
        StrFormat("num_shards must be positive, got %d", num_shards));
  }
  if (num_users == 0) {
    return Status::InvalidArgument("cannot shard zero users");
  }
  if (static_cast<size_t>(num_shards) > num_users) {
    return Status::InvalidArgument(
        StrFormat("num_shards=%d exceeds num_users=%zu (empty shards)",
                  num_shards, num_users));
  }
  UserSharding sharding;
  sharding.num_users_ = num_users;
  sharding.shard_of_.resize(num_users);
  const size_t k = static_cast<size_t>(num_shards);
  sharding.users_.resize(k);
  // Balanced ranges: the first (num_users % k) shards own one extra user.
  const size_t base = num_users / k;
  const size_t extra = num_users % k;
  size_t begin = 0;
  for (size_t s = 0; s < k; ++s) {
    size_t size = base + (s < extra ? 1 : 0);
    for (size_t u = begin; u < begin + size; ++u) {
      sharding.shard_of_[u] = static_cast<int>(s);
      sharding.users_[s].push_back(static_cast<int>(u));
    }
    begin += size;
  }
  sharding.row_of_.resize(num_users);
  for (const std::vector<int>& owned : sharding.users_) {
    for (size_t r = 0; r < owned.size(); ++r) {
      sharding.row_of_[static_cast<size_t>(owned[r])] = static_cast<int>(r);
    }
  }
  return sharding;
}

int UserSharding::ShardOf(int user) const {
  AHNTP_CHECK(user >= 0 && static_cast<size_t>(user) < num_users_);
  return shard_of_[static_cast<size_t>(user)];
}

const std::vector<int>& UserSharding::UsersOf(int shard) const {
  AHNTP_CHECK(shard >= 0 && shard < num_shards());
  return users_[static_cast<size_t>(shard)];
}

int UserSharding::RowOf(int user) const {
  AHNTP_CHECK(user >= 0 && static_cast<size_t>(user) < num_users_);
  return row_of_[static_cast<size_t>(user)];
}

int ShardSubgraph::LocalId(int global) const {
  auto it = std::lower_bound(local_to_global.begin(), local_to_global.end(),
                             global);
  if (it == local_to_global.end() || *it != global) return -1;
  return static_cast<int>(it - local_to_global.begin());
}

Result<ShardSubgraph> BuildShardSubgraph(const Digraph& graph,
                                         const UserSharding& sharding,
                                         int shard, int halo_hops) {
  trace::TraceSpan span("graph.shard.build_subgraph");
  if (shard < 0 || shard >= sharding.num_shards()) {
    return Status::InvalidArgument(
        StrFormat("shard %d out of range for %d shards", shard,
                  sharding.num_shards()));
  }
  if (graph.num_nodes() != sharding.num_users()) {
    return Status::InvalidArgument(
        StrFormat("graph has %zu nodes but sharding covers %zu users",
                  graph.num_nodes(), sharding.num_users()));
  }
  if (halo_hops < 0) {
    return Status::InvalidArgument("halo_hops must be non-negative");
  }

  ShardSubgraph sub;
  sub.shard = shard;
  const std::vector<int>& owned = sharding.UsersOf(shard);
  sub.num_owned = owned.size();

  // Vertex set: owned plus everything within halo_hops undirected hops.
  std::vector<uint8_t> in_set(graph.num_nodes(), 0);
  std::vector<int> frontier = owned;
  for (int u : owned) in_set[static_cast<size_t>(u)] = 1;
  for (int hop = 0; hop < halo_hops; ++hop) {
    std::vector<int> next;
    for (int u : frontier) {
      auto visit = [&](int v) {
        if (!in_set[static_cast<size_t>(v)]) {
          in_set[static_cast<size_t>(v)] = 1;
          next.push_back(v);
        }
      };
      for (int v : graph.OutNeighbors(u)) visit(v);
      for (int v : graph.InNeighbors(u)) visit(v);
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }

  for (size_t u = 0; u < graph.num_nodes(); ++u) {
    if (in_set[u]) sub.local_to_global.push_back(static_cast<int>(u));
  }
  sub.is_owned.assign(sub.local_to_global.size(), 0);
  for (size_t l = 0; l < sub.local_to_global.size(); ++l) {
    if (sharding.ShardOf(sub.local_to_global[l]) == shard) {
      sub.is_owned[l] = 1;
    }
  }

  // Compact local-id lookup (dense; freed with the function).
  std::vector<int> global_to_local(graph.num_nodes(), -1);
  for (size_t l = 0; l < sub.local_to_global.size(); ++l) {
    global_to_local[static_cast<size_t>(sub.local_to_global[l])] =
        static_cast<int>(l);
  }

  // Induced edges, in global edge order — the merge keys downstream.
  std::vector<Edge> local_edges;
  const std::vector<Edge>& edges = graph.edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    int ls = global_to_local[static_cast<size_t>(e.src)];
    int ld = global_to_local[static_cast<size_t>(e.dst)];
    if (ls < 0 || ld < 0) continue;
    local_edges.push_back({ls, ld});
    sub.global_edge_index.push_back(static_cast<int64_t>(i));
  }
  auto built = Digraph::FromEdges(sub.local_to_global.size(), local_edges);
  AHNTP_CHECK_OK(built.status());
  sub.graph = std::move(built).value();
  // The global graph is already deduplicated and self-loop-free, so
  // FromEdges drops nothing and global_edge_index stays aligned.
  AHNTP_CHECK_EQ(sub.graph.num_edges(), sub.global_edge_index.size());

  AHNTP_METRIC_COUNT("graph.shard.subgraphs_built", 1);
  AHNTP_METRIC_COUNT(
      "graph.shard.halo_vertices",
      static_cast<int64_t>(sub.local_to_global.size() - sub.num_owned));
  return sub;
}

namespace {

/// Assembles a global (n x n) CSR from per-shard matrices by taking, for
/// each global row, the owning shard's local row with columns remapped to
/// global ids. Monotone local ids keep remapped columns ascending, so the
/// rows drop straight into CSR canonical form.
tensor::CsrMatrix AssembleOwnedRows(
    const UserSharding& sharding, const std::vector<ShardSubgraph>& subs,
    const std::vector<tensor::CsrMatrix>& locals) {
  const size_t n = sharding.num_users();
  std::vector<std::vector<int>> row_cols(n);
  std::vector<std::vector<float>> row_vals(n);
  for (size_t r = 0; r < n; ++r) {
    int s = sharding.ShardOf(static_cast<int>(r));
    const ShardSubgraph& sub = subs[static_cast<size_t>(s)];
    const tensor::CsrMatrix& local = locals[static_cast<size_t>(s)];
    int lr = sub.LocalId(static_cast<int>(r));
    AHNTP_CHECK_GE(lr, 0);
    const auto& row_ptr = local.row_ptr();
    const auto& col_idx = local.col_idx();
    const auto& values = local.values();
    for (int p = row_ptr[static_cast<size_t>(lr)];
         p < row_ptr[static_cast<size_t>(lr) + 1]; ++p) {
      row_cols[r].push_back(sub.GlobalId(col_idx[static_cast<size_t>(p)]));
      row_vals[r].push_back(values[static_cast<size_t>(p)]);
    }
  }
  return tensor::CsrMatrix::FromSortedRows(n, n, row_cols, row_vals);
}

std::vector<ShardSubgraph> BuildAllSubgraphs(const Digraph& graph,
                                             const UserSharding& sharding,
                                             int halo_hops) {
  std::vector<ShardSubgraph> subs;
  subs.reserve(static_cast<size_t>(sharding.num_shards()));
  for (int s = 0; s < sharding.num_shards(); ++s) {
    auto sub = BuildShardSubgraph(graph, sharding, s, halo_hops);
    AHNTP_CHECK_OK(sub.status());
    subs.push_back(std::move(sub).value());
  }
  return subs;
}

}  // namespace

tensor::CsrMatrix ShardedAdjacency(const Digraph& graph,
                                   const UserSharding& sharding) {
  trace::TraceSpan span("graph.shard.adjacency");
  std::vector<ShardSubgraph> subs = BuildAllSubgraphs(graph, sharding, 1);
  std::vector<tensor::CsrMatrix> locals;
  locals.reserve(subs.size());
  for (const ShardSubgraph& sub : subs) {
    locals.push_back(sub.graph.Adjacency());
  }
  return AssembleOwnedRows(sharding, subs, locals);
}

tensor::CsrMatrix ShardedMotifAdjacency(const Digraph& graph,
                                        const UserSharding& sharding,
                                        Motif motif) {
  trace::TraceSpan span("graph.shard.motif_adjacency");
  // 1-hop halo with closure edges is exact for triangle motifs (see header).
  std::vector<ShardSubgraph> subs = BuildAllSubgraphs(graph, sharding, 1);
  std::vector<tensor::CsrMatrix> locals;
  locals.reserve(subs.size());
  for (const ShardSubgraph& sub : subs) {
    locals.push_back(MotifAdjacency(sub.graph.Adjacency(), motif));
  }
  return AssembleOwnedRows(sharding, subs, locals);
}

std::vector<double> ShardedPageRank(const Digraph& graph,
                                    const UserSharding& sharding,
                                    const PageRankOptions& options) {
  trace::TraceSpan span("graph.shard.pagerank");
  // The iteration is a global fixed point; what shards contribute is the
  // operator itself. The assembled adjacency is bitwise the monolithic one,
  // so the (deterministically chunked) iteration is too.
  return PageRank(ShardedAdjacency(graph, sharding), options);
}

MotifPageRankResult ShardedMotifPageRank(const Digraph& graph,
                                         const UserSharding& sharding,
                                         const MotifPageRankOptions& options) {
  trace::TraceSpan span("graph.shard.motif_pagerank");
  AHNTP_CHECK(options.alpha >= 0.0 && options.alpha <= 1.0);
  MotifPageRankResult result;
  result.motif_adjacency = ShardedMotifAdjacency(graph, sharding, options.motif);
  tensor::CsrMatrix adjacency = ShardedAdjacency(graph, sharding);
  // From here on, the exact expression MotifPageRank evaluates (Eq. 4-5),
  // over bitwise-identical inputs.
  tensor::CsrMatrix weighted_pairwise =
      adjacency.Binarized().Scaled(static_cast<float>(options.alpha));
  tensor::CsrMatrix weighted_motif =
      result.motif_adjacency.Scaled(static_cast<float>(1.0 - options.alpha));
  result.combined_weights =
      tensor::SparseAdd(weighted_pairwise, weighted_motif).Pruned();
  result.scores = PageRank(result.combined_weights, options.pagerank);
  return result;
}

}  // namespace ahntp::graph
