#include "hypergraph/builders.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace ahntp::hypergraph {

namespace {

/// Grain for the per-vertex builder loops (neighbor sort / BFS ball per
/// item, so a few hundred vertices per chunk amortize dispatch).
constexpr size_t kVertexGrain = 256;

/// Counts the edges a builder just produced.
void CountEdgesBuilt(const Hypergraph& hg) {
  AHNTP_METRIC_COUNT("hypergraph.edges_built",
                     static_cast<int64_t>(hg.num_edges()));
}

}  // namespace

Hypergraph BuildSocialInfluenceHypergroup(
    const graph::Digraph& graph, const std::vector<double>& influence,
    int top_k) {
  trace::TraceSpan span("hypergraph.build.social_influence");
  AHNTP_CHECK_EQ(influence.size(), graph.num_nodes());
  AHNTP_CHECK_GT(top_k, 0);
  Hypergraph hg(graph.num_nodes());
  // Member selection (gather + sort) is the hot part and is independent per
  // vertex; edges are then inserted serially in vertex order so the edge
  // ids match the serial build exactly.
  std::vector<std::vector<int>> members(graph.num_nodes());
  ParallelFor(0, graph.num_nodes(), kVertexGrain, [&](size_t u0, size_t u1) {
    for (size_t u = u0; u < u1; ++u) {
      std::vector<int> neighbors =
          graph.UndirectedNeighbors(static_cast<int>(u));
      // Highest-influence neighbours first; ties broken by id for
      // determinism.
      std::stable_sort(neighbors.begin(), neighbors.end(),
                       [&influence](int a, int b) {
                         return influence[static_cast<size_t>(a)] >
                                influence[static_cast<size_t>(b)];
                       });
      if (neighbors.size() > static_cast<size_t>(top_k)) {
        neighbors.resize(static_cast<size_t>(top_k));
      }
      neighbors.push_back(static_cast<int>(u));
      members[u] = std::move(neighbors);
    }
  });
  for (size_t u = 0; u < graph.num_nodes(); ++u) {
    AHNTP_CHECK_OK(hg.AddEdge(std::move(members[u])));
  }
  CountEdgesBuilt(hg);
  return hg;
}

Hypergraph BuildSocialInfluenceHypergroup(
    const graph::Digraph& graph, const SocialInfluenceOptions& options) {
  std::vector<double> influence;
  if (options.use_motif_pagerank) {
    influence = graph::MotifPageRank(graph.Adjacency(), options.mpr).scores;
  } else {
    influence = graph::PageRank(graph.Adjacency(), options.mpr.pagerank);
  }
  return BuildSocialInfluenceHypergroup(graph, influence, options.top_k);
}

Hypergraph BuildAttributeHypergroup(
    size_t num_users, const std::vector<std::vector<int>>& attributes,
    size_t min_size) {
  trace::TraceSpan span("hypergraph.build.attribute");
  Hypergraph hg(num_users);
  // Group each attribute column in parallel (columns are independent), then
  // insert edges serially in column order / ascending attribute value, the
  // same order the serial build produced.
  std::vector<std::map<int, std::vector<int>>> grouped(attributes.size());
  ParallelFor(0, attributes.size(), 1, [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      const auto& column = attributes[c];
      AHNTP_CHECK_EQ(column.size(), num_users)
          << "every attribute column must cover all users";
      for (size_t u = 0; u < num_users; ++u) {
        if (column[u] >= 0) {
          grouped[c][column[u]].push_back(static_cast<int>(u));
        }
      }
    }
  });
  for (auto& groups : grouped) {
    for (auto& [value, members] : groups) {
      if (members.size() >= min_size) {
        AHNTP_CHECK_OK(hg.AddEdge(std::move(members)));
      }
    }
  }
  CountEdgesBuilt(hg);
  return hg;
}

Hypergraph BuildPairwiseHypergroup(const graph::Digraph& graph) {
  trace::TraceSpan span("hypergraph.build.pairwise");
  Hypergraph hg(graph.num_nodes());
  std::set<std::pair<int, int>> seen;
  for (const graph::Edge& e : graph.edges()) {
    int lo = std::min(e.src, e.dst);
    int hi = std::max(e.src, e.dst);
    if (seen.insert({lo, hi}).second) {
      AHNTP_CHECK_OK(hg.AddEdge({lo, hi}));
    }
  }
  CountEdgesBuilt(hg);
  return hg;
}

std::vector<int> MultiHopBall(const graph::Digraph& graph, int anchor,
                              int hops, size_t max_edge_size) {
  std::vector<int> members;
  members.push_back(anchor);
  // NeighborhoodBall returns BFS order, so the size cap keeps the nearest
  // neighbours.
  for (int v : graph.NeighborhoodBall(anchor, hops)) {
    if (max_edge_size > 0 && members.size() >= max_edge_size) break;
    members.push_back(v);
  }
  return members;
}

Hypergraph BuildMultiHopHypergroup(const graph::Digraph& graph,
                                   const MultiHopOptions& options) {
  trace::TraceSpan span("hypergraph.build.multi_hop");
  AHNTP_CHECK_GE(options.num_hops, 1);
  Hypergraph hg(graph.num_nodes());
  for (int hop = 1; hop <= options.num_hops; ++hop) {
    // The BFS balls are independent per vertex; compute them in parallel
    // and append edges serially in vertex order (edge ids as in the serial
    // build).
    std::vector<std::vector<int>> per_vertex(graph.num_nodes());
    ParallelFor(0, graph.num_nodes(), kVertexGrain, [&](size_t u0, size_t u1) {
      for (size_t u = u0; u < u1; ++u) {
        per_vertex[u] = MultiHopBall(graph, static_cast<int>(u), hop,
                                     options.max_edge_size);
      }
    });
    for (size_t u = 0; u < graph.num_nodes(); ++u) {
      AHNTP_CHECK_OK(hg.AddEdge(std::move(per_vertex[u])));
    }
  }
  CountEdgesBuilt(hg);
  return hg;
}

}  // namespace ahntp::hypergraph
