#include "hypergraph/dynamic.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ahntp::hypergraph {

namespace {

// Identity-key namespaces (top byte) so the two hypergroups concatenated
// into one branch can never collide.
constexpr int64_t kSocialTag = int64_t{1} << 56;
constexpr int64_t kAttributeTag = int64_t{2} << 56;
constexpr int64_t kPairwiseTag = int64_t{3} << 56;
constexpr int64_t kMultiHopTag = int64_t{4} << 56;

int64_t PairKey(int lo, int hi) {
  // 28 bits per endpoint leaves room for the tag; 268M users is far past
  // the out-of-core ceiling.
  AHNTP_CHECK(lo >= 0 && hi >= 0 && lo < (1 << 28) && hi < (1 << 28));
  return kPairwiseTag | (static_cast<int64_t>(lo) << 28) |
         static_cast<int64_t>(hi);
}

// Both updates below split the hypergroup into fragments — hyperedges
// retained from the old hypergroup plus hyperedges rebuilt for what the
// delta touched — and merge them back. Each fragment edge carries a
// canonical int64 key that reproduces the monolithic builder's append
// order, so sorting the merged edges by key yields a hypergraph
// bit-identical to a fresh build. Canonical keys per builder:
//   pairwise   the representative orientation src << 32 | dst, i.e. the
//              pair's first appearance in the sorted canonical edge list
//              (BuildPairwiseHypergroup appends pairs in that order)
//   multi-hop  (hop - 1) * num_users + u    (hop-major, then anchor u)

/// One fragment's hyperedges: member ids plus the canonical merge key.
struct HypergroupFragment {
  struct Edge {
    int64_t key = 0;
    std::vector<int> members;
  };
  std::vector<Edge> edges;
};

/// Merges fragments into one hypergraph over `num_users` vertices, edges
/// in ascending key order. Keys are unique across fragments: an edge is
/// either retained or rebuilt, never both.
Hypergraph MergeFragments(size_t num_users,
                          std::vector<HypergroupFragment> fragments) {
  trace::TraceSpan span("hypergraph.build.merge_fragments");
  std::vector<HypergroupFragment::Edge> all;
  size_t total = 0;
  for (const HypergroupFragment& f : fragments) total += f.edges.size();
  all.reserve(total);
  for (HypergroupFragment& f : fragments) {
    for (HypergroupFragment::Edge& e : f.edges) all.push_back(std::move(e));
  }
  std::sort(all.begin(), all.end(),
            [](const HypergroupFragment::Edge& a,
               const HypergroupFragment::Edge& b) { return a.key < b.key; });
  Hypergraph hg(num_users);
  for (size_t i = 0; i < all.size(); ++i) {
    AHNTP_CHECK(i == 0 || all[i - 1].key < all[i].key)
        << "duplicate fragment key " << all[i].key;
    AHNTP_CHECK_OK(hg.AddEdge(std::move(all[i].members)));
  }
  AHNTP_METRIC_COUNT("hypergraph.edges_built",
                     static_cast<int64_t>(hg.num_edges()));
  return hg;
}

/// Vertices within `hops` (undirected) steps of any source, sources
/// included — the only anchors whose BFS balls a delta can have changed.
std::vector<char> WithinHops(const graph::Digraph& g,
                             const std::vector<int>& sources, int hops) {
  std::vector<int> dist(g.num_nodes(), -1);
  std::queue<int> frontier;
  for (int s : sources) {
    if (s >= 0 && static_cast<size_t>(s) < g.num_nodes() && dist[s] == -1) {
      dist[s] = 0;
      frontier.push(s);
    }
  }
  while (!frontier.empty()) {
    int v = frontier.front();
    frontier.pop();
    if (dist[v] >= hops) continue;
    auto visit = [&](int w) {
      if (dist[w] == -1) {
        dist[w] = dist[v] + 1;
        frontier.push(w);
      }
    };
    for (int w : g.OutNeighbors(v)) visit(w);
    for (int w : g.InNeighbors(v)) visit(w);
  }
  std::vector<char> mask(g.num_nodes(), 0);
  for (size_t v = 0; v < mask.size(); ++v) mask[v] = dist[v] >= 0 ? 1 : 0;
  return mask;
}

}  // namespace

Hypergraph UpdatePairwiseHypergroup(
    const Hypergraph& old_hg, const graph::Digraph& new_view,
    const std::vector<graph::Edge>& applied_adds,
    const std::vector<graph::Edge>& applied_removes) {
  trace::TraceSpan span("hypergraph.update.pairwise");
  std::set<std::pair<int, int>> touched;
  for (const graph::Edge& e : applied_adds) {
    touched.insert({std::min(e.src, e.dst), std::max(e.src, e.dst)});
  }
  for (const graph::Edge& e : applied_removes) {
    touched.insert({std::min(e.src, e.dst), std::max(e.src, e.dst)});
  }
  // The key packs the representative orientation: the lexicographically
  // first existing direction, i.e. the pair's first appearance in the
  // sorted canonical edge list (see the canonical keys above).
  auto representative_key = [&new_view](int lo, int hi) {
    bool lo_hi = new_view.HasEdge(lo, hi);
    int64_t src = lo_hi ? lo : hi;
    int64_t dst = lo_hi ? hi : lo;
    return (src << 32) | dst;
  };
  HypergroupFragment retained;
  retained.edges.reserve(old_hg.num_edges());
  for (size_t e = 0; e < old_hg.num_edges(); ++e) {
    const std::vector<int>& members = old_hg.EdgeVertices(e);
    AHNTP_CHECK_EQ(members.size(), 2u);
    int lo = members[0], hi = members[1];
    if (touched.count({lo, hi})) continue;  // rebuilt below (or gone)
    retained.edges.push_back({representative_key(lo, hi), {lo, hi}});
  }
  HypergroupFragment changed;
  for (const auto& [lo, hi] : touched) {
    if (!new_view.HasEdge(lo, hi) && !new_view.HasEdge(hi, lo)) continue;
    changed.edges.push_back({representative_key(lo, hi), {lo, hi}});
  }
  std::vector<HypergroupFragment> fragments;
  fragments.push_back(std::move(retained));
  fragments.push_back(std::move(changed));
  AHNTP_METRIC_COUNT("hypergraph.update.pairwise_touched",
                     static_cast<int64_t>(touched.size()));
  return MergeFragments(new_view.num_nodes(), std::move(fragments));
}

Hypergraph UpdateMultiHopHypergroup(const Hypergraph& old_hg,
                                    const graph::Digraph& old_view,
                                    const graph::Digraph& new_view,
                                    const MultiHopOptions& options,
                                    const std::vector<int>& touched_vertices) {
  trace::TraceSpan span("hypergraph.update.multi_hop");
  AHNTP_CHECK_GE(options.num_hops, 1);
  const size_t n = new_view.num_nodes();
  AHNTP_CHECK_EQ(old_view.num_nodes(), n);
  AHNTP_CHECK_EQ(old_hg.num_edges(),
                 static_cast<size_t>(options.num_hops) * n);
  // An anchor's ball can only differ if a touched endpoint lies within
  // num_hops of it — the BFS to depth h reads the adjacency of vertices at
  // distance < h only, and a delta changes adjacency only at its endpoints.
  // Check the radius in *both* graphs: a removed edge can put an anchor out
  // of range in the new graph while its old ball still reached the change.
  std::vector<char> dirty_old =
      WithinHops(old_view, touched_vertices, options.num_hops);
  std::vector<char> dirty_new =
      WithinHops(new_view, touched_vertices, options.num_hops);
  HypergroupFragment retained;
  HypergroupFragment changed;
  size_t dirty_count = 0;
  for (size_t u = 0; u < n; ++u) {
    const bool dirty = dirty_old[u] || dirty_new[u];
    if (dirty) ++dirty_count;
    for (int hop = 1; hop <= options.num_hops; ++hop) {
      int64_t key = static_cast<int64_t>(hop - 1) * static_cast<int64_t>(n) +
                    static_cast<int64_t>(u);
      if (!dirty) {
        // Monolithic append order is hop-major then anchor, so the old edge
        // for (hop, u) sits exactly at this key's index.
        retained.edges.push_back(
            {key, old_hg.EdgeVertices(static_cast<size_t>(key))});
        continue;
      }
      changed.edges.push_back(
          {key, MultiHopBall(new_view, static_cast<int>(u), hop,
                             options.max_edge_size)});
    }
  }
  AHNTP_METRIC_COUNT("hypergraph.update.multi_hop_dirty_anchors",
                     static_cast<int64_t>(dirty_count));
  std::vector<HypergroupFragment> fragments;
  fragments.push_back(std::move(retained));
  fragments.push_back(std::move(changed));
  return MergeFragments(n, std::move(fragments));
}

std::vector<int64_t> SocialEdgeKeys(size_t num_users) {
  std::vector<int64_t> keys(num_users);
  for (size_t u = 0; u < num_users; ++u) {
    keys[u] = kSocialTag | static_cast<int64_t>(u);
  }
  return keys;
}

std::vector<int64_t> AttributeEdgeKeys(
    size_t num_users, const std::vector<std::vector<int>>& attributes,
    size_t min_size) {
  // Mirrors BuildAttributeHypergroup's append order: column-major, value
  // ascending, groups below min_size skipped.
  std::vector<int64_t> keys;
  for (size_t c = 0; c < attributes.size(); ++c) {
    const auto& column = attributes[c];
    AHNTP_CHECK_EQ(column.size(), num_users);
    std::map<int, size_t> group_sizes;
    for (size_t u = 0; u < num_users; ++u) {
      if (column[u] >= 0) ++group_sizes[column[u]];
    }
    for (const auto& [value, size] : group_sizes) {
      if (size >= min_size) {
        keys.push_back(kAttributeTag | (static_cast<int64_t>(c) << 32) |
                       static_cast<int64_t>(value));
      }
    }
  }
  return keys;
}

std::vector<int64_t> PairwiseEdgeKeys(const Hypergraph& pairwise,
                                      const graph::Digraph& view) {
  (void)view;  // identity is the unordered pair; orientation is order, not id
  std::vector<int64_t> keys;
  keys.reserve(pairwise.num_edges());
  for (size_t e = 0; e < pairwise.num_edges(); ++e) {
    const std::vector<int>& members = pairwise.EdgeVertices(e);
    AHNTP_CHECK_EQ(members.size(), 2u);
    keys.push_back(PairKey(members[0], members[1]));
  }
  return keys;
}

std::vector<int64_t> MultiHopEdgeKeys(size_t num_users,
                                      const MultiHopOptions& options) {
  std::vector<int64_t> keys;
  keys.reserve(static_cast<size_t>(options.num_hops) * num_users);
  for (int hop = 1; hop <= options.num_hops; ++hop) {
    for (size_t u = 0; u < num_users; ++u) {
      keys.push_back(kMultiHopTag |
                     (static_cast<int64_t>(hop - 1) *
                          static_cast<int64_t>(num_users) +
                      static_cast<int64_t>(u)));
    }
  }
  return keys;
}

std::vector<int64_t> ConcatKeys(const std::vector<int64_t>& a,
                                const std::vector<int64_t>& b) {
  std::vector<int64_t> keys;
  keys.reserve(a.size() + b.size());
  keys.insert(keys.end(), a.begin(), a.end());
  keys.insert(keys.end(), b.begin(), b.end());
  return keys;
}

BranchDiff DiffBranch(const Hypergraph& old_hg,
                      const std::vector<int64_t>& old_keys,
                      const Hypergraph& new_hg,
                      const std::vector<int64_t>& new_keys) {
  trace::TraceSpan span("hypergraph.diff_branch");
  AHNTP_CHECK_EQ(old_keys.size(), old_hg.num_edges());
  AHNTP_CHECK_EQ(new_keys.size(), new_hg.num_edges());
  AHNTP_CHECK_EQ(old_hg.num_vertices(), new_hg.num_vertices());
  const size_t n = new_hg.num_vertices();

  std::unordered_map<int64_t, int> old_by_key;
  old_by_key.reserve(old_keys.size());
  for (size_t e = 0; e < old_keys.size(); ++e) {
    bool inserted =
        old_by_key.emplace(old_keys[e], static_cast<int>(e)).second;
    AHNTP_CHECK(inserted) << "duplicate identity key in old branch";
  }

  BranchDiff diff;
  diff.new_from_old.assign(new_hg.num_edges(), -1);
  for (size_t e = 0; e < new_hg.num_edges(); ++e) {
    auto it = old_by_key.find(new_keys[e]);
    if (it == old_by_key.end()) {
      diff.changed_edges.push_back(static_cast<int>(e));
      continue;
    }
    diff.new_from_old[e] = it->second;
    const size_t old_e = static_cast<size_t>(it->second);
    if (new_hg.EdgeVertices(e) != old_hg.EdgeVertices(old_e) ||
        new_hg.EdgeWeight(e) != old_hg.EdgeWeight(old_e)) {
      diff.changed_edges.push_back(static_cast<int>(e));
    }
  }

  // A vertex's convolution row depends on the *ordered contents* of its
  // incident hyperedges (the attention softmax runs over its incidence
  // pairs in edge-major order). Vertices whose ordered identity-key
  // sequence moved — including members of removed edges, whose key
  // disappears — must be recomputed even when every surviving edge kept
  // its members.
  std::vector<std::vector<int64_t>> old_seq(n), new_seq(n);
  for (size_t e = 0; e < old_hg.num_edges(); ++e) {
    for (int v : old_hg.EdgeVertices(e)) old_seq[v].push_back(old_keys[e]);
  }
  for (size_t e = 0; e < new_hg.num_edges(); ++e) {
    for (int v : new_hg.EdgeVertices(e)) new_seq[v].push_back(new_keys[e]);
  }
  for (size_t v = 0; v < n; ++v) {
    if (old_seq[v] != new_seq[v]) {
      diff.reorder_dirty.push_back(static_cast<int>(v));
    }
  }

  diff.any_change =
      !diff.changed_edges.empty() || !diff.reorder_dirty.empty() ||
      old_hg.num_edges() != new_hg.num_edges();
  return diff;
}

}  // namespace ahntp::hypergraph
