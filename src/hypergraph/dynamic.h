#ifndef AHNTP_HYPERGRAPH_DYNAMIC_H_
#define AHNTP_HYPERGRAPH_DYNAMIC_H_

#include <cstdint>
#include <vector>

#include "graph/delta.h"
#include "graph/digraph.h"
#include "hypergraph/builders.h"
#include "hypergraph/hypergraph.h"

namespace ahntp::hypergraph {

// ---------------------------------------------------------------------------
// Incremental hypergroup maintenance (DESIGN.md §17). After a graph delta,
// only hypergroups whose membership keys changed are re-derived, and those
// only partially: untouched hyperedges are retained verbatim as fragments
// and merged with freshly built fragments for the dirty anchors by a
// key-ordered merge private to dynamic.cc, whose canonical keys reproduce
// the monolithic builders' edge order bit-for-bit. Per group:
//
//   social     influence is a global fixed point, so any structural delta
//              may reorder any anchor's top-K — rebuilt whole (still cheap
//              next to re-encoding); rating-only deltas skip it entirely.
//   attribute  static attributes never change under edge/rating deltas —
//              never rebuilt.
//   pairwise   retained pairs + recomputed entries for pairs touched by the
//              delta. Keys pack the representative orientation, matching
//              the first-appearance order over the (sorted) edge list.
//   multi-hop  balls can only change within num_hops of a touched endpoint
//              (BFS reads adjacency only of vertices strictly inside the
//              ball); anchors outside that radius in both the old and new
//              graph are retained.
// ---------------------------------------------------------------------------

/// Incrementally updates the pairwise hypergroup. `old_hg` must be the
/// pairwise hypergroup of the pre-delta graph, `new_view` the post-delta
/// graph, and the applied lists the receipt's real changes. Bit-identical
/// to BuildPairwiseHypergroup(new_view).
Hypergraph UpdatePairwiseHypergroup(
    const Hypergraph& old_hg, const graph::Digraph& new_view,
    const std::vector<graph::Edge>& applied_adds,
    const std::vector<graph::Edge>& applied_removes);

/// Incrementally updates the multi-hop hypergroup: anchors within
/// options.num_hops of a touched vertex in either the old or new graph are
/// rebuilt against `new_view`; everything else is retained from `old_hg`.
/// Bit-identical to BuildMultiHopHypergroup(new_view, options).
Hypergraph UpdateMultiHopHypergroup(const Hypergraph& old_hg,
                                    const graph::Digraph& old_view,
                                    const graph::Digraph& new_view,
                                    const MultiHopOptions& options,
                                    const std::vector<int>& touched_vertices);

// ---------------------------------------------------------------------------
// Branch diffing. The adaptive convolutions consume a branch hypergraph
// (concatenation of two hypergroups); after an update the model needs to
// know which hyperedges are new or changed, how surviving edges map to old
// edge ids (edge-weight remapping), and which vertices saw their *ordered*
// incident-edge sequence change (their attention segments reorder even when
// every member set survives — e.g. a pairwise representative flip). Edges
// are matched across generations by a stable int64 identity key, namespaced
// per hypergroup so concatenated branches can be diffed in one pass.
// ---------------------------------------------------------------------------

/// Stable identity keys (one per edge, build order) for each hypergroup.
/// The tag in the top byte keeps groups disjoint inside a branch.
std::vector<int64_t> SocialEdgeKeys(size_t num_users);
std::vector<int64_t> AttributeEdgeKeys(
    size_t num_users, const std::vector<std::vector<int>>& attributes,
    size_t min_size = 2);
std::vector<int64_t> PairwiseEdgeKeys(const Hypergraph& pairwise,
                                      const graph::Digraph& view);
std::vector<int64_t> MultiHopEdgeKeys(size_t num_users,
                                      const MultiHopOptions& options);

/// Concatenates two key vectors (the Hypergraph::Concat of identities).
std::vector<int64_t> ConcatKeys(const std::vector<int64_t>& a,
                                const std::vector<int64_t>& b);

/// What changed between two generations of one branch hypergraph.
struct BranchDiff {
  /// Per new edge id: matching old edge id (same identity key) or -1.
  std::vector<int> new_from_old;
  /// New edge ids that are brand new or whose member set / weight changed.
  std::vector<int> changed_edges;
  /// Vertices whose ordered sequence of incident identity keys changed —
  /// including members of removed edges. Their attention segments are laid
  /// out differently even if each surviving edge is unchanged.
  std::vector<int> reorder_dirty;
  bool any_change = false;
};

/// Diffs `old_hg` against `new_hg` using the per-edge identity keys (which
/// must be parallel to the respective edge lists, and unique within each).
BranchDiff DiffBranch(const Hypergraph& old_hg,
                      const std::vector<int64_t>& old_keys,
                      const Hypergraph& new_hg,
                      const std::vector<int64_t>& new_keys);

}  // namespace ahntp::hypergraph

#endif  // AHNTP_HYPERGRAPH_DYNAMIC_H_
