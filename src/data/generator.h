#ifndef AHNTP_DATA_GENERATOR_H_
#define AHNTP_DATA_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/delta.h"

namespace ahntp::data {

/// Configuration for the synthetic social-network generator.
///
/// The generator plants exactly the signals AHNTP's evaluation depends on:
///   * community structure (attribute + trust homophily),
///   * influencers via preferential attachment (social-influence signal),
///   * triadic closure (triangular motifs, the MPR signal),
///   * correlated purchase behaviour (behavioural features),
/// so that the relative ordering of methods in the paper's tables is
/// reproducible without the proprietary Epinions/Ciao dumps. See DESIGN.md
/// for the substitution rationale.
struct GeneratorConfig {
  std::string name = "synthetic";
  size_t num_users = 1000;
  size_t num_items = 2500;
  size_t num_communities = 16;

  /// Expected trust edges = num_users * avg_trust_out_degree.
  double avg_trust_out_degree = 7.5;
  /// Expected purchases = num_users * avg_purchases_per_user.
  double avg_purchases_per_user = 25.0;

  /// Probability that a trust edge stays inside the source's community.
  double intra_community_prob = 0.80;
  /// Probability that a new edge closes a triangle (friend-of-friend).
  double triadic_closure_prob = 0.45;
  /// Probability that the reverse edge is added too.
  double reciprocation_prob = 0.30;
  /// Mixture weight on degree-proportional (influencer) target selection.
  double preferential_attachment = 0.65;

  /// Probability that an attribute follows the community archetype.
  double attribute_fidelity = 0.75;
  size_t hobby_cardinality = 12;
  size_t school_cardinality = 15;
  size_t city_cardinality = 10;
  size_t age_bands = 6;

  size_t num_item_categories = 25;
  /// Probability a purchase comes from the community's preferred categories.
  double category_affinity = 0.7;

  uint64_t seed = 42;

  /// Preset matching the Epinions row of Table III, scaled by `scale`
  /// (1.0 = full size: 8935 users / 21335 items / 220673 purchases /
  /// 65948 trust relations). scale > 1.0 upscales the population for
  /// out-of-core stress sweeps (bench_scale drives this past 1M users).
  static GeneratorConfig EpinionsLike(double scale = 0.125);

  /// Preset matching the Ciao row of Table III (4104 users / 75071 items /
  /// 171405 purchases / 41675 trust relations). Ciao is denser in trust and
  /// has far more items per user.
  static GeneratorConfig CiaoLike(double scale = 0.125);
};

/// Composable adversarial overlays applied *after* the clean generation
/// phases, on the continuation of the same RNG stream (DESIGN.md §16). The
/// clean prefix of the stream — and with it every golden-trace-pinned
/// artifact of Generate() — is untouched; an all-default spec is a no-op.
///
/// Fraction fields use a negative sentinel for "disabled". An enabled
/// fraction must lie strictly inside (0, 1): a 0-fraction attack is a
/// misconfigured no-op and a 1-fraction shift leaves no clean regime to
/// train on, so both are rejected as InvalidArgument rather than silently
/// producing a degenerate benchmark.
struct AttackSpec {
  /// Sybil rings: `sybil_rings` disjoint collusion rings of
  /// `sybil_ring_size` existing users each. Ring members exchange mutual
  /// trust (cycle + chords) to inflate each other, and each member attacks
  /// `sybil_targets_per_member` victims sampled preferentially by in-degree
  /// (latching onto influencers poisons the social-influence signal).
  size_t sybil_rings = 0;
  size_t sybil_ring_size = 0;
  size_t sybil_targets_per_member = 2;

  /// Trust-spam hubs: `spam_hubs` users each emitting `spam_edges_per_hub`
  /// trust edges to uniformly random targets — indiscriminate link spam
  /// that floods the preferential-attachment structure.
  size_t spam_hubs = 0;
  size_t spam_edges_per_hub = 0;

  /// Camouflage: each attacker (sybil member or spam hub) independently
  /// adopts, with this probability, the attributes and a slice of the
  /// purchase history of a deterministic honest "role model", so
  /// behavioural/attribute features cannot separate attackers from honest
  /// users. Requires at least one sybil ring or spam hub. < 0 = disabled.
  double camouflage_fraction = -1.0;

  /// Train/serve distribution shift: each trust edge in the latest quarter
  /// of the insertion order is, with this probability, re-targeted to a
  /// uniformly random user in a *different* community — the late regime
  /// stops obeying homophily and preferential attachment. Under the
  /// temporal split the model trains on the clean regime and is evaluated
  /// on the shifted one. < 0 = disabled.
  double shift_fraction = -1.0;

  /// True when any attack component is enabled.
  bool any() const;

  /// Full degenerate-parameter validation against the target config:
  /// zero-size rings, fraction 0/1 (see above), attacker counts exceeding
  /// the population, shift on a graph with no edges or a single community,
  /// and non-finite fractions are all InvalidArgument. Fuzzed specs must
  /// fail here, never crash the generator.
  Status Validate(const GeneratorConfig& config) const;

  // Named presets used by bench_robustness and the tests.
  static AttackSpec SybilRing(size_t rings, size_t ring_size);
  static AttackSpec SpamHubs(size_t hubs, size_t edges_per_hub);
  /// Sybil rings whose members all mimic honest users.
  static AttackSpec Camouflaged(size_t rings, size_t ring_size,
                                double fraction = 0.9);
  static AttackSpec Shift(double fraction);
};

/// What an attack application actually did (sizes are post-dedup).
struct AttackReport {
  /// Attacker user ids (sybil members then spam hubs), ascending.
  std::vector<int> attackers;
  /// Trust edges before the overlay; trust_edges[0..clean_edges) of the
  /// attacked dataset are element-for-element the clean dataset's edges
  /// (minus any shift re-targeting inside the tail window).
  size_t clean_edges = 0;
  size_t sybil_edges = 0;
  size_t spam_edges = 0;
  size_t shifted_edges = 0;
  size_t camouflaged_users = 0;
  size_t camouflage_purchases = 0;
};

/// One trust edge as delivered by the streaming generation path. `index` is
/// the edge's global insertion index in the generation sequence — it doubles
/// as the temporal key (Generate() derives trust_edge_times from it) and as
/// the dedup key when an edge is routed to both endpoint shards.
struct StreamedEdge {
  int src = 0;
  int dst = 0;
  int64_t index = 0;
};

/// Consumer of streamed edges, called once per accepted edge in insertion
/// order.
using EdgeSink = std::function<void(const StreamedEdge&)>;

/// Deterministic synthetic social-network generator.
class SocialNetworkGenerator {
 public:
  explicit SocialNetworkGenerator(GeneratorConfig config)
      : config_(std::move(config)) {}

  /// Generates a full dataset; deterministic for a fixed config.
  SocialDataset Generate() const;

  /// Generate() plus the adversarial overlay described by `attack`, drawn
  /// from the continuation of the same RNG stream — the clean phases are
  /// bit-identical to Generate()'s, so golden traces pinned to clean
  /// generation never move. Returns InvalidArgument (via
  /// AttackSpec::Validate) on degenerate parameters; `report` (optional)
  /// receives what was injected. Edge times are re-normalized over the
  /// final edge list, with attack edges appended last (latest times).
  Result<SocialDataset> GenerateWithAttacks(
      const AttackSpec& attack, AttackReport* report = nullptr) const;

  /// Streaming variant of the social phases: runs the community, attribute,
  /// and trust-edge phases on the *same RNG stream* as Generate(), but
  /// delivers each accepted edge through `sink` in insertion order instead
  /// of accumulating a full edge list. Only the generator's working state
  /// (adjacency-shaped, O(E) ints) stays in RAM, so the caller can spill
  /// edges to per-shard storage and build graphs out of core. The edge
  /// sequence is element-for-element identical to Generate()'s trust_edges
  /// (and `index` reproduces trust_edge_times via index / (count - 1)).
  /// Items and purchases are not generated. When `communities_out` is
  /// non-null it receives the per-user community assignment.
  /// Returns the number of edges emitted.
  size_t StreamTrustEdges(const EdgeSink& sink,
                          std::vector<int>* communities_out = nullptr) const;

  const GeneratorConfig& config() const { return config_; }

 private:
  GeneratorConfig config_;
};

/// Configuration of the synthetic mutation stream (DESIGN.md §17). Like the
/// attack overlays, deltas are drawn on their *own* pinned RNG stream
/// (`seed`), so the clean generation artifacts — and every golden trace
/// pinned to them — never move when a workload adds mutation traffic.
struct DeltaStreamConfig {
  size_t num_deltas = 16;
  /// Edge adds per delta: endpoints drawn uniformly (src != dst). Adds may
  /// collide with live edges; the store's idempotent-apply semantics count
  /// them as ignored, which is part of what the stream exercises.
  size_t adds_per_delta = 4;
  /// Edge removes per delta, sampled uniformly from the edges live at that
  /// point in the stream (the generator replays applied semantics —
  /// removes before adds — so later deltas see earlier ones' effects).
  size_t removes_per_delta = 2;
  /// Rating rows per delta: uniform user/item, integer rating in 1..5.
  size_t ratings_per_delta = 2;
  uint64_t seed = 20240717;
};

/// Deterministic stream of graph deltas against `dataset`'s trust graph:
/// exactly `config.num_deltas` deltas, each mixing adds, removes of
/// then-live edges, and rating rows. Pure function of (dataset edge list,
/// num_users, num_items, config) — independent of thread count and of any
/// other RNG stream. Drives the dynamic tests, bench_dynamic, and the
/// serve_demo mutation phase.
std::vector<graph::GraphDelta> GenerateTrustDeltas(
    const SocialDataset& dataset, const DeltaStreamConfig& config);

/// Bounded per-shard edge buffering for the streaming path: edges are routed
/// into per-shard buffers of at most `capacity` edges; a full buffer is
/// handed to `flush(shard, edges)` and cleared, so peak buffered memory is
/// num_shards * capacity edges regardless of graph size. An edge whose
/// endpoints fall in two different shards is delivered to both (each shard's
/// local graph sees every edge incident to its users); consumers deduplicate
/// by StreamedEdge::index where global uniqueness matters. Call FlushAll() once the stream
/// ends to drain partial buffers.
class ShardedEdgeBuffer {
 public:
  using FlushFn =
      std::function<void(int shard, const std::vector<StreamedEdge>& edges)>;

  /// capacity is clamped to >= 1; flush must be callable.
  ShardedEdgeBuffer(int num_shards, size_t capacity, FlushFn flush);

  /// Routes one edge to src_shard (and dst_shard when different).
  void Route(const StreamedEdge& edge, int src_shard, int dst_shard);

  /// Drains every non-empty buffer through flush, in shard order.
  void FlushAll();

 private:
  void Append(int shard, const StreamedEdge& edge);

  size_t capacity_ = 1;
  std::vector<std::vector<StreamedEdge>> buffers_;
  FlushFn flush_;
};

}  // namespace ahntp::data

#endif  // AHNTP_DATA_GENERATOR_H_
