#include "data/split.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>

#include "common/check.h"
#include "common/rng.h"

namespace ahntp::data {

namespace {

/// Each source's 3-hop undirected ball in one graph, computed on first
/// use. Hard-negative sampling draws the same sources many times (about
/// ten attempts per user on a Ciao-like split), and the BFS dominates it.
class BallMemo {
 public:
  explicit BallMemo(const graph::Digraph& graph)
      : graph_(graph), balls_(graph.num_nodes()) {}

  const std::vector<int>& Ball(int src) {
    std::optional<std::vector<int>>& ball = balls_[static_cast<size_t>(src)];
    if (!ball) ball = graph_.NeighborhoodBall(src, 3);
    return *ball;
  }

 private:
  const graph::Digraph& graph_;
  std::vector<std::optional<std::vector<int>>> balls_;
};

/// Samples `count` ordered pairs absent from `forbidden` (and non-self).
/// A `hard_fraction` of them are drawn from within 3 undirected hops of
/// their source in the memo's graph (falling back to uniform when a source
/// has no eligible nearby target).
std::vector<TrustPair> SampleNegatives(
    size_t num_users, size_t count,
    const std::set<std::pair<int, int>>& forbidden, BallMemo* balls,
    double hard_fraction, Rng* rng) {
  AHNTP_CHECK_GE(num_users, 2u);
  std::vector<TrustPair> negatives;
  negatives.reserve(count);
  std::set<std::pair<int, int>> used;
  size_t hard_target = static_cast<size_t>(
      static_cast<double>(count) * hard_fraction);
  size_t attempts = 0;
  const size_t max_attempts = count * 400 + 2000;
  while (negatives.size() < count && attempts < max_attempts) {
    ++attempts;
    int src = static_cast<int>(rng->NextBounded(num_users));
    int dst = -1;
    if (negatives.size() < hard_target) {
      const std::vector<int>& ball = balls->Ball(src);
      if (!ball.empty()) {
        dst = ball[static_cast<size_t>(rng->NextBounded(ball.size()))];
      }
    }
    if (dst < 0) {
      dst = static_cast<int>(rng->NextBounded(num_users));
    }
    if (src == dst) continue;
    auto key = std::make_pair(src, dst);
    if (forbidden.count(key) > 0) continue;
    if (!used.insert(key).second) continue;
    negatives.push_back({src, dst, 0.0f});
  }
  AHNTP_CHECK_EQ(negatives.size(), count)
      << "could not sample enough negative pairs (graph too dense?)";
  return negatives;
}

}  // namespace

namespace {

/// Shared split assembly: takes positives in their final order (shuffled or
/// chronological), slices train/test, samples negatives, and builds the
/// labelled pair lists.
TrustSplit BuildSplit(const SocialDataset& dataset,
                      std::vector<graph::Edge> positives,
                      const SplitOptions& options, Rng* rng_ptr) {
  Rng& rng = *rng_ptr;
  const size_t total = positives.size();
  const size_t num_test = static_cast<size_t>(total * options.test_fraction);
  const size_t num_train = std::min(
      total - num_test, static_cast<size_t>(total * options.train_fraction));
  AHNTP_CHECK_GT(num_test, 0u);
  AHNTP_CHECK_GT(num_train, 0u);

  TrustSplit split;
  split.train_positive.assign(positives.begin(),
                              positives.begin() + static_cast<long>(num_train));
  split.test_positive.assign(positives.end() - static_cast<long>(num_test),
                             positives.end());

  std::set<std::pair<int, int>> all_edges;
  for (const graph::Edge& e : dataset.trust_edges) {
    all_edges.insert({e.src, e.dst});
  }
  // Hard negatives are sampled from the *full* trust graph's neighbourhood
  // structure so train and test use the same notion of "nearby non-edge".
  graph::Digraph full_graph = dataset.TrustGraph().value();
  // Shared by the train and test samplers; freed when the split returns.
  BallMemo balls(full_graph);

  for (const graph::Edge& e : split.train_positive) {
    split.train_pairs.push_back({e.src, e.dst, 1.0f});
  }
  auto train_neg = SampleNegatives(
      dataset.num_users,
      split.train_positive.size() *
          static_cast<size_t>(options.train_negatives_per_positive),
      all_edges, &balls, options.hard_negative_fraction, &rng);
  split.train_pairs.insert(split.train_pairs.end(), train_neg.begin(),
                           train_neg.end());
  rng.Shuffle(&split.train_pairs);

  for (const graph::Edge& e : split.test_positive) {
    split.test_pairs.push_back({e.src, e.dst, 1.0f});
  }
  auto test_neg = SampleNegatives(
      dataset.num_users,
      split.test_positive.size() *
          static_cast<size_t>(options.test_negatives_per_positive),
      all_edges, &balls, options.hard_negative_fraction, &rng);
  split.test_pairs.insert(split.test_pairs.end(), test_neg.begin(),
                          test_neg.end());
  rng.Shuffle(&split.test_pairs);
  return split;
}

void CheckSplitOptions(const SocialDataset& dataset,
                       const SplitOptions& options) {
  AHNTP_CHECK(options.train_fraction > 0.0 && options.train_fraction <= 1.0);
  AHNTP_CHECK(options.test_fraction > 0.0 && options.test_fraction < 1.0);
  AHNTP_CHECK_LE(options.train_fraction + options.test_fraction, 1.0 + 1e-9);
  AHNTP_CHECK_GE(options.train_negatives_per_positive, 1);
  AHNTP_CHECK_GE(options.test_negatives_per_positive, 1);
  AHNTP_CHECK(options.hard_negative_fraction >= 0.0 &&
              options.hard_negative_fraction <= 1.0);
  AHNTP_CHECK_GT(dataset.trust_edges.size(), 4u);
}

}  // namespace

TrustSplit MakeSplit(const SocialDataset& dataset,
                     const SplitOptions& options) {
  CheckSplitOptions(dataset, options);
  Rng rng(options.seed);
  std::vector<graph::Edge> positives = dataset.trust_edges;
  rng.Shuffle(&positives);
  return BuildSplit(dataset, std::move(positives), options, &rng);
}

TrustSplit MakeTemporalSplit(const SocialDataset& dataset,
                             const SplitOptions& options) {
  CheckSplitOptions(dataset, options);
  AHNTP_CHECK_EQ(dataset.trust_edge_times.size(), dataset.trust_edges.size())
      << "temporal split needs trust_edge_times";
  Rng rng(options.seed);
  std::vector<size_t> order(dataset.trust_edges.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&dataset](size_t a, size_t b) {
    return dataset.trust_edge_times[a] < dataset.trust_edge_times[b];
  });
  std::vector<graph::Edge> positives;
  positives.reserve(order.size());
  for (size_t i : order) positives.push_back(dataset.trust_edges[i]);
  return BuildSplit(dataset, std::move(positives), options, &rng);
}

}  // namespace ahntp::data
