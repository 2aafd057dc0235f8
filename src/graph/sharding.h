#ifndef AHNTP_GRAPH_SHARDING_H_
#define AHNTP_GRAPH_SHARDING_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace ahntp::graph {

// ---------------------------------------------------------------------------
// The user partition behind spilled inference (DESIGN.md §14): users are
// split deterministically into K contiguous shards. The inference plan's
// block store lays its embedding blocks out by it, and bench_scale routes
// streamed edges by it.
// ---------------------------------------------------------------------------

/// Deterministic user -> shard partition: shard s owns a contiguous id
/// range, and ranges differ by at most one user. Immutable once created;
/// every consumer (generator edge routing, the sharded inference plan)
/// derives its layout from the same instance, so shard ids mean the same
/// thing at every layer.
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

}  // namespace ahntp::graph

#endif  // AHNTP_GRAPH_SHARDING_H_
