#include "graph/sharding.h"

#include "common/check.h"
#include "common/strings.h"

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

}  // namespace ahntp::graph
