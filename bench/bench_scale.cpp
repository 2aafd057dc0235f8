// Out-of-core scale sweep (DESIGN.md §14): drives the EpinionsLike preset
// past 1M users through streamed edge routing plus spilled inference and
// emits `BENCH_scale.json` with build time, peak RSS, and score latency vs
// population N and shard count K.
//
// Each (N, K) point runs in a child process (this binary re-exec'd with
// --point) so its peak RSS — read from /proc/self/status VmHWM — reflects
// exactly that configuration. A point:
//   1. stream-generates the trust graph (data::StreamTrustEdges), routing
//      edges through bounded per-shard buffers into per-shard spill files —
//      the full edge list never exists in RAM;
//   2. rebuilds each shard's local graph from its spill file, one shard at
//      a time;
//   3. spills deterministic per-user embeddings into a ShardEmbeddingStore
//      one shard block at a time, then scores batches of sampled pairs,
//      gathering each batch's rows with one fetch per block it touches.
// The score digest (CRC32 of the result floats) is independent of K by
// construction; the parent enforces that as a built-in parity gate.
//
//   ./build/bench/bench_scale                      # full sweep to 1M users
//   ./build/bench/bench_scale --users=2000,8000 --shards=1,4  # small sweep
//
// Defaults reach 1,000,000 users; expect several minutes per 1M point on
// one core.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/fileio.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "data/generator.h"
#include "graph/digraph.h"
#include "graph/sharding.h"
#include "models/inference_plan.h"

namespace {

using namespace ahntp;

// The Table III Epinions population; --users values scale against it.
constexpr double kEpinionsUsers = 8935.0;

uint64_t HashMix(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic per-user embedding row: uniform in [-1, 1), independent of
/// shard count — the digest parity across K rests on this.
void FillEmbeddingRow(int user, size_t dim, float* out) {
  for (size_t j = 0; j < dim; ++j) {
    uint64_t h = HashMix(static_cast<uint64_t>(user) * 1315423911ull + j);
    out[j] = static_cast<float>(
        static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0);
  }
}

/// Peak resident set (VmHWM) of this process, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

struct PointResult {
  size_t users = 0;
  int shards = 0;
  size_t edges = 0;
  double generate_s = 0.0;     // stream-generate + spill edges
  double graph_build_s = 0.0;  // per-shard local graphs from spill files
  double store_spill_s = 0.0;  // embedding blocks to disk
  double score_p50_ms = 0.0;   // per batch, gathered through the store
  double resident_budget_mb = 0.0;
  double peak_rss_mb = 0.0;
  uint32_t digest = 0;
};

/// On-disk record of one routed edge (see ShardedEdgeBuffer).
struct EdgeRecord {
  int32_t src;
  int32_t dst;
  int64_t index;
};

/// One (N, K) measurement; runs inside the child process.
PointResult RunPoint(size_t users, int shards, size_t dim, int max_resident,
                     size_t num_pairs, size_t batch,
                     const std::string& spill_root) {
  PointResult result;
  result.users = users;
  result.shards = shards;

  const std::string dir =
      spill_root + "/n" + std::to_string(users) + "_k" + std::to_string(shards);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto sharding_result = graph::UserSharding::Create(users, shards);
  AHNTP_CHECK_OK(sharding_result.status());
  const graph::UserSharding sharding = std::move(sharding_result).value();

  // ---- Phase 1: stream-generate, spilling edges per shard. ---------------
  data::GeneratorConfig config =
      data::GeneratorConfig::EpinionsLike(static_cast<double>(users) /
                                          kEpinionsUsers);
  config.num_users = users;  // exact, not rounded through the preset
  data::SocialNetworkGenerator generator(config);

  std::vector<std::ofstream> shard_files(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shard_files[static_cast<size_t>(s)].open(
        dir + "/edges_" + std::to_string(s) + ".bin",
        std::ios::binary | std::ios::trunc);
    AHNTP_CHECK(shard_files[static_cast<size_t>(s)].good());
  }
  data::ShardedEdgeBuffer buffer(
      shards, /*capacity=*/1 << 16,
      [&shard_files](int shard, const std::vector<data::StreamedEdge>& edges) {
        std::vector<EdgeRecord> records(edges.size());
        for (size_t i = 0; i < edges.size(); ++i) {
          records[i] = {edges[i].src, edges[i].dst, edges[i].index};
        }
        shard_files[static_cast<size_t>(shard)].write(
            reinterpret_cast<const char*>(records.data()),
            static_cast<std::streamsize>(records.size() * sizeof(EdgeRecord)));
      });

  Stopwatch generate_timer;
  result.edges = generator.StreamTrustEdges(
      [&](const data::StreamedEdge& e) {
        buffer.Route(e, sharding.ShardOf(e.src), sharding.ShardOf(e.dst));
      });
  buffer.FlushAll();
  for (auto& f : shard_files) {
    f.close();
    AHNTP_CHECK(f.good());
  }
  result.generate_s = generate_timer.ElapsedSeconds();

  // ---- Phase 2: per-shard local graphs, one shard resident at a time. ----
  Stopwatch build_timer;
  size_t local_edges_total = 0;
  for (int s = 0; s < shards; ++s) {
    std::ifstream in(dir + "/edges_" + std::to_string(s) + ".bin",
                     std::ios::binary);
    AHNTP_CHECK(in.good());
    std::vector<EdgeRecord> records;
    EdgeRecord record;
    while (in.read(reinterpret_cast<char*>(&record), sizeof(record))) {
      records.push_back(record);
    }
    // Compact local ids over the endpoints this shard sees (owned + the
    // opposite endpoints of its incident edges).
    std::vector<int> vertices;
    vertices.reserve(records.size() * 2);
    for (const EdgeRecord& r : records) {
      vertices.push_back(r.src);
      vertices.push_back(r.dst);
    }
    for (int u : sharding.UsersOf(s)) vertices.push_back(u);
    std::sort(vertices.begin(), vertices.end());
    vertices.erase(std::unique(vertices.begin(), vertices.end()),
                   vertices.end());
    std::vector<graph::Edge> edges;
    edges.reserve(records.size());
    for (const EdgeRecord& r : records) {
      int ls = static_cast<int>(
          std::lower_bound(vertices.begin(), vertices.end(), r.src) -
          vertices.begin());
      int ld = static_cast<int>(
          std::lower_bound(vertices.begin(), vertices.end(), r.dst) -
          vertices.begin());
      edges.push_back({ls, ld});
    }
    auto local = graph::Digraph::FromEdges(vertices.size(), edges);
    AHNTP_CHECK_OK(local.status());
    local_edges_total += local.value().num_edges();
  }
  AHNTP_CHECK_GE(local_edges_total, result.edges);
  result.graph_build_s = build_timer.ElapsedSeconds();

  // ---- Phase 3: embedding store, one block in RAM at a time. -------------
  models::ShardEmbeddingStore store(sharding, dim,
                                    models::PlanPrecision::kFloat32,
                                    dir + "/emb", max_resident);
  Stopwatch spill_timer;
  for (int s = 0; s < shards; ++s) {
    const std::vector<int>& owned = sharding.UsersOf(s);
    models::EmbeddingBlock block;
    block.rows = tensor::Matrix(owned.size(), dim);
    for (size_t r = 0; r < owned.size(); ++r) {
      FillEmbeddingRow(owned[r], dim, block.rows.RowPtr(r));
    }
    AHNTP_CHECK_OK(store.Put(s, std::move(block)));
  }
  result.store_spill_s = spill_timer.ElapsedSeconds();
  const size_t max_block_rows = (users + static_cast<size_t>(shards) - 1) /
                                static_cast<size_t>(shards);
  result.resident_budget_mb =
      static_cast<double>(max_resident) *
      static_cast<double>(max_block_rows * dim * sizeof(float)) /
      (1024.0 * 1024.0);

  // ---- Phase 4: score sampled pairs, one store gather per batch. ---------
  std::vector<int> endpoints;  // the batch's src users, then its dst users
  std::vector<float*> rows;
  tensor::Matrix src_rows, dst_rows;
  std::vector<double> batch_ms;
  uint32_t digest = 0;
  size_t scored = 0;
  Stopwatch batch_timer;
  while (scored < num_pairs) {
    batch_timer.Restart();
    const size_t n = std::min(num_pairs - scored, batch);
    src_rows.ResetShape(n, dim);
    dst_rows.ResetShape(n, dim);
    endpoints.resize(2 * n);
    rows.resize(2 * n);
    for (size_t i = 0; i < n; ++i) {
      endpoints[i] = static_cast<int>(HashMix((scored + i) * 2) % users);
      endpoints[n + i] =
          static_cast<int>(HashMix((scored + i) * 2 + 1) % users);
      rows[i] = src_rows.RowPtr(i);
      rows[n + i] = dst_rows.RowPtr(i);
    }
    AHNTP_CHECK_OK(store.Gather(endpoints, rows));
    for (size_t i = 0; i < n; ++i) {
      const float* src_row = src_rows.RowPtr(i);
      const float* dst_row = dst_rows.RowPtr(i);
      float dot = 0.0f;
      for (size_t j = 0; j < dim; ++j) dot += src_row[j] * dst_row[j];
      float prob = 0.5f + 0.5f * dot / static_cast<float>(dim);
      digest = Crc32(&prob, sizeof(prob), digest);
    }
    scored += n;
    batch_ms.push_back(batch_timer.ElapsedMillis());
  }
  std::sort(batch_ms.begin(), batch_ms.end());
  result.score_p50_ms = batch_ms.empty() ? 0.0 : batch_ms[batch_ms.size() / 2];
  result.digest = digest;

  result.peak_rss_mb = PeakRssMb();
  std::filesystem::remove_all(dir);
  return result;
}

std::string Quoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  AHNTP_CHECK_OK(flags.Parse(argc, argv));
  ApplyRuntimeFlags(flags);

  const size_t dim = static_cast<size_t>(flags.GetInt("dim", 16));
  const int max_resident = static_cast<int>(flags.GetInt("max_resident", 2));
  const size_t num_pairs = static_cast<size_t>(flags.GetInt("pairs", 4096));
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 256));
  const std::string spill_root =
      flags.GetString("spill_root", "bench_scale_spill");

  if (flags.GetBool("point", false)) {
    // Child mode: one (N, K) measurement, one machine-readable line.
    const size_t users = static_cast<size_t>(flags.GetInt("users", 8935));
    const int shards = static_cast<int>(flags.GetInt("shards", 1));
    PointResult r = RunPoint(users, shards, dim, max_resident, num_pairs,
                             batch, spill_root);
    std::printf(
        "POINT users=%zu shards=%d edges=%zu generate_s=%.3f "
        "graph_build_s=%.3f store_spill_s=%.3f score_p50_ms=%.4f "
        "resident_budget_mb=%.2f peak_rss_mb=%.2f digest=%08x\n",
        r.users, r.shards, r.edges, r.generate_s, r.graph_build_s,
        r.store_spill_s, r.score_p50_ms, r.resident_budget_mb, r.peak_rss_mb,
        r.digest);
    return 0;
  }

  std::vector<int64_t> users_sweep =
      flags.GetIntList("users", {125000, 500000, 1000000});
  std::vector<int64_t> shards_sweep = flags.GetIntList("shards", {1, 8, 32});
  std::printf("bench_scale: sharded out-of-core sweep (EpinionsLike)\n");
  std::printf("dim=%zu max_resident=%d pairs=%zu batch=%zu\n\n", dim,
              max_resident, num_pairs, batch);
  std::printf("%9s %7s %9s %11s %13s %13s %13s %12s %11s\n", "users", "shards",
              "edges", "generate_s", "graph_build_s", "store_spill_s",
              "score_p50_ms", "budget_mb", "peak_rss_mb");

  std::vector<PointResult> rows;
  for (int64_t users : users_sweep) {
    uint32_t reference_digest = 0;
    bool have_reference = false;
    for (int64_t shards : shards_sweep) {
      if (shards > users) continue;
      std::string cmd = std::string(argv[0]) + " --point --users=" +
                        std::to_string(users) + " --shards=" +
                        std::to_string(shards) + " --dim=" +
                        std::to_string(dim) + " --max_resident=" +
                        std::to_string(max_resident) + " --pairs=" +
                        std::to_string(num_pairs) + " --batch=" +
                        std::to_string(batch) + " --spill_root=" + spill_root;
      FILE* child = popen(cmd.c_str(), "r");
      AHNTP_CHECK(child != nullptr) << "cannot spawn " << cmd;
      PointResult r;
      char line[512];
      bool got_point = false;
      while (std::fgets(line, sizeof(line), child) != nullptr) {
        if (std::sscanf(line,
                        "POINT users=%zu shards=%d edges=%zu generate_s=%lf "
                        "graph_build_s=%lf store_spill_s=%lf "
                        "score_p50_ms=%lf resident_budget_mb=%lf "
                        "peak_rss_mb=%lf digest=%x",
                        &r.users, &r.shards, &r.edges, &r.generate_s,
                        &r.graph_build_s, &r.store_spill_s, &r.score_p50_ms,
                        &r.resident_budget_mb, &r.peak_rss_mb,
                        &r.digest) == 10) {
          got_point = true;
        }
      }
      int status = pclose(child);
      AHNTP_CHECK_EQ(status, 0) << "child failed: " << cmd;
      AHNTP_CHECK(got_point) << "child produced no POINT line: " << cmd;

      // Parity gate: the same pairs over the same embeddings must score to
      // the same bits at every shard count.
      if (!have_reference) {
        reference_digest = r.digest;
        have_reference = true;
      } else {
        AHNTP_CHECK_EQ(r.digest, reference_digest)
            << "score digest diverged at users=" << users
            << " shards=" << shards;
      }
      rows.push_back(r);
      std::printf("%9zu %7d %9zu %11.3f %13.3f %13.3f %13.4f %12.2f %11.2f\n",
                  r.users, r.shards, r.edges, r.generate_s, r.graph_build_s,
                  r.store_spill_s, r.score_p50_ms, r.resident_budget_mb,
                  r.peak_rss_mb);
      std::fflush(stdout);
    }
  }

  std::string json = "{\n  " + Quoted("bench") + ": " + Quoted("scale") +
                     ",\n  " + Quoted("dim") + ": " + std::to_string(dim) +
                     ",\n  " + Quoted("max_resident_shards") + ": " +
                     std::to_string(max_resident) + ",\n  " + Quoted("rows") +
                     ": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const PointResult& r = rows[i];
    json += StrFormat(
        "    {\"users\": %zu, \"shards\": %d, \"edges\": %zu, "
        "\"generate_s\": %.3f, \"graph_build_s\": %.3f, "
        "\"store_spill_s\": %.3f, \"score_p50_ms\": %.4f, "
        "\"resident_budget_mb\": %.2f, \"peak_rss_mb\": %.2f, "
        "\"digest\": \"%08x\"}%s\n",
        r.users, r.shards, r.edges, r.generate_s, r.graph_build_s,
        r.store_spill_s, r.score_p50_ms, r.resident_budget_mb, r.peak_rss_mb,
        r.digest, i + 1 < rows.size() ? "," : "");
  }
  json += "  ]\n}\n";
  AHNTP_CHECK_OK(WriteFileAtomic("BENCH_scale.json", json));
  std::printf("\nwrote BENCH_scale.json (%zu points)\n", rows.size());
  std::printf(
      "Expected shape: generate/build time grows ~linearly in N and is flat\n"
      "in K; peak RSS at fixed N *drops* as K grows (spill files replace the\n"
      "edge list, and at most max_resident embedding blocks stay in RAM);\n"
      "the score digest is identical across K — the sharded path changes\n"
      "where bytes live, never what they are.\n");
  std::filesystem::remove_all(spill_root);
  return 0;
}
