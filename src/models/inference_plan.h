#ifndef AHNTP_MODELS_INFERENCE_PLAN_H_
#define AHNTP_MODELS_INFERENCE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/split.h"
#include "graph/sharding.h"
#include "tensor/matrix.h"
#include "tensor/quant.h"
#include "tensor/workspace.h"

namespace ahntp::models {

class TrustPredictor;

/// Numeric format of the cached embedding table inside an inference plan.
///
/// kFloat32 is the reference: scores are bit-identical to the tape path.
/// kInt8 stores the table as per-row symmetric int8 (tensor/quant.h) —
/// 4x smaller resident/spilled bytes — and dequantizes rows on gather, so
/// the scoring chain itself still runs in float32. Scores agree with
/// kFloat32 to quantization tolerance; the AUC-delta guard in
/// scripts/check_inference.sh bounds the ranking impact (<= 0.002).
enum class PlanPrecision {
  kFloat32 = 0,
  kInt8 = 1,
};

/// "fp32" / "int8".
const char* PlanPrecisionName(PlanPrecision precision);

/// Layout of an inference plan's embedding table (DESIGN.md §13-§14). The
/// defaults — one shard, no spill directory — keep the whole table in RAM.
struct ShardedPlanOptions {
  int num_shards = 1;
  /// How many blocks a spilled plan keeps in RAM at once; >= 1 (CHECK).
  int max_resident_shards = 2;
  /// Empty = the table stays in RAM as one block (num_shards must be 1).
  /// Otherwise each plan spills its blocks into its own `plan_<pid>_<n>`
  /// subdirectory (created on first spill), so a staged reload never
  /// clobbers the live plan's blocks, and removes that subdirectory when
  /// it is destroyed. Creating a plan also removes the `plan_<pid>_*`
  /// siblings of processes that no longer exist.
  std::string spill_dir;
};

/// One shard's embedding rows in ascending owned-user order: float32
/// `rows`, or int8 `quant` rows with per-row scales, per the store's
/// precision. The other member stays empty.
struct EmbeddingBlock {
  tensor::Matrix rows;
  tensor::QuantizedMatrix quant;

  size_t bytes() const { return rows.size() * sizeof(float) + quant.bytes(); }
};

/// The embedding table as the blocks of one UserSharding.
///
/// A resident store (no spill directory) holds every block in RAM. A
/// spilled store writes each block to a CRC-checked file — "AHSB" (header,
/// float32 rows, CRC32) or "AHSQ" (header, per-row scales, int8 payload,
/// CRC32 over both) — and keeps at most `max_resident` blocks in RAM,
/// evicting the least recently used; fault-in validates header and CRC.
/// Counters (spilled stores only): infer.shard_faults (disk loads),
/// infer.shard_hits (already resident), infer.shard_evictions; gauge
/// infer.shard_resident_bytes. Not thread-safe.
class ShardEmbeddingStore {
 public:
  /// `max_resident` >= 1 (CHECK); ignored without a spill directory.
  ShardEmbeddingStore(graph::UserSharding sharding, size_t dim,
                      PlanPrecision precision, std::string spill_dir = "",
                      int max_resident = 1);

  /// Installs `shard`'s block. A spilled store writes its file atomically
  /// and drops any resident copy; a resident store moves it in.
  /// InvalidArgument on a bad shard or a block of the wrong shape/format.
  Status Put(int shard, EmbeddingBlock block);

  /// The block for `shard`, faulting it in from disk — and evicting the
  /// least recently used block past the cap — as needed. Corruption on a
  /// bad header or CRC. The pointer is valid until the next Fetch or Put.
  Result<EmbeddingBlock*> Fetch(int shard);

  /// Rewrites `shard`'s file from its resident block after an in-place
  /// patch; a no-op on a resident store. On failure the resident copy is
  /// dropped, so the file stays the truth.
  Status Flush(int shard);

  /// Copies the row of users[i] to out[i] (dim() floats), dequantizing an
  /// int8 block. Fetches each block the batch touches once, in ascending
  /// shard order, and then copies that block's rows.
  Status Gather(const std::vector<int>& users, const std::vector<float*>& out);

  /// `shard`'s block if it is resident, else null. Never faults.
  const EmbeddingBlock* resident_block(int shard) const;

  const graph::UserSharding& sharding() const { return sharding_; }
  size_t dim() const { return dim_; }
  PlanPrecision precision() const { return precision_; }
  bool spilled() const { return !spill_dir_.empty(); }
  int num_resident() const;
  int max_resident() const { return max_resident_; }
  size_t resident_bytes() const;

 private:
  struct Slot {
    EmbeddingBlock block;
    bool resident = false;
    uint64_t last_used = 0;
  };

  std::string BlockPath(int shard) const;
  Status CheckShard(int shard) const;
  Status WriteBlock(int shard, const EmbeddingBlock& block);
  Result<EmbeddingBlock> ReadBlock(int shard);
  void Drop(Slot* slot);
  void RecordResidentBytes() const;

  graph::UserSharding sharding_;
  size_t dim_;
  PlanPrecision precision_;
  std::string spill_dir_;
  int max_resident_;
  std::vector<Slot> slots_;  // one per shard
  uint64_t tick_ = 0;        // bumped per Fetch; orders slots for eviction
  std::vector<char> touched_;  // per shard, reused by Gather
};

/// Compiled inference state for one TrustPredictor: the all-user embedding
/// table (encoded once, reused across every batch until invalidated) held
/// as the blocks of a ShardEmbeddingStore, plus a Workspace arena for the
/// per-batch scoring chain. Score() is bit-identical to the tape path
/// (Forward() in eval mode) at any --threads=N and any table layout: every
/// layout gathers the same float32 rows (or dequantizes the same int8
/// rows) and runs the same tensor kernels in the same order.
///
/// With default options the table is one resident block — the encoded
/// table itself, moved in. With a spill directory the table is split by a
/// UserSharding into per-shard block files, and a score batch faults in
/// only the blocks of its (src, dst) users, with RAM bounded by
/// max_resident_shards blocks.
///
/// Lifecycle: parameters changed (training step, checkpoint load, reload)
/// => Invalidate(); the next Score() re-encodes. TrustPredictor owns one
/// plan and invalidates it from InvalidateCaches() and training forwards;
/// serve::ModelBackend additionally warms the plan before publishing a
/// predictor so the first live request never pays the encode.
///
/// Not thread-safe: one plan (like one Workspace) per scoring thread.
class InferencePlan {
 public:
  /// `predictor` must outlive the plan; the plan holds no ownership.
  /// options.num_shards >= 1, options.max_resident_shards >= 1, and a
  /// spill directory when num_shards > 1 (CHECK).
  explicit InferencePlan(TrustPredictor* predictor,
                         ShardedPlanOptions options = {});
  /// Removes the plan's spill subdirectory, if it has one.
  ~InferencePlan();
  InferencePlan(const InferencePlan&) = delete;
  InferencePlan& operator=(const InferencePlan&) = delete;

  /// Encodes all users through the tape-free path (and spills the blocks)
  /// if the cache is stale. Counts infer.plan_builds / infer.cache_misses;
  /// a fresh cache counts infer.cache_hits instead. Encoding uses a
  /// throwaway arena so the steady-state workspace only holds the (small)
  /// scoring buffers. InvalidArgument on bad calibration or a bad
  /// shard/user combination; IoError from spill failures.
  Status EnsureBuilt();

  /// Marks the embedding cache stale. Cheap; storage is kept.
  void Invalidate() { built_ = false; }

  bool built() const { return built_; }

  /// Delta-invalidation (DESIGN.md §17): patches only the given users' rows
  /// of the cached table instead of re-encoding everyone. `users` ascending
  /// and deduplicated; `rows` is (|users| x d) with their new embeddings.
  /// Each dirty block is patched in place and, when spilled, only that
  /// block's file is rewritten. Under kFloat32 the rows are copied; under
  /// kInt8 each dirty row is requantized (self-calibration refreshes its
  /// absmax from the new row; external calibration keeps the installed
  /// stats), which is bitwise-identical to a fresh build over the patched
  /// table. A plan that is not built is left untouched — the next Score()
  /// encodes from scratch and sees the post-delta model anyway.
  /// InvalidArgument (table untouched) on a non-finite row under
  /// self-calibrated int8.
  Status RefreshRows(const std::vector<int>& users,
                     const tensor::Matrix& rows);

  /// Probabilities for a batch of pairs, read from the cached embedding
  /// table. Steady state performs zero workspace allocations: every
  /// intermediate lives in the arena and the index buffers reuse their
  /// capacity. Corruption / IoError from a spilled block's fault-in.
  Result<std::vector<float>> Score(const std::vector<data::TrustPair>& pairs);

  /// Score() with deterministic inverted dropout applied to the gathered
  /// embedding rows before the scoring chain — the MC-dropout perturbation
  /// of the uncertainty ensemble (models/uncertainty.h, DESIGN.md §16).
  /// Masks are keyed on (seed, user id, tower side, element), never on
  /// batch position or table layout, so a pair's perturbed score is
  /// invariant to batch composition and shard count. `rate` must lie in
  /// (0, 1) (CHECK).
  Result<std::vector<float>> ScoreWithInputDropout(
      const std::vector<data::TrustPair>& pairs, float rate, uint64_t seed);

  /// Switches the table format; a change invalidates the plan (the next
  /// Score() re-encodes and, for kInt8, requantizes).
  void SetPrecision(PlanPrecision precision);
  PlanPrecision precision() const { return precision_; }

  /// Installs externally captured calibration stats (e.g. from a training
  /// activation sweep) instead of the default self-calibration over the
  /// encoder's own activations. Validates the stats against the live table
  /// (row count, finite non-negative absmax) and returns InvalidArgument on
  /// bad input — fuzzed stats must never crash. On success the plan is
  /// invalidated: recalibration requantizes at the next Score(). Each user
  /// keeps its full-table absmax in every layout, so a sharded int8 plan
  /// is bitwise-identical to a one-block int8 plan.
  Status SetCalibration(tensor::RowCalibration calib);

  /// The calibration in effect for the current int8 table (empty before the
  /// first int8 build).
  const tensor::RowCalibration& calibration() const { return calib_; }

  /// The (num_users x d) float table of a built one-block plan whose block
  /// is resident; empty otherwise (a kInt8 plan frees the float table
  /// after quantization).
  const tensor::Matrix& embeddings() const;

  /// Resident bytes of the cached table in its current precision.
  size_t embedding_bytes() const;

  /// The block store; valid after EnsureBuilt() (null before).
  const ShardEmbeddingStore* store() const { return store_.get(); }
  ShardEmbeddingStore* mutable_store() { return store_.get(); }

  const ShardedPlanOptions& options() const { return options_; }

  /// The scoring arena (exposed for the allocation regression tests).
  const tensor::Workspace& workspace() const { return ws_; }

 private:
  /// Shared body of Score / ScoreWithInputDropout; rate < 0 = no dropout.
  Result<std::vector<float>> ScoreImpl(
      const std::vector<data::TrustPair>& pairs, float dropout_rate,
      uint64_t dropout_seed);

  TrustPredictor* predictor_;
  ShardedPlanOptions options_;
  std::string spill_dir_;  // this plan's own subdirectory; empty = resident
  PlanPrecision precision_ = PlanPrecision::kFloat32;
  std::unique_ptr<ShardEmbeddingStore> store_;
  tensor::Workspace ws_;  // scoring arena, reset per batch
  tensor::RowCalibration calib_;
  bool has_external_calib_ = false;
  bool built_ = false;
  std::vector<int> users_;      // per batch: the src users, then the dst users
  std::vector<float*> rows_;    // their rows in the gathered tower inputs
};

}  // namespace ahntp::models

#endif  // AHNTP_MODELS_INFERENCE_PLAN_H_
