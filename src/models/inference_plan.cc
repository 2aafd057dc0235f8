#include "models/inference_plan.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/fileio.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "models/trust_predictor.h"
#include "nn/infer.h"
#include "tensor/kernels.h"

namespace ahntp::models {

namespace {

/// The tape-equivalent scoring chain from gathered tower inputs.
std::vector<float> RunScoringChain(const TrustPredictor& predictor,
                                   tensor::Workspace* ws,
                                   const tensor::Matrix& src_emb,
                                   const tensor::Matrix& dst_emb) {
  using tensor::Matrix;
  const size_t n = src_emb.rows();
  Matrix& t_src = nn::InferMlp(predictor.tower_src(), src_emb, ws);
  Matrix& t_dst = nn::InferMlp(predictor.tower_dst(), dst_emb, ws);

  // PairwiseCosine: row-L2-normalize both sides (epsilon matches the tape
  // default), then row-wise dot.
  Matrix* norms = ws->Acquire(n, 1);
  tensor::RowNormsInto(norms, t_src, 1e-12f);
  Matrix* n_src = ws->Acquire(n, t_src.cols());
  tensor::DivRowsByNormsInto(n_src, t_src, *norms);
  tensor::RowNormsInto(norms, t_dst, 1e-12f);
  Matrix* n_dst = ws->Acquire(n, t_dst.cols());
  tensor::DivRowsByNormsInto(n_dst, t_dst, *norms);
  Matrix* cosine = ws->Acquire(n, 1);
  tensor::RowwiseDotInto(cosine, *n_src, *n_dst);

  // p = (1 + cos) / 2 as the tape computes it: Scale then AddScalar, two
  // separately rounded kernel passes.
  Matrix* prob = ws->Acquire(n, 1);
  tensor::ScaleInto(prob, *cosine, 0.5f);
  tensor::AddScalarInto(prob, *prob, 0.5f);

  std::vector<float> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = prob->At(i, 0);
  return out;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic inverted dropout over gathered embedding rows; `users[i]`
/// owns row i. The mask for element j of user u on tower side `role` is a
/// pure function of (seed, u, role, j): batch position, duplicate
/// occurrences of a user, and shard layout all see the same mask, which
/// is what makes the MC-dropout scores identical at any shard count.
void ApplyInputDropout(tensor::Matrix* emb, const int* users, int role,
                       float rate, uint64_t seed) {
  AHNTP_CHECK(rate > 0.0f && rate < 1.0f)
      << "dropout rate must lie in (0, 1), got " << rate;
  const float inv_keep = 1.0f / (1.0f - rate);
  const double rate_d = static_cast<double>(rate);
  for (size_t i = 0; i < emb->rows(); ++i) {
    const uint64_t user_key = SplitMix64(
        seed ^ (static_cast<uint64_t>(static_cast<uint32_t>(users[i])) * 2 +
                static_cast<uint64_t>(role)));
    float* row = emb->RowPtr(i);
    for (size_t j = 0; j < emb->cols(); ++j) {
      const uint64_t h = SplitMix64(user_key + j);
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      row[j] = u < rate_d ? 0.0f : row[j] * inv_keep;
    }
  }
}

void RecordWorkspaceBytes(const tensor::Workspace& ws) {
  if (metrics::Enabled()) {
    static metrics::Gauge& ws_bytes =
        metrics::GetGauge("infer.workspace_bytes");
    ws_bytes.Set(static_cast<double>(ws.bytes()));
  }
}

/// Absmax of one fresh embedding row for self-calibrated int8 patching —
/// the per-row slice of CalibrateRowAbsmax, same finiteness contract.
Result<float> RowAbsmax(const float* row, size_t cols, int user) {
  float best = 0.0f;
  for (size_t c = 0; c < cols; ++c) {
    if (!std::isfinite(row[c])) {
      return Status::InvalidArgument(
          "non-finite embedding for user " + std::to_string(user) +
          " during int8 row refresh");
    }
    best = std::max(best, std::fabs(row[c]));
  }
  return best;
}

constexpr uint32_t kBlockMagic = 0x42534841u;       // "AHSB" little-endian
constexpr uint32_t kQuantBlockMagic = 0x51534841u;  // "AHSQ" little-endian
constexpr size_t kHeaderBytes = 16;  // magic, shard, rows, cols

void AppendU32(std::string* buf, uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof(v));
  buf->append(bytes, sizeof(v));
}

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Removes every `plan_<pid>_*` directory under `spill_dir` whose process
/// is gone (kill(pid, 0) fails with ESRCH): a process that died without
/// running plan destructors leaves its blocks behind. Directories of live
/// processes, this one included, and anything not named like a plan
/// directory are left alone. Best effort: listing errors are ignored.
void RemoveDeadPlanDirs(const std::string& spill_dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(spill_dir, ec);
  if (ec) return;
  for (const std::filesystem::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("plan_", 0) != 0) continue;
    const size_t end = name.find('_', 5);
    if (end == std::string::npos || end == 5) continue;
    const std::string digits = name.substr(5, end - 5);
    if (digits.size() > 9 ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const pid_t pid = static_cast<pid_t>(std::stoll(digits));
    if (pid <= 0 || ::kill(pid, 0) == 0 || errno != ESRCH) continue;
    std::filesystem::remove_all(entry.path(), ec);
  }
}

}  // namespace

const char* PlanPrecisionName(PlanPrecision precision) {
  switch (precision) {
    case PlanPrecision::kFloat32:
      return "fp32";
    case PlanPrecision::kInt8:
      return "int8";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ShardEmbeddingStore
// ---------------------------------------------------------------------------

ShardEmbeddingStore::ShardEmbeddingStore(graph::UserSharding sharding,
                                         size_t dim, PlanPrecision precision,
                                         std::string spill_dir,
                                         int max_resident)
    : sharding_(std::move(sharding)),
      dim_(dim),
      precision_(precision),
      spill_dir_(std::move(spill_dir)),
      max_resident_(spill_dir_.empty() ? sharding_.num_shards()
                                       : max_resident),
      slots_(static_cast<size_t>(sharding_.num_shards())) {
  AHNTP_CHECK_GE(max_resident, 1) << "resident-shard cap must be positive";
  AHNTP_CHECK_GT(dim_, 0u);
}

std::string ShardEmbeddingStore::BlockPath(int shard) const {
  return spill_dir_ + "/shard_" + std::to_string(shard) + ".emb";
}

Status ShardEmbeddingStore::CheckShard(int shard) const {
  if (shard < 0 || shard >= sharding_.num_shards()) {
    return Status::InvalidArgument(
        StrFormat("shard %d out of range for %d shards", shard,
                  sharding_.num_shards()));
  }
  return Status::Ok();
}

int ShardEmbeddingStore::num_resident() const {
  return static_cast<int>(std::count_if(
      slots_.begin(), slots_.end(), [](const Slot& s) { return s.resident; }));
}

size_t ShardEmbeddingStore::resident_bytes() const {
  size_t bytes = 0;
  for (const Slot& slot : slots_) {
    if (slot.resident) bytes += slot.block.bytes();
  }
  return bytes;
}

const EmbeddingBlock* ShardEmbeddingStore::resident_block(int shard) const {
  if (!CheckShard(shard).ok()) return nullptr;
  const Slot& slot = slots_[static_cast<size_t>(shard)];
  return slot.resident ? &slot.block : nullptr;
}

void ShardEmbeddingStore::RecordResidentBytes() const {
  if (metrics::Enabled()) {
    metrics::GetGauge("infer.shard_resident_bytes")
        .Set(static_cast<double>(resident_bytes()));
  }
}

void ShardEmbeddingStore::Drop(Slot* slot) {
  slot->block = EmbeddingBlock();
  slot->resident = false;
}

Status ShardEmbeddingStore::WriteBlock(int shard,
                                       const EmbeddingBlock& block) {
  trace::TraceSpan span("infer.shard.spill");
  std::error_code ec;
  std::filesystem::create_directories(spill_dir_, ec);
  if (ec) {
    return Status::IoError("cannot create spill directory " + spill_dir_ +
                           ": " + ec.message());
  }
  // AHSB: header | rows x cols f32 | CRC. AHSQ: header | scales (rows x
  // f32) | payload (rows x cols i8) | CRC over scales + payload, so a
  // flipped scale bit is caught exactly like a flipped payload bit.
  const bool int8 = precision_ == PlanPrecision::kInt8;
  const size_t rows = sharding_.UsersOf(shard).size();
  std::string buf;
  AppendU32(&buf, int8 ? kQuantBlockMagic : kBlockMagic);
  AppendU32(&buf, static_cast<uint32_t>(shard));
  AppendU32(&buf, static_cast<uint32_t>(rows));
  AppendU32(&buf, static_cast<uint32_t>(dim_));
  if (int8) {
    buf.append(reinterpret_cast<const char*>(block.quant.scales().data()),
               rows * sizeof(float));
    buf.append(reinterpret_cast<const char*>(block.quant.data()),
               rows * dim_ * sizeof(int8_t));
  } else {
    buf.append(reinterpret_cast<const char*>(block.rows.data()),
               rows * dim_ * sizeof(float));
  }
  AppendU32(&buf, Crc32(buf.data() + kHeaderBytes, buf.size() - kHeaderBytes));
  return WriteFileAtomic(BlockPath(shard), buf);
}

Result<EmbeddingBlock> ShardEmbeddingStore::ReadBlock(int shard) {
  std::string buf;
  AHNTP_RETURN_IF_ERROR(ReadFileToString(BlockPath(shard), &buf));
  const bool int8 = precision_ == PlanPrecision::kInt8;
  const size_t rows = sharding_.UsersOf(shard).size();
  const size_t scales_bytes = int8 ? rows * sizeof(float) : 0;
  const size_t payload_bytes =
      rows * dim_ * (int8 ? sizeof(int8_t) : sizeof(float));
  const size_t body_bytes = scales_bytes + payload_bytes;
  if (buf.size() != kHeaderBytes + body_bytes + 4 ||
      ReadU32(buf.data()) != (int8 ? kQuantBlockMagic : kBlockMagic) ||
      ReadU32(buf.data() + 4) != static_cast<uint32_t>(shard) ||
      ReadU32(buf.data() + 8) != static_cast<uint32_t>(rows) ||
      ReadU32(buf.data() + 12) != static_cast<uint32_t>(dim_)) {
    return Status::Corruption("bad shard block header: " + BlockPath(shard));
  }
  const char* body = buf.data() + kHeaderBytes;
  if (ReadU32(body + body_bytes) != Crc32(body, body_bytes)) {
    return Status::Corruption("shard block CRC mismatch: " + BlockPath(shard));
  }
  EmbeddingBlock block;
  if (int8) {
    std::vector<float> scales(rows);
    std::memcpy(scales.data(), body, scales_bytes);
    std::vector<int8_t> data(rows * dim_);
    std::memcpy(data.data(), body + scales_bytes, payload_bytes);
    block.quant = tensor::QuantizedMatrix::FromParts(
        rows, dim_, std::move(data), std::move(scales));
  } else {
    block.rows = tensor::Matrix(rows, dim_);
    std::memcpy(block.rows.data(), body, payload_bytes);
  }
  return block;
}

Status ShardEmbeddingStore::Put(int shard, EmbeddingBlock block) {
  AHNTP_RETURN_IF_ERROR(CheckShard(shard));
  const size_t rows = sharding_.UsersOf(shard).size();
  const bool int8 = precision_ == PlanPrecision::kInt8;
  const size_t got_rows = int8 ? block.quant.rows() : block.rows.rows();
  const size_t got_cols = int8 ? block.quant.cols() : block.rows.cols();
  const bool other_empty =
      int8 ? block.rows.empty() : block.quant.rows() == 0;
  if (got_rows != rows || got_cols != dim_ || !other_empty) {
    return Status::InvalidArgument(StrFormat(
        "shard %d block must be one %s %zux%zu table, got %zux%zu", shard,
        PlanPrecisionName(precision_), rows, dim_, got_rows, got_cols));
  }
  Slot& slot = slots_[static_cast<size_t>(shard)];
  if (spilled()) {
    AHNTP_RETURN_IF_ERROR(WriteBlock(shard, block));
    // The file is now the truth; a resident copy of the old generation
    // must not serve.
    Drop(&slot);
    RecordResidentBytes();
    return Status::Ok();
  }
  slot.block = std::move(block);
  slot.resident = true;
  return Status::Ok();
}

Result<EmbeddingBlock*> ShardEmbeddingStore::Fetch(int shard) {
  AHNTP_RETURN_IF_ERROR(CheckShard(shard));
  Slot& slot = slots_[static_cast<size_t>(shard)];
  slot.last_used = ++tick_;
  if (slot.resident) {
    if (spilled()) AHNTP_METRIC_COUNT("infer.shard_hits", 1);
    return &slot.block;
  }
  if (!spilled()) {
    return Status::FailedPrecondition(
        StrFormat("shard %d block was never installed", shard));
  }

  trace::TraceSpan span("infer.shard.fault");
  AHNTP_METRIC_COUNT("infer.shard_faults", 1);
  auto block = ReadBlock(shard);
  AHNTP_RETURN_IF_ERROR(block.status());
  while (num_resident() >= max_resident_) {
    Slot* victim = nullptr;
    for (Slot& s : slots_) {
      if (!s.resident) continue;
      if (victim == nullptr || s.last_used < victim->last_used) victim = &s;
    }
    Drop(victim);
    AHNTP_METRIC_COUNT("infer.shard_evictions", 1);
  }
  slot.block = std::move(block).value();
  slot.resident = true;
  RecordResidentBytes();
  return &slot.block;
}

Status ShardEmbeddingStore::Flush(int shard) {
  AHNTP_RETURN_IF_ERROR(CheckShard(shard));
  if (!spilled()) return Status::Ok();
  Slot& slot = slots_[static_cast<size_t>(shard)];
  AHNTP_CHECK(slot.resident) << "Flush of a block that is not resident";
  Status status = WriteBlock(shard, slot.block);
  if (!status.ok()) {
    Drop(&slot);
    RecordResidentBytes();
  }
  return status;
}

Status ShardEmbeddingStore::Gather(const std::vector<int>& users,
                                   const std::vector<float*>& out) {
  AHNTP_CHECK_EQ(users.size(), out.size());
  touched_.assign(slots_.size(), 0);
  for (int u : users) touched_[static_cast<size_t>(sharding_.ShardOf(u))] = 1;
  const bool int8 = precision_ == PlanPrecision::kInt8;
  for (int s = 0; s < sharding_.num_shards(); ++s) {
    if (!touched_[static_cast<size_t>(s)]) continue;
    auto block = Fetch(s);
    AHNTP_RETURN_IF_ERROR(block.status());
    const EmbeddingBlock& b = *block.value();
    for (size_t i = 0; i < users.size(); ++i) {
      if (sharding_.ShardOf(users[i]) != s) continue;
      const size_t row = static_cast<size_t>(sharding_.RowOf(users[i]));
      if (int8) {
        b.quant.DequantizeRowInto(row, out[i]);
      } else {
        std::memcpy(out[i], b.rows.RowPtr(row), dim_ * sizeof(float));
      }
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// InferencePlan
// ---------------------------------------------------------------------------

InferencePlan::InferencePlan(TrustPredictor* predictor,
                             ShardedPlanOptions options)
    : predictor_(predictor), options_(std::move(options)) {
  AHNTP_CHECK(predictor_ != nullptr);
  AHNTP_CHECK_GE(options_.num_shards, 1);
  AHNTP_CHECK_GE(options_.max_resident_shards, 1)
      << "resident-shard cap must be positive";
  AHNTP_CHECK(options_.num_shards == 1 || !options_.spill_dir.empty())
      << "a plan without a spill directory holds one block";
  if (!options_.spill_dir.empty()) {
    // A unique subdirectory per plan instance: a staged reload's freshly
    // spilled blocks must never be faulted in by the still-serving plan of
    // the previous generation. The pid keeps concurrent processes sharing
    // a spill_dir (parallel test runners) from colliding on plan_0.
    static std::atomic<uint64_t> plan_counter{0};
    spill_dir_ =
        options_.spill_dir + "/plan_" + std::to_string(::getpid()) + "_" +
        std::to_string(plan_counter.fetch_add(1, std::memory_order_relaxed));
    RemoveDeadPlanDirs(options_.spill_dir);
  }
}

InferencePlan::~InferencePlan() {
  if (spill_dir_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(spill_dir_, ec);
}

Status InferencePlan::EnsureBuilt() {
  if (built_) {
    AHNTP_METRIC_COUNT("infer.cache_hits", 1);
    return Status::Ok();
  }
  AHNTP_METRIC_COUNT("infer.cache_misses", 1);
  AHNTP_METRIC_COUNT("infer.plan_builds", 1);
  store_.reset();  // free the stale table before encoding the new one
  tensor::Matrix table = predictor_->encoder().InferUsers();
  const bool int8 = precision_ == PlanPrecision::kInt8;
  if (int8) {
    if (has_external_calib_) {
      AHNTP_RETURN_IF_ERROR(tensor::ValidateCalibration(calib_, table.rows()));
    } else {
      // Self-calibration over the encoder's own activations (the embedding
      // table is exactly what flows into the scoring towers).
      auto calib = tensor::CalibrateRowAbsmax(table);
      AHNTP_RETURN_IF_ERROR(calib.status());
      calib_ = std::move(calib).value();
    }
  }
  auto sharding =
      graph::UserSharding::Create(table.rows(), options_.num_shards);
  AHNTP_RETURN_IF_ERROR(sharding.status());
  const size_t d = table.cols();
  auto store = std::make_unique<ShardEmbeddingStore>(
      std::move(sharding).value(), d, precision_, spill_dir_,
      options_.max_resident_shards);
  for (int s = 0; s < options_.num_shards; ++s) {
    const std::vector<int>& owned = store->sharding().UsersOf(s);
    EmbeddingBlock block;
    if (options_.num_shards == 1) {
      block.rows = std::move(table);  // one block: the table itself
    } else {
      block.rows = tensor::Matrix(owned.size(), d);
      for (size_t r = 0; r < owned.size(); ++r) {
        std::memcpy(block.rows.RowPtr(r),
                    table.RowPtr(static_cast<size_t>(owned[r])),
                    d * sizeof(float));
      }
    }
    if (int8) {
      // Every user keeps its full-table absmax, so the dequantized rows
      // are bitwise-identical at any shard count.
      tensor::RowCalibration block_calib;
      block_calib.absmax.resize(owned.size());
      for (size_t r = 0; r < owned.size(); ++r) {
        block_calib.absmax[r] = calib_.absmax[static_cast<size_t>(owned[r])];
      }
      block.quant = tensor::QuantizedMatrix::Quantize(block.rows, block_calib);
      block.rows = tensor::Matrix();
    }
    AHNTP_RETURN_IF_ERROR(store->Put(s, std::move(block)));
  }
  if (int8) AHNTP_METRIC_COUNT("infer.quantized_builds", 1);
  store_ = std::move(store);
  built_ = true;
  return Status::Ok();
}

Status InferencePlan::RefreshRows(const std::vector<int>& users,
                                  const tensor::Matrix& rows) {
  AHNTP_CHECK_EQ(users.size(), rows.rows());
  if (users.empty() || !built_) return Status::Ok();
  trace::TraceSpan span("infer.plan_refresh");
  const graph::UserSharding& sharding = store_->sharding();
  const size_t d = store_->dim();
  AHNTP_CHECK_EQ(rows.cols(), d);
  std::map<int, std::vector<size_t>> by_shard;  // shard -> indices into rows
  for (size_t i = 0; i < users.size(); ++i) {
    const int u = users[i];
    AHNTP_CHECK(u >= 0 && static_cast<size_t>(u) < sharding.num_users());
    if (i > 0) {
      AHNTP_CHECK_GT(u, users[i - 1]);
    }
    by_shard[sharding.ShardOf(u)].push_back(i);
  }
  const bool int8 = precision_ == PlanPrecision::kInt8;
  if (int8 && !has_external_calib_) {
    // Refresh the dirty rows' absmax first, so a non-finite row rejects
    // the whole patch before any block changes.
    std::vector<float> absmax(users.size());
    for (size_t i = 0; i < users.size(); ++i) {
      auto fresh = RowAbsmax(rows.RowPtr(i), d, users[i]);
      AHNTP_RETURN_IF_ERROR(fresh.status());
      absmax[i] = fresh.value();
    }
    for (size_t i = 0; i < users.size(); ++i) {
      calib_.absmax[static_cast<size_t>(users[i])] = absmax[i];
    }
  }
  for (const auto& [shard, indices] : by_shard) {
    auto block = store_->Fetch(shard);
    AHNTP_RETURN_IF_ERROR(block.status());
    for (size_t i : indices) {
      const size_t row = static_cast<size_t>(sharding.RowOf(users[i]));
      if (int8) {
        block.value()->quant.UpdateRow(
            row, rows.RowPtr(i), calib_.absmax[static_cast<size_t>(users[i])]);
      } else {
        std::memcpy(block.value()->rows.RowPtr(row), rows.RowPtr(i),
                    d * sizeof(float));
      }
    }
    AHNTP_RETURN_IF_ERROR(store_->Flush(shard));
  }
  AHNTP_METRIC_COUNT("infer.row_refreshes", users.size());
  return Status::Ok();
}

void InferencePlan::SetPrecision(PlanPrecision precision) {
  if (precision_ == precision) return;
  precision_ = precision;
  Invalidate();
}

Status InferencePlan::SetCalibration(tensor::RowCalibration calib) {
  // Build first so the live table's row count is known for validation.
  AHNTP_RETURN_IF_ERROR(EnsureBuilt());
  AHNTP_RETURN_IF_ERROR(
      tensor::ValidateCalibration(calib, store_->sharding().num_users()));
  calib_ = std::move(calib);
  has_external_calib_ = true;
  Invalidate();  // recalibration requantizes at the next Score()
  return Status::Ok();
}

const tensor::Matrix& InferencePlan::embeddings() const {
  static const tensor::Matrix kEmpty;
  if (!built_ || options_.num_shards != 1) return kEmpty;
  const EmbeddingBlock* block = store_->resident_block(0);
  return block != nullptr ? block->rows : kEmpty;
}

size_t InferencePlan::embedding_bytes() const {
  return store_ ? store_->resident_bytes() : 0;
}

Result<std::vector<float>> InferencePlan::Score(
    const std::vector<data::TrustPair>& pairs) {
  return ScoreImpl(pairs, -1.0f, 0);
}

Result<std::vector<float>> InferencePlan::ScoreWithInputDropout(
    const std::vector<data::TrustPair>& pairs, float rate, uint64_t seed) {
  AHNTP_CHECK(rate > 0.0f && rate < 1.0f)
      << "dropout rate must lie in (0, 1), got " << rate;
  return ScoreImpl(pairs, rate, seed);
}

Result<std::vector<float>> InferencePlan::ScoreImpl(
    const std::vector<data::TrustPair>& pairs, float dropout_rate,
    uint64_t dropout_seed) {
  AHNTP_CHECK(!pairs.empty());
  AHNTP_RETURN_IF_ERROR(EnsureBuilt());
  ws_.Reset();
  const size_t n = pairs.size();
  using tensor::Matrix;
  Matrix* src_emb = ws_.Acquire(n, store_->dim());
  Matrix* dst_emb = ws_.Acquire(n, store_->dim());
  users_.resize(2 * n);
  rows_.resize(2 * n);
  for (size_t i = 0; i < n; ++i) {
    users_[i] = pairs[i].src;
    users_[n + i] = pairs[i].dst;
    rows_[i] = src_emb->RowPtr(i);
    rows_[n + i] = dst_emb->RowPtr(i);
  }
  AHNTP_RETURN_IF_ERROR(store_->Gather(users_, rows_));
  if (dropout_rate > 0.0f) {
    ApplyInputDropout(src_emb, users_.data(), /*role=*/0, dropout_rate,
                      dropout_seed);
    ApplyInputDropout(dst_emb, users_.data() + n, /*role=*/1, dropout_rate,
                      dropout_seed);
  }
  std::vector<float> out =
      RunScoringChain(*predictor_, &ws_, *src_emb, *dst_emb);
  ws_.Reset();
  RecordWorkspaceBytes(ws_);
  return out;
}

}  // namespace ahntp::models
