// serve_read, serve_sharded and serve_mutate: the online serving stack
// (serve::TrustServer) over a compiled inference plan, a spilled sharded
// plan, and the dynamic pipeline's write lane.
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/dynamic_pipeline.h"
#include "core/model_zoo.h"
#include "data/features.h"
#include "data/generator.h"
#include "load.h"
#include "probes.h"
#include "serve/backend.h"
#include "serve/dynamic.h"
#include "serve/server.h"
#include "workloads.h"

namespace trustbench {

namespace {

using namespace ahntp;

const std::vector<size_t> kHiddenDims = {64, 32, 16};

/// One serve workload's traffic. Every rate is fixed, so the offered load
/// is the same on every commit; only the seed changes the inputs. Reads
/// due within one tick are sent together, so each tick costs the server
/// one wake-up and read latency is dominated by work, not by wake-ups.
struct ServeShape {
  size_t pool_size = 65536;     // distinct (src, dst) keys
  double zipf_exponent = 0;     // 0 = uniform keys
  size_t cache_entries = 0;     // 0 = score cache off
  bool coalesce = true;
  double read_rate = 0;         // open loop, reads per second
  double write_rate = 0;        // both loops, writes per second
  double tick_ms = 1.0;
  double slo_ms = 1.0;          // latency limit of serve.read_slo_ratio
  size_t clients = 2;           // closed loop
  size_t window = 256;          // closed loop, reads outstanding per client
  double read_tail = 0.9;       // percentile reported as op_tail_ms
};

/// Percentile reported as serve.write_tail_ms: ~60 writes leave 15 beyond it.
constexpr double kWriteTail = 0.75;

// serve_read: Zipf keys (exponent 0.9) over 64 Ki pairs against a 256-entry
// cache give a ~25% hit share, far from both reported percentiles, so p50
// and p90 sit in the miss mode on every seed. 40k reads/s is ~17% of
// capacity.
ServeShape ReadShape() {
  ServeShape s;
  s.zipf_exponent = 0.9;
  s.cache_entries = 256;
  s.read_rate = 40000;
  s.tick_ms = 1.0;
  s.slo_ms = 1.0;
  return s;
}

// serve_sharded: uniform keys, cache off. 500 reads/s is ~40% of the
// sharded plan's capacity (~1.25k reads/s); a 20 ms tick sends 10 reads,
// so each batch faults ~15 blocks and its latency is the faults' sum.
ServeShape ShardedShape() {
  ServeShape s;
  s.read_rate = 500;
  s.tick_ms = 20.0;
  s.slo_ms = 15.0;
  s.clients = 1;
  s.window = 64;
  return s;
}

// serve_mutate: uniform reads plus small deltas on the write lane. Each
// apply holds the dispatcher for ~90 ms, so at 3 writes/s ~27% of reads
// queue behind one: p50 sits in the unblocked mode and p99 in the blocked
// one, both well away from the boundary. Reads and writes are reported
// separately.
ServeShape MutateShape() {
  ServeShape s;
  s.pool_size = 4096;
  s.coalesce = false;
  s.read_rate = 20000;
  s.write_rate = 3;
  s.tick_ms = 5.0;
  s.slo_ms = 50.0;
  s.read_tail = 0.99;
  s.clients = 1;  // with two, capacity around the applies varied +-20%
  return s;
}

std::vector<data::TrustPair> MakePool(size_t num_users, size_t size,
                                      uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_int_distribution<int> user(0, static_cast<int>(num_users) - 1);
  std::vector<data::TrustPair> pool(size);
  for (data::TrustPair& p : pool) {
    p.src = user(rng);
    do {
      p.dst = user(rng);
    } while (p.dst == p.src);
  }
  return pool;
}

/// `count` key indices into a pool of `pool_size`: Zipf-ranked when
/// `exponent` > 0 (rank r drawn with weight 1/(r+1)^s), else uniform.
std::vector<uint32_t> MakeKeys(size_t pool_size, double exponent, size_t count,
                               uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  std::vector<uint32_t> keys(count);
  if (exponent <= 0) {
    std::uniform_int_distribution<uint32_t> any(
        0, static_cast<uint32_t>(pool_size - 1));
    for (uint32_t& k : keys) k = any(rng);
    return keys;
  }
  std::vector<double> cdf(pool_size);
  double total = 0;
  for (size_t r = 0; r < pool_size; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  std::uniform_real_distribution<double> u(0.0, total);
  for (uint32_t& k : keys) {
    k = static_cast<uint32_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u(rng)) - cdf.begin());
    if (k >= pool_size) k = static_cast<uint32_t>(pool_size - 1);
  }
  return keys;
}

uint32_t Bits(float f) {
  uint32_t b = 0;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double HistogramMeanMs(const metrics::Snapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name && h.count > 0) {
      return h.sum / static_cast<double>(h.count) * 1e3;
    }
  }
  return 0.0;
}

/// Both load phases of a serve workload and what the wrappers saw.
struct ServePhases {
  LoadOutcome open;
  LoadOutcome closed;
  serve::ServerStats open_stats;
  double closed_wall_s = 0;
  double closed_busy_s = 0;  // backend + apply time inside the closed loop
  double closed_batches = 0;
  double closed_pairs = 0;
  Samples closed_batch_ms;
};

/// Runs the open loop, then the closed loop, each for half the budget
/// (0.5 s warm-up included) on a fresh server, so each starts with a cold
/// cache. `timed` / `timed_sink` are the traced run's wrappers (null when
/// untraced); the server talks to `primary` / `sink` either way.
ServePhases MeasureServe(const RunOptions& options, const ServeShape& shape,
                         serve::ScoreBackend* primary,
                         serve::MutationSink* sink, TimedBackend* timed,
                         TimedSink* timed_sink, Traffic traffic) {
  serve::ServeOptions so;
  so.queue_capacity = 8192;
  so.max_batch_size = 32;
  so.coalesce = shape.coalesce;
  so.score_cache_entries = shape.cache_entries;
  const double half = options.seconds / 2.0;

  ServePhases p;
  OpenLoopConfig open;
  open.read_rate = shape.read_rate;
  open.write_rate = shape.write_rate;
  open.tick_ms = shape.tick_ms;
  open.warmup_seconds = 0.5;
  open.seconds = half - open.warmup_seconds;
  open.slo_ms = shape.slo_ms;
  {
    const CpuSplit split = CpuSplit::Make(1);
    const CpuKeepers keepers(split.all);
    serve::TrustServer server(so, primary, nullptr, sink);
    StartOnServerCpus(&server, split);
    p.open = RunOpenLoop(&server, traffic, open);
    server.Shutdown();
    PinThisThread(split.all);
    p.open_stats = server.Stats();
  }

  auto busy = [&] {
    return (timed ? timed->busy_seconds() : 0.0) +
           (timed_sink ? timed_sink->busy_seconds() : 0.0);
  };
  const double busy_before = busy();
  const double batches_before = timed ? timed->batches() : 0;
  const double pairs_before = timed ? timed->pairs() : 0;
  if (timed) timed->ResetSamples();
  traffic.first_key = p.open.next_key;
  traffic.first_delta = p.open.next_delta;
  ClosedLoopConfig closed;
  closed.clients = shape.clients;
  closed.window = shape.window;
  closed.write_rate = shape.write_rate;
  closed.warmup_seconds = 0.5;
  closed.seconds = half - closed.warmup_seconds;
  const int64_t start = NowNs();
  {
    const CpuSplit split = CpuSplit::Make(shape.clients);
    serve::TrustServer server(so, primary, nullptr, sink);
    StartOnServerCpus(&server, split);
    p.closed = RunClosedLoop(&server, traffic, closed);
    server.Shutdown();
    PinThisThread(split.all);
  }
  p.closed_wall_s = SecondsSince(start);
  p.closed_busy_s = busy() - busy_before;
  if (timed) {
    p.closed_batches = static_cast<double>(timed->batches()) - batches_before;
    p.closed_pairs = static_cast<double>(timed->pairs()) - pairs_before;
    p.closed_batch_ms = timed->batch_ms();
  }
  return p;
}

/// Folds both phases' read and write counts into the result.
void CountOps(const ServePhases& p, Result* r) {
  for (const LoadOutcome* o : {&p.open, &p.closed}) {
    r->attempted += o->reads_sent + o->writes_sent;
    r->ok += o->reads_ok + o->writes_ok;
    r->failed += o->reads_failed + o->writes_failed;
    r->refused += o->reads_refused + o->writes_refused;
  }
  if (r->failed > 0) {
    r->correct = false;
    r->Note("failure.ops", std::to_string(r->failed) + " reads/writes failed");
  }
}

/// Counts `mismatches` wrong outputs as failed operations.
void CountWrong(int64_t mismatches, const std::string& what, Result* r) {
  if (mismatches == 0) return;
  r->ok -= std::min(r->ok, mismatches);
  r->failed += mismatches;
  r->correct = false;
  r->Note("failure.mismatch", std::to_string(mismatches) + " " + what);
}

/// End-to-end metrics of a serve workload, whose operation is a read.
void SetReadMetrics(const ServePhases& p, const ServeShape& shape,
                    Result* r) {
  r->Set("peak_rss_mb", PeakRssMb(), "MB");
  r->Set("op_p50_ms", p.open.ReadPercentile(0.5), "ms");
  r->Set("op_tail_ms", p.open.ReadPercentile(shape.read_tail), "ms");
  size_t samples = SIZE_MAX, beyond = SIZE_MAX;
  for (const Window& w : p.open.windows) {
    samples = std::min(samples, w.read_ms.size());
    beyond = std::min(beyond, w.read_ms.CountAbove(shape.read_tail));
  }
  r->Note("op_tail_ms.percentile",
          Fmt("p%g", shape.read_tail * 100) + ", median of " +
              std::to_string(p.open.windows.size()) + " windows of 0.5 s");
  r->Note("op_tail_ms.min_window_samples", std::to_string(samples));
  r->Note("op_tail_ms.min_window_beyond", std::to_string(beyond));
  r->Note("op_p50_ms.rate_per_s", Fmt("%g", shape.read_rate));
  r->Set("serve.read_slo_ratio", p.open.SloRatio(), "ratio");
  r->Note("serve.read_slo_ratio.limit_ms", Fmt("%g", shape.slo_ms));
  r->Set("op_per_s", p.closed.OkRate(), "1/s");
  r->Note("op_per_s.outstanding",
          std::to_string(shape.clients) + " clients x " +
              std::to_string(shape.window));
}

/// serve.* layer metrics: self time and busy share from the closed loop
/// (saturation), cache/coalescing/shedding and generator lateness from the
/// open loop (the fixed rate op_p50_ms is measured at).
void SetServeLayers(const ServePhases& p, Result* r) {
  const double closed_reads = static_cast<double>(p.closed.reads_ok);
  r->Set("models.score_batch_p50_ms", p.closed_batch_ms.Percentile(0.5),
         "ms");
  r->Set("serve.self_us_per_read",
         Ratio((p.closed_wall_s - p.closed_busy_s) * 1e6, closed_reads), "us");
  r->Set("serve.backend_busy_share", Ratio(p.closed_busy_s, p.closed_wall_s),
         "ratio");
  r->Set("serve.batch_size_mean", Ratio(p.closed_pairs, p.closed_batches),
         "count");
  r->Set("serve.generator_late_p50_ms", p.open.tick_late_ms.Percentile(0.5),
         "ms");
  const serve::ServerStats& s = p.open_stats;
  const double admitted = static_cast<double>(s.submitted - s.rejected);
  r->Set("serve.cache_hit_ratio",
         Ratio(static_cast<double>(s.cache_hits), admitted), "ratio");
  r->Set("serve.coalesced_ratio",
         Ratio(static_cast<double>(s.coalesced), admitted), "ratio");
  r->Set("serve.shed_ratio",
         Ratio(static_cast<double>(s.rejected),
               static_cast<double>(s.submitted)),
         "ratio");
  r->Note("serve.layer_phases",
          "score_batch/self_us/busy_share/batch_size: closed loop; "
          "cache/coalesced/shed/generator_late: open loop");
}

void SetSetupLayers(double generate_s, double graph_s, double plan_s,
                    const SetupSpans& spans, Result* r) {
  r->Set("data.generate_s", generate_s, "s");
  r->Set("graph.build_s", graph_s + spans.pagerank_s, "s");
  r->Set("hypergraph.build_s", spans.hypergraph_s, "s");
  r->Set("models.plan_build_s", plan_s, "s");
  r->Set("models.spill_s", spans.spill_s, "s");
  r->Note("graph.build_s.basis",
          "digraph build timed from outside + (motif) PageRank spans");
}

void SetTensorRate(const metrics::Snapshot& snap, double seconds, Result* r) {
  const double flops = CounterOf(snap, "tensor.matmul.flops") +
                       CounterOf(snap, "tensor.spmm.flops") +
                       CounterOf(snap, "tensor.spmm_t.flops");
  r->Set("tensor.gflops_per_s", Ratio(flops * 1e-9, seconds), "GFLOP/s");
}

void WriteSpans(const SpanLog& spans, const RunOptions& options, Result* r) {
  const std::string path = options.run_dir + "/spans.csv";
  if (spans.WriteCsv(path)) r->Note("trace.file", path);
  r->Set("trace.spans", static_cast<double>(spans.size()), "count");
}

size_t CountPlanDirs(const std::string& root) {
  size_t n = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("plan_", 0) == 0) {
      ++n;
    }
  }
  return n;
}

double MeanBlockBytes(const std::string& root) {
  double total = 0;
  size_t n = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".emb") {
      total += static_cast<double>(entry.file_size());
      ++n;
    }
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

/// Everything the read workloads keep alive while serving. Heap-held so
/// the model's input pointers stay valid.
struct ModelStack {
  data::SocialDataset dataset;
  std::optional<graph::Digraph> graph;
  tensor::Matrix features;
  models::TrustPredictor* predictor = nullptr;  // owned by backend
  std::unique_ptr<serve::ModelBackend> backend;
};

Result RunModelServe(const RunOptions& options, const ServeShape& shape,
                     bool sharded) {
  Result result;
  SpanLog spans(options.trace);
  SetupTracing tracing(options.trace);
  SetNumThreads(kPoolThreads);
  const std::string spill_root = options.run_dir + "/spill";

  auto stack = std::make_unique<ModelStack>();
  PhaseTimer gen_timer(&spans, "data.generate");
  data::GeneratorConfig gen = data::GeneratorConfig::EpinionsLike(1.0);
  gen.seed = options.seed;
  stack->dataset = data::SocialNetworkGenerator(gen).Generate();
  stack->features = data::BuildFeatureMatrix(stack->dataset);
  const double generate_s = gen_timer.Stop();

  PhaseTimer graph_timer(&spans, "graph.build");
  auto graph = stack->dataset.TrustGraph();
  AHNTP_CHECK_OK(graph.status());
  stack->graph.emplace(std::move(graph).value());
  const double graph_s = graph_timer.Stop();

  models::ModelInputs inputs;
  inputs.features = &stack->features;
  inputs.graph = &*stack->graph;
  inputs.dataset = &stack->dataset;
  inputs.hidden_dims = kHiddenDims;
  const uint64_t model_seed = options.seed;
  auto make_predictor = [inputs, model_seed]() mutable {
    Rng rng(model_seed);
    inputs.rng = &rng;
    core::AhntpConfig config;
    config.hidden_dims = kHiddenDims;
    auto created = core::CreatePredictor("AHNTP", inputs, config);
    AHNTP_CHECK_OK(created.status());
    return std::move(created).value();
  };
  PhaseTimer model_timer(&spans, "models.create");
  std::unique_ptr<models::TrustPredictor> predictor = make_predictor();
  stack->predictor = predictor.get();
  model_timer.Stop();

  std::optional<models::ShardedPlanOptions> plan_options;
  if (sharded) {
    models::ShardedPlanOptions so;
    so.num_shards = 8;
    so.max_resident_shards = 2;
    so.spill_dir = spill_root;
    plan_options = so;
  }
  PhaseTimer plan_timer(&spans, "models.plan_build");
  stack->backend = std::make_unique<serve::ModelBackend>(
      make_predictor, std::move(predictor), plan_options);
  const double plan_s = plan_timer.Stop();
  result.Set("setup_s", SecondsSince(g_process_start_ns), "s");
  const SetupSpans setup_spans = tracing.Finish();
  if (options.setup_only) return result;

  // Client-side inputs: a fixed key pool and a key stream from the seed.
  const std::vector<data::TrustPair> pool =
      MakePool(stack->dataset.num_users, shape.pool_size, options.seed);
  const std::vector<uint32_t> keys = MakeKeys(
      shape.pool_size, shape.zipf_exponent, size_t{1} << 22, options.seed);

  serve::ScoreBackend* primary = stack->backend.get();
  MismatchBackend mismatch(primary, /*nth=*/3);
  if (options.inject_mismatch) primary = &mismatch;
  TimedBackend timed(primary, &spans);
  if (options.trace) primary = &timed;
  Traffic traffic{&pool, &keys, nullptr, options.trace ? &spans : nullptr, 0,
                  0};
  const ServePhases phases =
      MeasureServe(options, shape, primary, nullptr,
                   options.trace ? &timed : nullptr, nullptr, traffic);
  const metrics::Snapshot snap =
      options.trace ? metrics::Collect() : metrics::Snapshot();

  // Correctness: every served score equals, bit for bit, what the
  // predictor gives directly. The sharded plan is checked against the
  // monolithic one, which is what it promises to reproduce.
  CountOps(phases, &result);
  if (sharded) stack->predictor->DisableShardedInference();
  const std::vector<float> reference =
      stack->predictor->PredictProbabilities(pool);
  CountWrong(phases.open.served.Mismatches(reference) +
                 phases.closed.served.Mismatches(reference),
             "served scores differ bitwise from PredictProbabilities",
             &result);

  // Spill hygiene: count the plan directories the backend leaves behind,
  // then remove this run's spill root either way.
  const double block_bytes = MeanBlockBytes(spill_root);
  stack->backend.reset();
  const size_t dirs_left = CountPlanDirs(spill_root);
  std::error_code ec;
  std::filesystem::remove_all(spill_root, ec);

  // The traced run prints end-to-end metrics too; run.py states the
  // tracing overhead from them and keeps only the per-layer set.
  SetReadMetrics(phases, shape, &result);
  if (!options.trace) return result;
  AddPerLayerDefaults(&result);
  SetServeLayers(phases, &result);
  const double faults = CounterOf(snap, "infer.shard_faults");
  const double hits = CounterOf(snap, "infer.shard_hits");
  const double batches = static_cast<double>(timed.batches());
  result.Set("models.shard_faults_per_batch", Ratio(faults, batches), "count");
  result.Set("models.shard_hit_ratio", Ratio(hits, hits + faults), "ratio");
  result.Set("models.shard_bytes_read_per_batch",
             Ratio(faults * block_bytes, batches), "B");
  result.Note("models.shard_bytes_read_per_batch.basis",
              "computed: faults x mean spilled block file size (" +
                  Fmt("%.0f", block_bytes) + " B), not measured I/O");
  SetTensorRate(snap, options.seconds, &result);
  SetSetupLayers(generate_s, graph_s, plan_s, setup_spans, &result);
  result.Set("models.spill_dirs_left", static_cast<double>(dirs_left),
             "count");
  WriteSpans(spans, options, &result);
  return result;
}

}  // namespace

Result RunServeRead(const RunOptions& options) {
  return RunModelServe(options, ReadShape(), /*sharded=*/false);
}

Result RunServeSharded(const RunOptions& options) {
  return RunModelServe(options, ShardedShape(), /*sharded=*/true);
}

Result RunServeMutate(const RunOptions& options) {
  Result result;
  SpanLog spans(options.trace);
  SetupTracing tracing(options.trace);
  SetNumThreads(kPoolThreads);
  const ServeShape shape = MutateShape();

  PhaseTimer gen_timer(&spans, "data.generate");
  data::GeneratorConfig gen = data::GeneratorConfig::CiaoLike(0.25);
  gen.seed = options.seed;
  const data::SocialDataset dataset =
      data::SocialNetworkGenerator(gen).Generate();
  const double generate_s = gen_timer.Stop();

  PhaseTimer create_timer(&spans, "core.create");
  core::DynamicPipelineOptions pipeline_options;
  pipeline_options.model.hidden_dims = kHiddenDims;
  pipeline_options.seed = options.seed;
  auto created = core::DynamicTrustPipeline::Create(dataset, pipeline_options);
  AHNTP_CHECK_OK(created.status());
  auto pipeline =
      std::make_unique<core::DynamicTrustPipeline>(std::move(created).value());
  create_timer.Stop();
  PhaseTimer plan_timer(&spans, "models.plan_build");
  serve::DynamicBackend backend(pipeline.get());
  const double plan_s = plan_timer.Stop();
  result.Set("setup_s", SecondsSince(g_process_start_ns), "s");
  const SetupSpans setup_spans = tracing.Finish();
  if (options.setup_only) return result;

  data::DeltaStreamConfig stream;
  stream.num_deltas =
      static_cast<size_t>(std::ceil(shape.write_rate * options.seconds)) + 8;
  stream.adds_per_delta = 4;
  stream.removes_per_delta = 2;
  stream.ratings_per_delta = 0;
  stream.seed = options.seed ^ 0x5bd1e995ULL;
  const std::vector<graph::GraphDelta> deltas =
      data::GenerateTrustDeltas(dataset, stream);
  const std::vector<data::TrustPair> pool =
      MakePool(dataset.num_users, shape.pool_size, options.seed);
  const std::vector<uint32_t> keys =
      MakeKeys(shape.pool_size, 0.0, size_t{1} << 20, options.seed);

  TimedBackend timed(&backend, &spans);
  TimedSink timed_sink(&backend, &spans);
  serve::ScoreBackend* primary = &backend;
  serve::MutationSink* sink = &backend;
  if (options.trace) {
    primary = &timed;
    sink = &timed_sink;
  }
  Traffic traffic{&pool, &keys, &deltas, options.trace ? &spans : nullptr, 0,
                  0};
  const ServePhases phases =
      MeasureServe(options, shape, primary, sink,
                   options.trace ? &timed : nullptr,
                   options.trace ? &timed_sink : nullptr, traffic);
  const metrics::Snapshot snap =
      options.trace ? metrics::Collect() : metrics::Snapshot();

  // Correctness: after the stream, the incrementally maintained pipeline
  // scores a probe set exactly as a pipeline rebuilt from the final graph.
  CountOps(phases, &result);
  const std::vector<data::TrustPair> probes(pool.begin(), pool.begin() + 1024);
  if (options.inject_mismatch) {
    const models::InferencePlan* plan = pipeline->predictor().inference_plan();
    AHNTP_CHECK(plan != nullptr && plan->built());
    tensor::Matrix row(1, plan->embeddings().cols());
    for (size_t j = 0; j < row.cols(); ++j) row.At(0, j) = 0.25f;
    AHNTP_CHECK_OK(
        pipeline->predictor().RefreshPlanRows({probes[0].src}, row));
  }
  const std::vector<float> got =
      pipeline->predictor().PredictProbabilities(probes);
  auto rebuilt = pipeline->RebuildFromScratch();
  AHNTP_CHECK_OK(rebuilt.status());
  const std::vector<float> want =
      rebuilt.value().predictor().PredictProbabilities(probes);
  int64_t mismatches = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    if (Bits(got[i]) != Bits(want[i])) ++mismatches;
  }
  CountWrong(mismatches, "probe scores differ bitwise from RebuildFromScratch",
             &result);
  result.Note("writes_applied",
              std::to_string(phases.open.writes_ok + phases.closed.writes_ok));

  SetReadMetrics(phases, shape, &result);
  {
    Samples writes = phases.open.write_ms;
    for (double v : phases.closed.write_ms.values()) writes.Add(v);
    result.Set("serve.write_p50_ms", writes.Percentile(0.5), "ms");
    result.Set("serve.write_tail_ms", writes.Percentile(kWriteTail), "ms");
    result.Note("serve.write_tail_ms.percentile",
                Fmt("p%g", kWriteTail * 100) +
                    " pooled over both phases");
    result.Note("serve.write_tail_ms.samples",
                std::to_string(writes.size()));
    result.Note("serve.write_tail_ms.beyond",
                std::to_string(writes.CountAbove(kWriteTail)));
  }
  if (!options.trace) return result;
  AddPerLayerDefaults(&result);
  SetServeLayers(phases, &result);
  const double applies = static_cast<double>(timed_sink.applies());
  result.Set("core.apply_p50_ms", timed_sink.apply_ms().Percentile(0.5), "ms");
  for (const char* stage :
       {"analytics", "hypergroups", "diff", "refresh", "plan"}) {
    result.Set(std::string("core.apply.") + stage + "_ms",
               HistogramMeanMs(snap, std::string("dynamic.apply.") + stage +
                                         "_seconds"),
               "ms");
  }
  result.Note("core.apply.stage_basis",
              "mean of the program's dynamic.apply.*_seconds histograms");
  result.Set("core.apply.dirty_users_mean",
             Ratio(CounterOf(snap, "dynamic.apply.dirty_users"),
                   CounterOf(snap, "dynamic.apply.calls")),
             "count");
  result.Set("graph.pagerank_iterations_per_apply",
             Ratio(CounterOf(snap, "graph.pagerank.iterations"), applies),
             "count");
  result.Note("graph.pagerank_iterations_saved_per_apply",
              Fmt("%.1f", Ratio(CounterOf(snap,
                                          "dynamic.pagerank.iterations_saved"),
                                applies)));
  result.Set("hypergraph.update_touched_per_apply",
             Ratio(CounterOf(snap, "hypergraph.update.pairwise_touched") +
                       CounterOf(snap,
                                 "hypergraph.update.multi_hop_dirty_anchors"),
                   applies),
             "count");
  SetTensorRate(snap, options.seconds, &result);
  SetSetupLayers(generate_s, 0.0, plan_s, setup_spans, &result);
  WriteSpans(spans, options, &result);
  return result;
}

}  // namespace trustbench
