// train: AHNTP full-batch training (contrastive + BCE) for a fixed epoch
// count, the only workload that runs autograd, nn and training-size
// tensor kernels.
#include <cmath>
#include <memory>
#include <optional>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/model_zoo.h"
#include "core/trainer.h"
#include "data/features.h"
#include "data/generator.h"
#include "data/split.h"
#include "probes.h"
#include "workloads.h"

namespace trustbench {

using namespace ahntp;

namespace {

/// Epochs per second of --seconds. An epoch takes ~0.8 s at 2k users on
/// one thread, so Fit runs for about --seconds.
constexpr double kEpochsPerSecond = 1.25;

}  // namespace

Result RunTrain(const RunOptions& options) {
  Result result;
  SpanLog spans(options.trace);
  SetupTracing tracing(options.trace);
  SetNumThreads(kPoolThreads);

  PhaseTimer gen_timer(&spans, "data.generate");
  data::GeneratorConfig gen = data::GeneratorConfig::CiaoLike(0.5);
  gen.seed = options.seed;
  const data::SocialDataset dataset =
      data::SocialNetworkGenerator(gen).Generate();
  const tensor::Matrix features = data::BuildFeatureMatrix(dataset);
  const double generate_s = gen_timer.Stop();

  PhaseTimer split_timer(&spans, "data.split");
  data::SplitOptions split_options;
  split_options.seed = options.seed;
  const data::TrustSplit split = data::MakeSplit(dataset, split_options);
  const double split_s = split_timer.Stop();

  PhaseTimer graph_timer(&spans, "graph.build");
  auto graph = dataset.GraphFromEdges(split.train_positive);
  AHNTP_CHECK_OK(graph.status());
  const graph::Digraph train_graph = std::move(graph).value();
  const double graph_s = graph_timer.Stop();

  PhaseTimer model_timer(&spans, "models.create");
  Rng rng(options.seed);
  models::ModelInputs inputs;
  inputs.features = &features;
  inputs.graph = &train_graph;
  inputs.dataset = &dataset;
  inputs.hidden_dims = {64, 32, 16};
  inputs.rng = &rng;
  core::AhntpConfig config;
  config.hidden_dims = inputs.hidden_dims;
  auto spec = core::CreateEncoder("AHNTP", inputs, config);
  AHNTP_CHECK_OK(spec.status());
  models::TrustPredictor predictor(spec.value().encoder,
                                   models::TrustPredictorConfig{}, &rng);
  model_timer.Stop();
  result.Set("setup_s", SecondsSince(g_process_start_ns), "s");
  const SetupSpans setup_spans = tracing.Finish();
  if (options.setup_only) return result;

  // A fixed epoch count, no early stopping (no validation pairs), so the
  // trained weights and core.test_auc depend only on the seed and --seconds.
  core::TrainerConfig trainer_config;
  trainer_config.epochs =
      static_cast<int>(std::lround(kEpochsPerSecond * options.seconds));
  trainer_config.batch_size = 0;
  trainer_config.use_contrastive = spec.value().use_contrastive;
  trainer_config.seed = options.seed;
  EpochClock clock(trainer_config.learning_rate);
  trainer_config.lr_schedule = &clock;
  core::Trainer trainer(trainer_config);
  const int64_t fit_start = NowNs();
  auto fit = trainer.Fit(&predictor, split.train_pairs);
  const int64_t fit_end = NowNs();
  AHNTP_CHECK_OK(fit.status());
  spans.Add("core.fit", fit_start, fit_end);
  const Samples epochs = clock.EpochMs(fit_end);
  for (size_t i = 0; i < clock.starts_ns().size(); ++i) {
    const int64_t end = i + 1 < clock.starts_ns().size()
                            ? clock.starts_ns()[i + 1]
                            : fit_end;
    spans.Add("core.epoch", clock.starts_ns()[i], end, 1, i + 1);
  }
  const metrics::Snapshot snap =
      options.trace ? metrics::Collect() : metrics::Snapshot();

  const core::BinaryMetrics test =
      trainer.Evaluate(&predictor, split.test_pairs);
  result.attempted = trainer_config.epochs;
  result.ok = static_cast<int64_t>(epochs.size());
  if (!std::isfinite(test.auc) ||
      static_cast<int>(epochs.size()) != trainer_config.epochs) {
    result.Fail("core.test_auc is not finite or epochs were skipped");
  }

  // The workload's operation is an epoch.
  const double fit_s = static_cast<double>(fit_end - fit_start) * 1e-9;
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  result.Set("op_p50_ms", epochs.Percentile(0.5), "ms");
  result.Set("op_tail_ms", epochs.Percentile(0.75), "ms");
  result.Note("op_tail_ms.percentile", "p75");
  result.Note("op_tail_ms.samples", std::to_string(epochs.size()));
  result.Note("op_tail_ms.beyond", std::to_string(epochs.CountAbove(0.75)));
  result.Set("op_per_s", static_cast<double>(epochs.size()) / fit_s, "1/s");
  result.Set("core.test_auc", test.auc, "ratio");
  result.Note("epochs", std::to_string(trainer_config.epochs));
  if (!options.trace) return result;
  AddPerLayerDefaults(&result);
  const double n = static_cast<double>(epochs.size());
  const double matmul = CounterOf(snap, "tensor.matmul.flops");
  const double spmm = CounterOf(snap, "tensor.spmm.flops") +
                      CounterOf(snap, "tensor.spmm_t.flops");
  result.Set("tensor.matmul_gflop_per_epoch", matmul * 1e-9 / n, "GFLOP");
  result.Set("tensor.spmm_gflop_per_epoch", spmm * 1e-9 / n, "GFLOP");
  result.Set("tensor.gflops_per_s", (matmul + spmm) * 1e-9 / fit_s, "GFLOP/s");
  result.Set("data.generate_s", generate_s, "s");
  result.Set("data.split_s", split_s, "s");
  result.Set("graph.build_s", graph_s + setup_spans.pagerank_s, "s");
  result.Set("hypergraph.build_s", setup_spans.hypergraph_s, "s");
  const std::string path = options.run_dir + "/spans.csv";
  if (spans.WriteCsv(path)) result.Note("trace.file", path);
  result.Set("trace.spans", static_cast<double>(spans.size()), "count");
  return result;
}

}  // namespace trustbench
