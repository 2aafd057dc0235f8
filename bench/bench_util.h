#ifndef AHNTP_BENCH_BENCH_UTIL_H_
#define AHNTP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "core/experiment.h"
#include "data/generator.h"

namespace ahntp::bench {

/// Options shared by the bench binaries.
///
/// Defaults are sized so the *whole* bench suite completes on one CPU core
/// in tens of minutes: datasets are generated at `scale` of the Table III
/// sizes and the conv stack uses the scaled dims 64-32-16. Pass
/// --scale=0.125 --dims=256,128,64 --epochs=120 to approach the paper's
/// setting (hours of CPU time).
struct BenchOptions {
  double scale = 0.06;
  /// Epoch cap; early stopping (validation AUC, patience 6 x 5 epochs)
  /// usually stops well before it.
  int epochs = 300;
  std::vector<size_t> dims = {64, 32, 16};
  uint64_t seed = 1;
  /// Number of model seeds to average each cell over (--seeds=3 tightens
  /// the tables at proportional cost).
  int num_seeds = 1;
  bool include_epinions = true;
  bool include_ciao = true;
  /// Resolved execution-substrate worker count (set from --threads /
  /// AHNTP_THREADS by FromFlags; recorded in every bench's JSON meta line).
  int threads = 1;

  static BenchOptions FromFlags(const FlagParser& flags) {
    BenchOptions options;
    options.threads = ApplyRuntimeFlags(flags);
    // Bare --metrics turns the registry on without naming a path; PrintBanner
    // then defaults the snapshot to BENCH_<id>.metrics.json next to the
    // bench's other JSON output.
    if (flags.GetBool("metrics", false)) metrics::Enable();
    options.scale = flags.GetDouble("scale", options.scale);
    options.epochs = static_cast<int>(flags.GetInt("epochs", options.epochs));
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    options.num_seeds = static_cast<int>(flags.GetInt("seeds", 1));
    std::vector<int64_t> dims =
        flags.GetIntList("dims", {64, 32, 16});
    options.dims.assign(dims.begin(), dims.end());
    std::vector<std::string> datasets =
        flags.GetStringList("datasets", {"ciao", "epinions"});
    options.include_ciao = false;
    options.include_epinions = false;
    for (const std::string& d : datasets) {
      if (d == "ciao") options.include_ciao = true;
      if (d == "epinions") options.include_epinions = true;
    }
    return options;
  }
};

/// Baseline experiment config from bench options.
inline core::ExperimentConfig BaseExperimentConfig(
    const BenchOptions& options) {
  core::ExperimentConfig config;
  config.hidden_dims = options.dims;
  config.trainer.epochs = options.epochs;
  config.model_seed = options.seed;
  return config;
}

/// Runs one experiment, aborting on configuration errors (a bench binary
/// has no meaningful recovery path).
inline core::ExperimentResult MustRun(const data::SocialDataset& dataset,
                                      const core::ExperimentConfig& config) {
  auto result = core::RunExperiment(dataset, config);
  AHNTP_CHECK(result.ok()) << config.model << ": "
                           << result.status().ToString();
  return std::move(result).value();
}

/// Prints the standard bench banner plus a machine-readable meta line
/// (`BENCH_META {...}` JSON) recording the run configuration — including
/// the execution-substrate thread count — so downstream tooling can
/// attribute results to a configuration.
inline void PrintBanner(const char* experiment_id, const char* description,
                        const BenchOptions& options) {
  // When the metrics registry is on but no snapshot path was named
  // (--metrics without --metrics_out), default it to a sidecar named after
  // the bench, matching the BENCH_*.json convention; the snapshot is then
  // written by the registry's process-exit hook.
  if (metrics::Enabled() && metrics::OutputPath().empty()) {
    metrics::SetOutputPath(
        StrFormat("BENCH_%s.metrics.json", experiment_id));
  }
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment_id, description);
  if (metrics::Enabled()) {
    std::printf("metrics snapshot -> %s\n", metrics::OutputPath().c_str());
  }
  std::printf(
      "BENCH_META {\"bench\": \"%s\", \"threads\": %d, \"scale\": %.4f, "
      "\"epochs\": %d, \"seed\": %lu, \"seeds\": %d}\n",
      experiment_id, options.threads, options.scale, options.epochs,
      static_cast<unsigned long>(options.seed), options.num_seeds);
  std::printf(
      "scale=%.3f of Table III sizes, threads=%d, dims=", options.scale,
      options.threads);
  for (size_t i = 0; i < options.dims.size(); ++i) {
    std::printf(i == 0 ? "%zu" : "-%zu", options.dims[i]);
  }
  std::printf(", epochs=%d, seed=%lu\n", options.epochs,
              static_cast<unsigned long>(options.seed));
  std::printf(
      "NOTE: datasets are synthetic stand-ins for Epinions/Ciao (see\n"
      "DESIGN.md); compare *relative* orderings with the paper, not\n"
      "absolute numbers. Paper reference values printed alongside.\n");
  std::printf("==============================================================\n");
}

}  // namespace ahntp::bench

#endif  // AHNTP_BENCH_BENCH_UTIL_H_
