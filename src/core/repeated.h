#ifndef AHNTP_CORE_REPEATED_H_
#define AHNTP_CORE_REPEATED_H_

#include <string>
#include <vector>

#include "core/experiment.h"

namespace ahntp::core {

/// Mean and sample standard deviation of one metric across repeats.
struct MetricSummary {
  double mean = 0.0;
  double stddev = 0.0;
};

/// Fault-tolerance knobs for RunRepeatedExperiment (DESIGN.md §10).
struct SweepOptions {
  /// Path of the sweep-state checkpoint ("" disables checkpointing). The
  /// file is rewritten atomically after every completed run, so an
  /// interrupted sweep loses at most the runs still in flight.
  std::string state_path;
  /// Load completed runs from `state_path` (when it exists) instead of
  /// recomputing them. Runs are seeded per index, so a resumed sweep is
  /// bit-identical to an uninterrupted one on every metric. Previously
  /// failed runs are retried. The state header records the sweep identity
  /// (model, run count, seeds); resuming against a mismatched state file
  /// is an InvalidArgument, not silent reuse.
  bool resume = false;
};

/// Aggregate of repeated experiment runs (different model seeds and/or
/// split seeds). Single-seed GNN results on small graphs are noisy; papers
/// (and this harness) should report means.
struct RepeatedResult {
  std::string model;
  /// Runs that completed successfully and entered the aggregates.
  int num_runs = 0;
  MetricSummary accuracy;
  MetricSummary f1;
  MetricSummary auc;
  double total_train_seconds = 0.0;
  /// Every successful run's full result (per-run metrics, threshold,
  /// best epoch, ...), in run order.
  std::vector<ExperimentResult> runs;
  /// Degraded runs: a run that returned a non-OK Status or threw is
  /// reported here ("run 2: Internal: ...") while the sweep completes; it
  /// never enters the aggregates.
  int num_failed = 0;
  std::vector<std::string> failures;
  /// Completed runs loaded from SweepOptions::state_path rather than
  /// recomputed.
  int num_resumed = 0;

  std::string ToString() const;
};

/// Runs the experiment `num_runs` times with model seeds
/// config.model_seed + i. When `vary_split_seed` is set, the split seed
/// advances in lockstep as well (different negative samples / shuffles).
/// Failed runs degrade into RepeatedResult::failures instead of aborting
/// the sweep; only a sweep with zero successful runs returns an error.
/// `options` adds periodic sweep-state checkpointing and resume.
/// Fault-injection site: "experiment.run" throws at run entry
/// (common/fault.h).
Result<RepeatedResult> RunRepeatedExperiment(const data::SocialDataset& dataset,
                                             ExperimentConfig config,
                                             int num_runs,
                                             bool vary_split_seed = false,
                                             const SweepOptions& options = {});

/// K-fold style robustness check over the *positive edge set*: rotates the
/// split seed so each fold sees a different test slice, mirroring the
/// paper's Q2 robustness question. Returns the cross-fold summary.
Result<RepeatedResult> RunCrossValidation(const data::SocialDataset& dataset,
                                          ExperimentConfig config,
                                          int num_folds = 5);

}  // namespace ahntp::core

#endif  // AHNTP_CORE_REPEATED_H_
