#include "core/repeated.h"

#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/fileio.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/trace.h"

namespace ahntp::core {

namespace {

MetricSummary Summarize(const std::vector<double>& values) {
  MetricSummary summary;
  if (values.empty()) return summary;
  double sum = 0.0;
  for (double v : values) sum += v;
  summary.mean = sum / static_cast<double>(values.size());
  if (values.size() > 1) {
    double sq = 0.0;
    for (double v : values) {
      double d = v - summary.mean;
      sq += d * d;
    }
    summary.stddev = std::sqrt(sq / static_cast<double>(values.size() - 1));
  }
  return summary;
}

// ---------------------------------------------------------------------------
// Sweep-state checkpoint format (line-based, comma-separated).
//
//   ahntp-sweep-state,<version>,<model>,<num_runs>,<vary_split_seed>,
//       <model_seed>,<split_seed>
//   run,<idx>,ok,<threshold>,<best_epoch>,<setup_s>,<train_s>,<num_params>,
//       <test acc,prec,rec,f1,auc,n>,<train acc,prec,rec,f1,auc,n>
//   run,<idx>,failed,<status code>,<message, may contain commas>
//
// Floating-point fields use C hexfloats ("%a") so a reloaded run is
// bit-identical to the run that produced it; ParseDouble (strtod) reads
// them back exactly. The header fingerprints the sweep so --resume cannot
// silently mix state from a different model or seed range.
// ---------------------------------------------------------------------------

constexpr int kStateVersion = 1;

std::string SerializeMetrics(const BinaryMetrics& m) {
  return StrFormat("%a,%a,%a,%a,%a,%zu", m.accuracy, m.precision, m.recall,
                   m.f1, m.auc, m.num_samples);
}

std::string HeaderLine(const ExperimentConfig& config, int num_runs,
                       bool vary_split_seed) {
  return StrFormat("ahntp-sweep-state,%d,%s,%d,%d,%llu,%llu", kStateVersion,
                   config.model.c_str(), num_runs, vary_split_seed ? 1 : 0,
                   static_cast<unsigned long long>(config.model_seed),
                   static_cast<unsigned long long>(config.split.seed));
}

std::string SerializeRun(size_t idx, const Result<ExperimentResult>& run) {
  if (!run.ok()) {
    return StrFormat("run,%zu,failed,%s,%s", idx,
                     StatusCodeToString(run.status().code()),
                     run.status().message().c_str());
  }
  const ExperimentResult& r = run.value();
  return StrFormat("run,%zu,ok,%a,%d,%a,%a,%zu,%s,%s", idx,
                   static_cast<double>(r.threshold), r.best_epoch,
                   r.setup_seconds, r.train_seconds, r.num_parameters,
                   SerializeMetrics(r.test).c_str(),
                   SerializeMetrics(r.train).c_str());
}

Status ParseMetrics(const std::vector<std::string>& fields, size_t offset,
                    BinaryMetrics* out) {
  AHNTP_ASSIGN_OR_RETURN(out->accuracy, ParseDouble(fields[offset]));
  AHNTP_ASSIGN_OR_RETURN(out->precision, ParseDouble(fields[offset + 1]));
  AHNTP_ASSIGN_OR_RETURN(out->recall, ParseDouble(fields[offset + 2]));
  AHNTP_ASSIGN_OR_RETURN(out->f1, ParseDouble(fields[offset + 3]));
  AHNTP_ASSIGN_OR_RETURN(out->auc, ParseDouble(fields[offset + 4]));
  AHNTP_ASSIGN_OR_RETURN(int64_t n, ParseInt(fields[offset + 5]));
  out->num_samples = static_cast<size_t>(n);
  return Status::Ok();
}

/// Completed runs recovered from a prior sweep's state file, by run index.
/// Failed runs are deliberately *not* recovered: a resumed sweep retries
/// them (the failure may have been an injected or transient fault).
Status LoadSweepState(const std::string& path, const ExperimentConfig& config,
                      int num_runs, bool vary_split_seed,
                      std::vector<Result<ExperimentResult>>* runs,
                      std::vector<uint8_t>* loaded) {
  std::string contents;
  AHNTP_RETURN_IF_ERROR(ReadFileToString(path, &contents));
  std::vector<std::string> lines = StrSplit(contents, '\n');
  if (lines.empty() || StrTrim(lines[0]).empty()) {
    return Status::Corruption("sweep state is empty: " + path);
  }
  const std::string expected = HeaderLine(config, num_runs, vary_split_seed);
  if (StrTrim(lines[0]) != expected) {
    return Status::InvalidArgument(StrFormat(
        "sweep state %s does not match this sweep (header \"%s\", expected "
        "\"%s\"); delete it or fix the configuration",
        path.c_str(), StrTrim(lines[0]).c_str(), expected.c_str()));
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string line = StrTrim(lines[i]);
    if (line.empty()) continue;
    std::vector<std::string> fields = StrSplit(line, ',');
    if (fields.size() < 3 || fields[0] != "run") {
      return Status::Corruption(
          StrFormat("sweep state %s line %zu: unrecognized record \"%s\"",
                    path.c_str(), i + 1, line.c_str()));
    }
    AHNTP_ASSIGN_OR_RETURN(int64_t idx64, ParseInt(fields[1]));
    if (idx64 < 0 || idx64 >= num_runs) {
      return Status::Corruption(StrFormat(
          "sweep state %s line %zu: run index %lld out of range [0, %d)",
          path.c_str(), i + 1, static_cast<long long>(idx64), num_runs));
    }
    size_t idx = static_cast<size_t>(idx64);
    if (fields[2] == "failed") continue;  // retried on resume
    if (fields[2] != "ok" || fields.size() != 20) {
      return Status::Corruption(
          StrFormat("sweep state %s line %zu: malformed run record \"%s\"",
                    path.c_str(), i + 1, line.c_str()));
    }
    ExperimentResult result;
    result.model = config.model;
    AHNTP_ASSIGN_OR_RETURN(double threshold, ParseDouble(fields[3]));
    result.threshold = static_cast<float>(threshold);
    AHNTP_ASSIGN_OR_RETURN(int64_t best_epoch, ParseInt(fields[4]));
    result.best_epoch = static_cast<int>(best_epoch);
    AHNTP_ASSIGN_OR_RETURN(result.setup_seconds, ParseDouble(fields[5]));
    AHNTP_ASSIGN_OR_RETURN(result.train_seconds, ParseDouble(fields[6]));
    AHNTP_ASSIGN_OR_RETURN(int64_t num_params, ParseInt(fields[7]));
    result.num_parameters = static_cast<size_t>(num_params);
    AHNTP_RETURN_IF_ERROR(ParseMetrics(fields, 8, &result.test));
    AHNTP_RETURN_IF_ERROR(ParseMetrics(fields, 14, &result.train));
    (*runs)[idx] = std::move(result);
    (*loaded)[idx] = true;
  }
  return Status::Ok();
}

/// Rewrites the sweep-state file with every finished run so far. Atomic
/// (temp + rename, common/fileio.h), so a crash mid-write leaves the
/// previous state intact. A state-save failure degrades the sweep to
/// non-resumable rather than aborting it.
/// Fault-injection site: "sweep.state.save".
Status SaveSweepState(const std::string& path, const ExperimentConfig& config,
                      int num_runs, bool vary_split_seed,
                      const std::vector<Result<ExperimentResult>>& runs,
                      const std::vector<uint8_t>& done) {
  AHNTP_RETURN_IF_ERROR(
      fault::FaultPoint("sweep.state.save", StatusCode::kIoError));
  std::string contents = HeaderLine(config, num_runs, vary_split_seed);
  contents.push_back('\n');
  for (size_t idx = 0; idx < runs.size(); ++idx) {
    if (!done[idx]) continue;
    contents += SerializeRun(idx, runs[idx]);
    contents.push_back('\n');
  }
  return WriteFileAtomic(path, contents);
}

}  // namespace

std::string RepeatedResult::ToString() const {
  std::string text = StrFormat(
      "%s over %d runs: acc=%.4f±%.4f f1=%.4f±%.4f auc=%.4f±%.4f",
      model.c_str(), num_runs, accuracy.mean, accuracy.stddev, f1.mean,
      f1.stddev, auc.mean, auc.stddev);
  if (num_resumed > 0) {
    text += StrFormat(" (%d resumed)", num_resumed);
  }
  if (num_failed > 0) {
    text += StrFormat("; %d failed:", num_failed);
    for (const std::string& failure : failures) {
      text += "\n  " + failure;
    }
  }
  return text;
}

Result<RepeatedResult> RunRepeatedExperiment(const data::SocialDataset& dataset,
                                             ExperimentConfig config,
                                             int num_runs,
                                             bool vary_split_seed,
                                             const SweepOptions& options) {
  AHNTP_CHECK_GE(num_runs, 1);
  RepeatedResult aggregate;
  aggregate.model = config.model;
  uint64_t base_model_seed = config.model_seed;
  uint64_t base_split_seed = config.split.seed;

  std::vector<Result<ExperimentResult>> runs(
      static_cast<size_t>(num_runs), Status::Internal("run never executed"));
  // uint8_t (not vector<bool>): workers flag distinct indices concurrently,
  // and packed bits would make those writes race on shared words.
  std::vector<uint8_t> done(static_cast<size_t>(num_runs), 0);
  if (options.resume && !options.state_path.empty() &&
      std::filesystem::exists(options.state_path)) {
    AHNTP_RETURN_IF_ERROR(LoadSweepState(options.state_path, config, num_runs,
                                         vary_split_seed, &runs, &done));
    for (uint8_t d : done) aggregate.num_resumed += d ? 1 : 0;
  }

  // After each run finishes, its result is published and the full state
  // (all finished runs, in index order) rewritten atomically under this
  // mutex, so an interrupted sweep can resume losing at most the in-flight
  // runs.
  std::mutex state_mutex;
  bool state_save_warned = false;
  auto publish_result = [&](size_t idx, Result<ExperimentResult> r) {
    std::lock_guard<std::mutex> lock(state_mutex);
    runs[idx] = std::move(r);
    done[idx] = 1;
    if (options.state_path.empty()) return;
    Status status = SaveSweepState(options.state_path, config, num_runs,
                                   vary_split_seed, runs, done);
    if (!status.ok() && !state_save_warned) {
      state_save_warned = true;
      AHNTP_LOG(Warning) << "sweep state checkpoint failed (sweep continues, "
                            "but is not resumable): "
                         << status.ToString();
    }
  };

  // Fan the independent runs out across the pool: every run gets its own
  // config/seed and trains a private model against the shared read-only
  // dataset. Kernels inside a run then execute inline on that run's worker
  // (nested-parallelism policy in common/parallel.h). Runs are aggregated
  // by run index below, so the summary is the same at any thread count.
  // A run that throws or returns an error is captured as that run's Status
  // and reported in the summary; the rest of the sweep completes.
  ParallelFor(0, static_cast<size_t>(num_runs), 1, [&](size_t r0, size_t r1) {
    for (size_t run = r0; run < r1; ++run) {
      if (done[run]) continue;  // recovered via --resume
      trace::TraceSpan run_span("sweep.run");
      ExperimentConfig run_config = config;
      run_config.model_seed = base_model_seed + run;
      if (vary_split_seed) {
        run_config.split.seed = base_split_seed + run;
      }
      Result<ExperimentResult> result = Status::Internal("run never executed");
      try {
        fault::MaybeThrow("experiment.run");
        result = RunExperiment(dataset, run_config);
      } catch (const std::exception& e) {
        result = Status::Internal(
            StrFormat("run %zu threw: %s", run, e.what()));
      }
      publish_result(run, std::move(result));
    }
  });

  std::vector<double> accs, f1s, aucs;
  Status first_error = Status::Ok();
  for (size_t run = 0; run < runs.size(); ++run) {
    if (!runs[run].ok()) {
      ++aggregate.num_failed;
      AHNTP_METRIC_COUNT("experiment.run_failures", 1);
      aggregate.failures.push_back(StrFormat(
          "run %zu: %s", run, runs[run].status().ToString().c_str()));
      if (first_error.ok()) first_error = runs[run].status();
      continue;
    }
    ExperimentResult result = runs[run].value();
    accs.push_back(result.test.accuracy);
    f1s.push_back(result.test.f1);
    aucs.push_back(result.test.auc);
    aggregate.total_train_seconds += result.train_seconds;
    aggregate.last = std::move(result);
    ++aggregate.num_runs;
  }
  if (metrics::Enabled() && fault::Enabled()) {
    // Snapshot of the fault registry at sweep end: lets a telemetry consumer
    // correlate run failures with how many injections actually fired.
    metrics::GetGauge("fault.injections")
        .Set(static_cast<double>(fault::InjectionCount()));
  }
  if (aggregate.num_runs == 0) {
    // Nothing succeeded: degrading further would hide total failure.
    return first_error;
  }
  aggregate.accuracy = Summarize(accs);
  aggregate.f1 = Summarize(f1s);
  aggregate.auc = Summarize(aucs);
  return aggregate;
}

Result<RepeatedResult> RunCrossValidation(const data::SocialDataset& dataset,
                                          ExperimentConfig config,
                                          int num_folds) {
  AHNTP_CHECK_GE(num_folds, 2);
  // Each fold reshuffles positives with a distinct split seed, so the 20%
  // test slice rotates through the edge set (sampling without the
  // bookkeeping of exact partitioning, which negative sampling would break
  // anyway).
  return RunRepeatedExperiment(dataset, config, num_folds,
                               /*vary_split_seed=*/true);
}

}  // namespace ahntp::core
