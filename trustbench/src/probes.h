// Timing wrappers around the program's public extension points. They sit
// between the benchmark and the layer it measures, so every per-layer time
// is taken from outside the layer's code.
#ifndef TRUSTBENCH_PROBES_H_
#define TRUSTBENCH_PROBES_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "nn/scheduler.h"
#include "serve/backend.h"
#include "serve/mutation.h"

namespace trustbench {

/// ScoreBackend decorator: times every ScoreBatch the server's dispatcher
/// makes. The server reaches ScoreBatch through the base class's
/// ScoreBatchWithConfidence, so the wrapped backend sees the same calls.
class TimedBackend : public ahntp::serve::ScoreBackend {
 public:
  TimedBackend(ahntp::serve::ScoreBackend* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  ahntp::Result<std::vector<float>> ScoreBatch(
      const std::vector<ahntp::data::TrustPair>& pairs) override {
    const int64_t start = NowNs();
    auto scores = inner_->ScoreBatch(pairs);
    const int64_t end = NowNs();
    busy_ns_ += end - start;
    ++batches_;
    pairs_ += static_cast<int64_t>(pairs.size());
    batch_ms_.Add(static_cast<double>(end - start) * 1e-6);
    log_->Add("models.score_batch", start, end, 0, batches_);
    return scores;
  }

  std::string name() const override { return inner_->name(); }
  int64_t generation() const override { return inner_->generation(); }

  double busy_seconds() const { return static_cast<double>(busy_ns_) * 1e-9; }
  int64_t batches() const { return batches_; }
  int64_t pairs() const { return pairs_; }
  const Samples& batch_ms() const { return batch_ms_; }
  /// Drops the per-batch samples; the running totals stay.
  void ResetSamples() { batch_ms_ = Samples(); }

 private:
  ahntp::serve::ScoreBackend* inner_;
  SpanLog* log_;
  int64_t busy_ns_ = 0;
  int64_t batches_ = 0;
  int64_t pairs_ = 0;
  Samples batch_ms_;
};

/// MutationSink decorator: times every apply cascade.
class TimedSink : public ahntp::serve::MutationSink {
 public:
  TimedSink(ahntp::serve::MutationSink* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  ahntp::Result<ahntp::graph::DeltaReceipt> ApplyMutation(
      const ahntp::graph::GraphDelta& delta) override {
    const int64_t start = NowNs();
    auto receipt = inner_->ApplyMutation(delta);
    const int64_t end = NowNs();
    busy_ns_ += end - start;
    ++applies_;
    apply_ms_.Add(static_cast<double>(end - start) * 1e-6);
    log_->Add("core.apply", start, end, 0, applies_);
    return receipt;
  }

  double busy_seconds() const { return static_cast<double>(busy_ns_) * 1e-9; }
  int64_t applies() const { return applies_; }
  const Samples& apply_ms() const { return apply_ms_; }

 private:
  ahntp::serve::MutationSink* inner_;
  SpanLog* log_;
  int64_t busy_ns_ = 0;
  int64_t applies_ = 0;
  Samples apply_ms_;
};

/// Test hook: nudges the first score of the `nth` batch by one ulp, so a
/// served score differs from the direct prediction and the correctness
/// check has something to catch.
class MismatchBackend : public ahntp::serve::ScoreBackend {
 public:
  MismatchBackend(ahntp::serve::ScoreBackend* inner, int64_t nth)
      : inner_(inner), nth_(nth) {}

  ahntp::Result<std::vector<float>> ScoreBatch(
      const std::vector<ahntp::data::TrustPair>& pairs) override {
    auto scores = inner_->ScoreBatch(pairs);
    if (scores.ok() && ++calls_ == nth_ && !scores.value().empty()) {
      float& s = scores.value()[0];
      s = std::nextafter(s, 2.0f);
    }
    return scores;
  }

  std::string name() const override { return inner_->name(); }
  int64_t generation() const override { return inner_->generation(); }

 private:
  ahntp::serve::ScoreBackend* inner_;
  int64_t nth_;
  int64_t calls_ = 0;
};

/// Learning-rate schedule that returns a constant rate and records when
/// the trainer asks for it: Trainer::Fit queries the schedule once at the
/// start of every epoch, so consecutive queries bound one epoch.
class EpochClock : public ahntp::nn::LrSchedule {
 public:
  explicit EpochClock(float rate) : rate_(rate) {}

  float Rate(int /*epoch*/) const override {
    starts_ns_.push_back(NowNs());
    return rate_;
  }

  /// Epoch durations in ms, the last one closed by `fit_end_ns`.
  Samples EpochMs(int64_t fit_end_ns) const {
    Samples out;
    for (size_t i = 0; i < starts_ns_.size(); ++i) {
      const int64_t end =
          i + 1 < starts_ns_.size() ? starts_ns_[i + 1] : fit_end_ns;
      out.Add(static_cast<double>(end - starts_ns_[i]) * 1e-6);
    }
    return out;
  }
  const std::vector<int64_t>& starts_ns() const { return starts_ns_; }

 private:
  float rate_;
  mutable std::vector<int64_t> starts_ns_;
};

}  // namespace trustbench

#endif  // TRUSTBENCH_PROBES_H_
