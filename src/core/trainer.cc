#include "core/trainer.h"

#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/check.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/trace.h"
#include "hypergraph/regularizer.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "tensor/recycle.h"

namespace ahntp::core {

using autograd::Variable;

namespace {

/// Builds the segment structure for Eq. 20 within a batch: pairs sharing an
/// anchor (source user) form one segment.
struct ContrastiveGroups {
  std::vector<int> anchors;        // segment id per pair
  size_t num_anchors = 0;
  std::vector<bool> is_positive;   // per pair
  bool has_positive_anchor = false;
};

ContrastiveGroups GroupByAnchor(const std::vector<data::TrustPair>& batch) {
  ContrastiveGroups groups;
  groups.anchors.reserve(batch.size());
  groups.is_positive.reserve(batch.size());
  std::unordered_map<int, int> anchor_ids;
  for (const data::TrustPair& p : batch) {
    auto [it, inserted] =
        anchor_ids.emplace(p.src, static_cast<int>(anchor_ids.size()));
    groups.anchors.push_back(it->second);
    bool positive = p.label >= 0.5f;
    groups.is_positive.push_back(positive);
    if (positive) groups.has_positive_anchor = true;
  }
  groups.num_anchors = anchor_ids.size();
  return groups;
}

}  // namespace

namespace {

/// Copies all parameter values (for best-epoch restore).
std::vector<tensor::Matrix> SnapshotParameters(
    const std::vector<Variable>& params) {
  std::vector<tensor::Matrix> snapshot;
  snapshot.reserve(params.size());
  for (const Variable& p : params) snapshot.push_back(p.value());
  return snapshot;
}

void RestoreParameters(std::vector<Variable>* params,
                       const std::vector<tensor::Matrix>& snapshot) {
  AHNTP_CHECK_EQ(params->size(), snapshot.size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    (*params)[i].mutable_value() = snapshot[i];
  }
}

}  // namespace

Status ValidateTrainerConfig(const TrainerConfig& config) {
  if (config.epochs <= 0) {
    return Status::InvalidArgument(
        StrFormat("epochs must be positive, got %d", config.epochs));
  }
  if (!(config.learning_rate > 0.0f) ||
      !std::isfinite(config.learning_rate)) {
    return Status::InvalidArgument(
        StrFormat("learning_rate must be positive and finite, got %g",
                  static_cast<double>(config.learning_rate)));
  }
  if (config.weight_decay < 0.0f) {
    return Status::InvalidArgument(
        StrFormat("weight_decay must be >= 0, got %g",
                  static_cast<double>(config.weight_decay)));
  }
  if (config.lambda1 < 0.0f || config.lambda2 < 0.0f) {
    return Status::InvalidArgument(
        StrFormat("lambda1/lambda2 must be >= 0, got %g/%g",
                  static_cast<double>(config.lambda1),
                  static_cast<double>(config.lambda2)));
  }
  if (config.use_contrastive && !(config.temperature > 0.0f)) {
    return Status::InvalidArgument(
        StrFormat("temperature must be positive, got %g",
                  static_cast<double>(config.temperature)));
  }
  if (config.aux_loss_weight < 0.0f) {
    return Status::InvalidArgument(
        StrFormat("aux_loss_weight must be >= 0, got %g",
                  static_cast<double>(config.aux_loss_weight)));
  }
  if (config.regularizer_weight < 0.0f) {
    return Status::InvalidArgument(
        StrFormat("regularizer_weight must be >= 0, got %g",
                  static_cast<double>(config.regularizer_weight)));
  }
  if (config.clip_gradient_norm < 0.0f) {
    return Status::InvalidArgument(
        StrFormat("clip_gradient_norm must be >= 0, got %g",
                  static_cast<double>(config.clip_gradient_norm)));
  }
  if (config.patience < 0) {
    return Status::InvalidArgument(
        StrFormat("patience must be >= 0, got %d", config.patience));
  }
  if (config.patience > 0 && config.eval_every <= 0) {
    return Status::InvalidArgument(
        StrFormat("eval_every must be positive when patience > 0, got %d",
                  config.eval_every));
  }
  if (config.divergence_guard && config.divergence_factor <= 1.0) {
    return Status::InvalidArgument(
        StrFormat("divergence_factor must be > 1, got %g",
                  config.divergence_factor));
  }
  if (config.max_divergence_rollbacks < 0) {
    return Status::InvalidArgument(
        StrFormat("max_divergence_rollbacks must be >= 0, got %d",
                  config.max_divergence_rollbacks));
  }
  return Status::Ok();
}

Result<TrainResult> Trainer::Fit(
    models::TrustPredictor* model,
    const std::vector<data::TrustPair>& train_pairs,
    const std::vector<data::TrustPair>& validation_pairs) {
  AHNTP_CHECK(model != nullptr);
  AHNTP_RETURN_IF_ERROR(ValidateTrainerConfig(config_));
  if (train_pairs.empty()) {
    return Status::InvalidArgument("Fit() needs at least one training pair");
  }
  trace::TraceSpan fit_span("trainer.fit");
  Stopwatch timer;
  // Every full-batch epoch rebuilds a tape of the same shapes, and
  // Backward frees it as it walks: recycle those buffers instead of
  // faulting in fresh pages each epoch. The cache dies with Fit.
  tensor::RecycleScope recycle;
  const bool early_stopping =
      config_.patience > 0 && !validation_pairs.empty();
  std::vector<Variable> params = model->Parameters();
  std::vector<tensor::Matrix> best_snapshot;
  double best_val_auc = -1.0;
  int best_epoch = 0;
  int checks_without_improvement = 0;
  Rng rng(config_.seed);
  nn::Adam optimizer(model->Parameters(), config_.learning_rate, 0.9f, 0.999f,
                     1e-8f, config_.weight_decay);
  std::vector<data::TrustPair> pairs = train_pairs;
  const size_t batch_size =
      config_.batch_size == 0 ? pairs.size() : config_.batch_size;

  TrainResult result;
  model->SetTraining(true);
  // Divergence guard state: the parameters as of the last healthy epoch,
  // that epoch's loss as the explosion baseline, and the cumulative
  // learning-rate backoff (folded into every subsequent epoch so an
  // LrSchedule cannot undo it).
  const bool guard = config_.divergence_guard;
  std::vector<tensor::Matrix> good_snapshot;
  double good_loss = std::numeric_limits<double>::quiet_NaN();
  float lr_scale = 1.0f;
  int rollbacks = 0;
  if (guard) good_snapshot = SnapshotParameters(params);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    trace::TraceSpan epoch_span("trainer.epoch");
    Stopwatch epoch_timer;
    AHNTP_METRIC_COUNT("trainer.epochs", 1);
    const float base_lr = config_.lr_schedule != nullptr
                              ? config_.lr_schedule->Rate(epoch)
                              : config_.learning_rate;
    optimizer.set_learning_rate(base_lr * lr_scale);
    rng.Shuffle(&pairs);
    double epoch_loss = 0.0;
    double epoch_contrastive = 0.0;
    double epoch_bce = 0.0;
    double epoch_grad_norm = 0.0;
    bool nonfinite_grad = false;
    size_t num_batches = 0;
    for (size_t start = 0; start < pairs.size(); start += batch_size) {
      size_t end = std::min(start + batch_size, pairs.size());
      std::vector<data::TrustPair> batch(pairs.begin() + static_cast<long>(start),
                                         pairs.begin() + static_cast<long>(end));
      std::vector<float> labels(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) labels[i] = batch[i].label;

      models::TrustPredictor::PairOutput out = model->Forward(batch);
      Variable bce = nn::BinaryCrossEntropy(out.probability, labels);
      Variable loss = autograd::Scale(bce, config_.lambda2);
      double contrastive_value = 0.0;
      if (config_.use_contrastive) {
        ContrastiveGroups groups = GroupByAnchor(batch);
        if (groups.has_positive_anchor) {
          Variable contrastive = nn::SupervisedContrastiveLoss(
              out.cosine, groups.anchors, groups.num_anchors,
              groups.is_positive, config_.temperature);
          contrastive_value = contrastive.value().At(0, 0);
          loss = autograd::Add(loss,
                               autograd::Scale(contrastive, config_.lambda1));
        }
      }
      if (model->encoder().HasAuxLoss() && config_.aux_loss_weight > 0.0f) {
        loss = autograd::Add(loss, autograd::Scale(model->encoder().AuxLoss(),
                                                   config_.aux_loss_weight));
      }
      if (config_.regularizer_weight > 0.0f &&
          config_.regularizer_hypergraph != nullptr) {
        Variable reg = hypergraph::HypergraphSmoothness(
            out.embeddings, *config_.regularizer_hypergraph);
        float scale = config_.regularizer_weight /
                      static_cast<float>(out.embeddings.rows());
        loss = autograd::Add(loss, autograd::Scale(reg, scale));
      }

      optimizer.ZeroGrad();
      loss.Backward();
      if (fault::Enabled() && !params.empty() &&
          fault::ShouldInject("trainer.nan_grad")) {
        params[0].mutable_grad().data()[0] =
            std::numeric_limits<float>::quiet_NaN();
      }
      float batch_grad_norm = 0.0f;
      if (config_.clip_gradient_norm > 0.0f) {
        batch_grad_norm = nn::ClipGradientNorm(optimizer.params(),
                                               config_.clip_gradient_norm);
      } else if (guard) {
        batch_grad_norm = nn::GlobalGradientNorm(optimizer.params());
      }
      if (std::isfinite(batch_grad_norm)) {
        epoch_grad_norm =
            std::max(epoch_grad_norm, static_cast<double>(batch_grad_norm));
      } else {
        nonfinite_grad = true;
      }
      optimizer.Step();

      epoch_loss += loss.value().At(0, 0);
      epoch_contrastive += contrastive_value;
      epoch_bce += bce.value().At(0, 0);
      ++num_batches;
      AHNTP_METRIC_COUNT("trainer.batches", 1);
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.loss = epoch_loss / static_cast<double>(num_batches);
    stats.contrastive_loss =
        epoch_contrastive / static_cast<double>(num_batches);
    stats.bce_loss = epoch_bce / static_cast<double>(num_batches);
    stats.grad_norm = nonfinite_grad
                          ? std::numeric_limits<double>::quiet_NaN()
                          : epoch_grad_norm;
    if (metrics::Enabled()) {
      metrics::GetGauge("trainer.loss").Set(stats.loss);
      metrics::GetGauge("trainer.grad_norm").Set(stats.grad_norm);
      metrics::GetGauge("trainer.lr").Set(
          static_cast<double>(base_lr * lr_scale));
      metrics::GetHistogram("trainer.epoch_seconds")
          .Observe(epoch_timer.ElapsedSeconds());
    }
    // Divergence check: a non-finite loss/gradient or a loss explosion
    // relative to the last healthy epoch invalidates this epoch's update.
    bool healthy = std::isfinite(stats.loss) && !nonfinite_grad;
    if (healthy && guard && std::isfinite(good_loss) &&
        stats.loss >
            config_.divergence_factor * std::max(std::abs(good_loss), 1e-6)) {
      healthy = false;
    }
    if (guard && !healthy) {
      stats.rolled_back = true;
      result.history.push_back(stats);
      ++result.num_rollbacks;
      ++rollbacks;
      AHNTP_METRIC_COUNT("trainer.rollbacks", 1);
      if (metrics::Enabled()) {
        metrics::GetGauge("trainer.rollback_count").Set(rollbacks);
      }
      RestoreParameters(&params, good_snapshot);
      // Restored weights invalidate any cached inference embeddings.
      model->InvalidateCaches();
      // Stale Adam moments would re-inject the poisoned step after the
      // rollback, so optimizer state restarts clean at the reduced rate.
      optimizer.Reset();
      lr_scale *= 0.5f;
      const char* cause = std::isfinite(stats.loss) && !nonfinite_grad
                              ? "loss explosion"
                              : "non-finite loss/gradient";
      result.events.push_back(StrFormat(
          "epoch %d: %s (loss=%g), rolled back to last healthy parameters, "
          "lr scale -> %g",
          epoch, cause, stats.loss, static_cast<double>(lr_scale)));
      if (config_.verbose) {
        AHNTP_LOG(Warning) << result.events.back();
      }
      if (rollbacks >= config_.max_divergence_rollbacks) {
        result.divergence_halt = true;
        result.events.push_back(StrFormat(
            "epoch %d: divergence rollback budget (%d) exhausted, stopping "
            "with last healthy parameters",
            epoch, config_.max_divergence_rollbacks));
        if (config_.verbose) {
          AHNTP_LOG(Warning) << result.events.back();
        }
        break;
      }
      continue;
    }
    result.history.push_back(stats);
    if (guard) {
      good_snapshot = SnapshotParameters(params);
      good_loss = stats.loss;
    }
    if (config_.verbose &&
        (epoch % std::max(config_.log_every, 1) == 0 ||
         epoch + 1 == config_.epochs)) {
      AHNTP_LOG(Info) << "epoch " << epoch << " loss=" << stats.loss
                      << " (bce=" << stats.bce_loss
                      << " con=" << stats.contrastive_loss << ")";
    }
    if (early_stopping && (epoch % std::max(config_.eval_every, 1) == 0 ||
                           epoch + 1 == config_.epochs)) {
      double val_auc = Evaluate(model, validation_pairs).auc;
      model->SetTraining(true);
      if (val_auc > best_val_auc) {
        best_val_auc = val_auc;
        best_epoch = epoch;
        best_snapshot = SnapshotParameters(params);
        checks_without_improvement = 0;
      } else if (++checks_without_improvement >= config_.patience) {
        if (config_.verbose) {
          AHNTP_LOG(Info) << "early stop at epoch " << epoch
                          << " (best val auc " << best_val_auc << " @ epoch "
                          << best_epoch << ")";
        }
        break;
      }
    }
  }
  // final_loss / best_epoch report the last *kept* epoch; rolled-back
  // epochs stay in the history for diagnosis but never contributed
  // parameters.
  const EpochStats* last_kept = nullptr;
  for (auto it = result.history.rbegin(); it != result.history.rend(); ++it) {
    if (!it->rolled_back) {
      last_kept = &*it;
      break;
    }
  }
  if (early_stopping && !best_snapshot.empty()) {
    RestoreParameters(&params, best_snapshot);
    model->InvalidateCaches();
    result.best_epoch = best_epoch;
    result.best_validation_auc = best_val_auc;
  } else {
    result.best_epoch = last_kept == nullptr ? 0 : last_kept->epoch;
  }
  result.final_loss = last_kept == nullptr ? 0.0 : last_kept->loss;
  result.train_seconds = timer.ElapsedSeconds();
  return result;
}

BinaryMetrics Trainer::Evaluate(models::TrustPredictor* model,
                                const std::vector<data::TrustPair>& pairs,
                                float threshold) const {
  AHNTP_CHECK(model != nullptr);
  // The forward pass inside PredictProbabilities dispatches its MatMul /
  // SpMM work to the pool; the metric pass below is batch-parallel too.
  std::vector<float> probs = model->PredictProbabilities(pairs);
  std::vector<float> labels(pairs.size());
  ParallelFor(0, pairs.size(), size_t{1} << 15, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) labels[i] = pairs[i].label;
  });
  return EvaluateBinary(probs, labels, threshold);
}

float Trainer::CalibrateThreshold(
    models::TrustPredictor* model,
    const std::vector<data::TrustPair>& pairs) const {
  AHNTP_CHECK(model != nullptr);
  std::vector<float> probs = model->PredictProbabilities(pairs);
  std::vector<float> labels(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) labels[i] = pairs[i].label;
  return BestAccuracyThreshold(probs, labels);
}

}  // namespace ahntp::core
