#include "serve/dynamic.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ahntp::serve {

DynamicBackend::DynamicBackend(core::DynamicTrustPipeline* pipeline)
    : pipeline_(pipeline) {
  AHNTP_CHECK(pipeline_ != nullptr) << "DynamicBackend needs a pipeline";
  // Warm eagerly, like ModelBackend: the dispatcher thread should only
  // ever pay the cached scoring path, and ApplyMutation patches rows into
  // a *built* plan instead of forcing a full first-use encode. A built plan
  // is also what lets reads run beside an apply: scoring then never
  // touches the encoder the cascade is refreshing.
  pipeline_->predictor().WarmInferencePlan();
}

Result<std::vector<float>> DynamicBackend::ScoreBatch(
    const std::vector<data::TrustPair>& pairs) {
  AHNTP_RETURN_IF_ERROR(
      fault::FaultPoint("serve.infer", StatusCode::kUnavailable));
  trace::TraceSpan span("serve.infer");
  std::vector<float> probs = pipeline_->PredictProbabilities(pairs);
  if (fault::ShouldInject("serve.nan")) {
    probs[0] = std::nanf("");
  }
  return probs;
}

int64_t DynamicBackend::generation() const { return pipeline_->generation(); }

Result<graph::DeltaReceipt> DynamicBackend::ApplyMutation(
    const graph::GraphDelta& delta) {
  trace::TraceSpan span("serve.mutation.apply");
  auto outcome = pipeline_->ApplyDelta(delta);
  AHNTP_RETURN_IF_ERROR(outcome.status());
  AHNTP_METRIC_COUNT("serve.mutation.refreshed_users",
                     outcome->refreshed_users.size());
  return std::move(outcome->receipt);
}

}  // namespace ahntp::serve
