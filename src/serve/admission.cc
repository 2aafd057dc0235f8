#include "serve/admission.h"

#include <algorithm>

#include "common/check.h"

namespace ahntp::serve {

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kStrict:
      return "strict";
    case Lane::kDegradedEligible:
      return "degraded";
    case Lane::kBesteffort:
      return "besteffort";
  }
  return "unknown";
}

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : resolved_(options) {
  AHNTP_CHECK_GT(resolved_.queue_capacity, 0u)
      << "admission needs a positive queue capacity";
  resolved_.strict_reserve =
      std::min(resolved_.strict_reserve, resolved_.queue_capacity);
  const size_t shared = resolved_.queue_capacity - resolved_.strict_reserve;
  if (resolved_.besteffort_limit == 0) {
    resolved_.besteffort_limit = (shared + 1) / 2;
  }
  resolved_.besteffort_limit = std::min(resolved_.besteffort_limit, shared);
  if (resolved_.degrade_pressure == 0) {
    resolved_.degrade_pressure = resolved_.besteffort_limit;
  }
}

size_t AdmissionController::LimitFor(Lane lane) const {
  switch (lane) {
    case Lane::kStrict:
      return resolved_.queue_capacity;
    case Lane::kDegradedEligible:
      return resolved_.queue_capacity - resolved_.strict_reserve;
    case Lane::kBesteffort:
      return resolved_.besteffort_limit;
  }
  return 0;
}

bool AdmissionController::ShouldDowngrade(Lane lane, size_t depth) const {
  return lane == Lane::kDegradedEligible && depth >= resolved_.degrade_pressure;
}

}  // namespace ahntp::serve
