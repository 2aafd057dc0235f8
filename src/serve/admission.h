#ifndef AHNTP_SERVE_ADMISSION_H_
#define AHNTP_SERVE_ADMISSION_H_

#include <cstddef>

namespace ahntp::serve {

/// Priority lane a request travels in. Overload control is lane-aware:
/// best-effort traffic is shed first, degraded-eligible traffic is
/// downgraded to the heuristic fallback under pressure, and strict
/// traffic is only rejected when the queue — including its strict-only
/// reservation — is exhausted (DESIGN.md §12).
enum class Lane : int {
  kStrict = 0,            // must be model-scored or rejected
  kDegradedEligible = 1,  // may be answered by the fallback under pressure
  kBesteffort = 2,        // first to shed; lowest admission limit
};

inline constexpr int kNumLanes = 3;

/// Stable lowercase lane name ("strict" / "degraded" / "besteffort"),
/// used in metric names, bench rows, and digests.
const char* LaneName(Lane lane);

/// Static admission policy over a bounded queue of `queue_capacity` slots.
///
/// The capacity splits into a strict-only reservation of `strict_reserve`
/// slots and a shared region of `queue_capacity - strict_reserve` slots:
///
///   depth <  besteffort_limit                 : every lane admitted
///   depth <  degrade_pressure                 : besteffort shed
///   depth <  shared (= capacity - reserve)    : degraded-eligible requests
///                                               admitted but *downgraded*
///                                               to the fallback backend
///   depth <  queue_capacity                   : only strict admitted
///   depth >= queue_capacity                   : everything shed
///
/// Unset (zero) tuning fields resolve to besteffort_limit = half the
/// shared region and degrade_pressure = besteffort_limit: the moment
/// best-effort traffic starts shedding, degraded-eligible traffic stops
/// costing model inference. All thresholds are pure functions of the
/// observed queue depth, so a closed-loop run admits an identical
/// request set at any thread count.
struct AdmissionOptions {
  size_t queue_capacity = 256;
  /// Slots only strict requests may occupy (clamped to queue_capacity).
  size_t strict_reserve = 0;
  /// Depth at and beyond which best-effort requests are shed.
  /// 0 = (queue_capacity - strict_reserve + 1) / 2.
  size_t besteffort_limit = 0;
  /// Depth at and beyond which degraded-eligible requests are downgraded
  /// to the fallback. 0 = the resolved besteffort_limit.
  size_t degrade_pressure = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  /// Queue-depth limit for `lane`: a request is admitted iff the depth at
  /// push time is strictly below this.
  size_t LimitFor(Lane lane) const;

  /// True when a degraded-eligible request arriving at `depth` should be
  /// served by the fallback backend instead of the model. Always false
  /// for the other lanes.
  bool ShouldDowngrade(Lane lane, size_t depth) const;

  /// The policy with every zero field resolved to its default.
  const AdmissionOptions& resolved() const { return resolved_; }

 private:
  AdmissionOptions resolved_;
};

}  // namespace ahntp::serve

#endif  // AHNTP_SERVE_ADMISSION_H_
