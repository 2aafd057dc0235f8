#ifndef AHNTP_COMMON_FAULT_H_
#define AHNTP_COMMON_FAULT_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace ahntp::fault {

/// Deterministic, site-keyed fault injection for exercising recovery paths.
///
/// Production code marks recoverable failure sites with a stable string key
/// ("checkpoint.save", "trainer.nan_grad", "experiment.run", ...) and asks
/// the registry whether a fault should fire at this hit. With no spec
/// installed — the default — every query is a single relaxed atomic load
/// returning false, so instrumented code is a no-op outside tests.
///
/// Spec grammar (comma-separated triggers, installed via `--fault_spec=`,
/// the AHNTP_FAULTS environment variable, or EnableFromSpec):
///
///   site@N     fire exactly on the Nth hit of `site` (1-based)
///   site@N+    fire on every hit from the Nth on
///   site@*     fire on every hit
///   site@~P    fire each hit with probability P in [0,1], drawn
///              deterministically from (seed, site, hit index)
///
/// Example: `--fault_spec=checkpoint.save@1,trainer.nan_grad@3`
/// injects one I/O failure on the first checkpoint save and one NaN
/// gradient on the third guarded batch.
///
/// Hit counters are per-site and atomic; firing decisions depend only on
/// the spec, the seed, and the per-site hit index, so a single-threaded
/// run replays identically.

/// Installs `spec` (replacing any previous one) and enables injection.
/// An empty spec disables injection. InvalidArgument on grammar errors.
Status EnableFromSpec(const std::string& spec);

/// Seeds the `site@~P` probabilistic triggers (default 0). Takes effect
/// for subsequent hits; call before EnableFromSpec for full determinism.
void SetSeed(uint64_t seed);

/// Clears the spec, all hit counters, and the fired-injection count.
void Disable();

/// True when a spec is installed. The fast path for instrumented code.
bool Enabled();

/// Counts a hit at `site` and returns true when its trigger fires. Always
/// false (and counts nothing) when disabled.
bool ShouldInject(const std::string& site);

/// Returns Status(code, "injected fault at <site>") when the site fires,
/// Ok otherwise — the one-liner for Status-returning call sites:
///
///   AHNTP_RETURN_IF_ERROR(fault::FaultPoint("serve.infer",
///                                           StatusCode::kUnavailable));
///
/// The default code models a transient outage (retryable by convention);
/// pass kIoError / kCorruption / ... to exercise a specific recovery path.
Status FaultPoint(const std::string& site,
                  StatusCode code = StatusCode::kUnavailable);

/// Throws std::runtime_error("injected fault at <site>") when the site
/// fires.
void MaybeThrow(const std::string& site);

/// Number of injections fired since the last Disable()/EnableFromSpec().
int64_t InjectionCount();

}  // namespace ahntp::fault

#endif  // AHNTP_COMMON_FAULT_H_
