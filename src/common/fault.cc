#include "common/fault.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>

#include "common/strings.h"

namespace ahntp::fault {

namespace {

enum class TriggerMode { kNth, kFromNth, kAlways, kProbability };

struct Trigger {
  TriggerMode mode = TriggerMode::kNth;
  uint64_t n = 1;          // kNth / kFromNth
  double probability = 0;  // kProbability
  uint64_t hits = 0;       // hits observed at this site so far
};

struct Registry {
  std::mutex mu;
  std::map<std::string, Trigger> triggers;
  uint64_t seed = 0;
  std::atomic<int64_t> fired{0};
};

std::atomic<bool> g_enabled{false};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

/// Applies AHNTP_FAULTS once, before the first spec/query touches the
/// registry, so test binaries that never parse flags still honour the env.
void ApplyEnvOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("AHNTP_FAULTS");
    if (env != nullptr && env[0] != '\0') {
      Status status = EnableFromSpec(env);
      if (!status.ok()) {
        // Env-driven specs fail silently into "disabled" rather than
        // aborting unrelated binaries; the flag path CHECKs loudly.
        Disable();
      }
    }
  });
}

/// SplitMix64 over (seed, site hash, hit index): a stable per-hit uniform
/// draw for `site@~P` triggers.
double HitUniform(uint64_t seed, const std::string& site, uint64_t hit) {
  uint64_t x = seed ^ (std::hash<std::string>{}(site) * 0x9e3779b97f4a7c15ULL);
  x += hit * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

Result<Trigger> ParseTrigger(const std::string& body,
                             const std::string& entry) {
  Trigger trigger;
  if (body == "*") {
    trigger.mode = TriggerMode::kAlways;
    return trigger;
  }
  if (!body.empty() && body[0] == '~') {
    AHNTP_ASSIGN_OR_RETURN(double p, ParseDouble(body.substr(1)));
    if (p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("fault probability outside [0,1] in '" +
                                     entry + "'");
    }
    trigger.mode = TriggerMode::kProbability;
    trigger.probability = p;
    return trigger;
  }
  std::string digits = body;
  if (!digits.empty() && digits.back() == '+') {
    trigger.mode = TriggerMode::kFromNth;
    digits.pop_back();
  }
  AHNTP_ASSIGN_OR_RETURN(int64_t n, ParseInt(digits));
  if (n < 1) {
    return Status::InvalidArgument("fault hit index must be >= 1 in '" +
                                   entry + "'");
  }
  trigger.n = static_cast<uint64_t>(n);
  return trigger;
}

}  // namespace

Status EnableFromSpec(const std::string& spec) {
  std::map<std::string, Trigger> parsed;
  for (const std::string& raw : StrSplit(spec, ',')) {
    std::string entry = StrTrim(raw);
    if (entry.empty()) continue;
    size_t at = entry.rfind('@');
    if (at == std::string::npos || at == 0 || at + 1 == entry.size()) {
      return Status::InvalidArgument(
          "fault trigger '" + entry + "' is not of the form site@N|N+|*|~P");
    }
    std::string site = entry.substr(0, at);
    AHNTP_ASSIGN_OR_RETURN(Trigger trigger,
                           ParseTrigger(entry.substr(at + 1), entry));
    parsed[site] = trigger;
  }
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.triggers = std::move(parsed);
  registry.fired.store(0, std::memory_order_relaxed);
  g_enabled.store(!registry.triggers.empty(), std::memory_order_release);
  return Status::Ok();
}

void SetSeed(uint64_t seed) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.seed = seed;
}

void Disable() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.triggers.clear();
  registry.fired.store(0, std::memory_order_relaxed);
  g_enabled.store(false, std::memory_order_release);
}

bool Enabled() {
  ApplyEnvOnce();
  return g_enabled.load(std::memory_order_acquire);
}

bool ShouldInject(const std::string& site) {
  if (!Enabled()) return false;
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.triggers.find(site);
  if (it == registry.triggers.end()) return false;
  Trigger& trigger = it->second;
  const uint64_t hit = ++trigger.hits;
  bool fire = false;
  switch (trigger.mode) {
    case TriggerMode::kNth:
      fire = hit == trigger.n;
      break;
    case TriggerMode::kFromNth:
      fire = hit >= trigger.n;
      break;
    case TriggerMode::kAlways:
      fire = true;
      break;
    case TriggerMode::kProbability:
      fire = HitUniform(registry.seed, site, hit) < trigger.probability;
      break;
  }
  if (fire) registry.fired.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

Status FaultPoint(const std::string& site, StatusCode code) {
  if (ShouldInject(site)) {
    return Status(code, "injected fault at " + site);
  }
  return Status::Ok();
}

void MaybeThrow(const std::string& site) {
  if (ShouldInject(site)) {
    throw std::runtime_error("injected fault at " + site);
  }
}

int64_t InjectionCount() {
  return GetRegistry().fired.load(std::memory_order_relaxed);
}

}  // namespace ahntp::fault
