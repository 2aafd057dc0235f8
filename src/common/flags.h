#ifndef AHNTP_COMMON_FLAGS_H_
#define AHNTP_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace ahntp {

/// Minimal command-line flag parser used by the bench and example binaries.
///
/// Accepts `--name=value` and bare `--name` (boolean true). Positional
/// arguments are collected in order.
class FlagParser {
 public:
  /// Parses argv. Returns InvalidArgument on malformed input.
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  /// Typed getters with defaults; a present-but-unparseable value aborts via
  /// CHECK because it is operator error worth failing loudly on.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Comma-separated list of integers, e.g. --dims=256,128,64.
  std::vector<int64_t> GetIntList(
      const std::string& name, const std::vector<int64_t>& default_value) const;

  /// Comma-separated list of doubles, e.g. --sweep_quantiles=0.1,0.5.
  std::vector<double> GetDoubleList(
      const std::string& name, const std::vector<double>& default_value) const;

  /// Comma-separated list of strings.
  std::vector<std::string> GetStringList(
      const std::string& name,
      const std::vector<std::string>& default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Applies the process-wide runtime flags shared by every binary:
/// `--threads=N` configures the execution substrate's worker count
/// (0 or absent keeps the AHNTP_THREADS / hardware default),
/// `--kernel_isa=scalar|avx2|auto` pins the tensor-kernel dispatch family
/// (see common/cpu.h; AHNTP_KERNEL_ISA is the env equivalent),
/// `--fault_spec=` / `--fault_seed=` install a deterministic
/// fault-injection spec (see common/fault.h; AHNTP_FAULTS is the env
/// equivalent), and `--metrics_out=<path>` / `--trace_out=<path>` enable
/// the observability layer with a process-exit snapshot / trace export
/// (see common/metrics.h, common/trace.h; AHNTP_METRICS / AHNTP_TRACE are
/// the env equivalents; a `--trace_out` path ending in ".csv" exports the
/// flat CSV instead of Chrome JSON). Returns the resolved worker count so
/// callers can record it in their output. A malformed fault spec or an
/// empty observability path aborts via CHECK (operator error, same
/// contract as malformed typed flags).
int ApplyRuntimeFlags(const FlagParser& flags);

}  // namespace ahntp

#endif  // AHNTP_COMMON_FLAGS_H_
