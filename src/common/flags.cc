#include "common/flags.h"

#include "common/check.h"
#include "common/cpu.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/trace.h"

namespace ahntp {

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StrStartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) return Status::InvalidArgument("bare '--' argument");
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      values_[body] = "true";  // bare flag; values use --name=value form
    }
  }
  return Status::Ok();
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  auto parsed = ParseInt(it->second);
  AHNTP_CHECK(parsed.ok()) << "flag --" << name << "=" << it->second
                           << " is not an integer";
  return parsed.value();
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  auto parsed = ParseDouble(it->second);
  AHNTP_CHECK(parsed.ok()) << "flag --" << name << "=" << it->second
                           << " is not a number";
  return parsed.value();
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  AHNTP_CHECK(false) << "flag --" << name << "=" << v << " is not a boolean";
  return default_value;
}

std::vector<int64_t> FlagParser::GetIntList(
    const std::string& name, const std::vector<int64_t>& default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::vector<int64_t> out;
  for (const std::string& part : StrSplit(it->second, ',')) {
    if (StrTrim(part).empty()) continue;
    auto parsed = ParseInt(part);
    AHNTP_CHECK(parsed.ok()) << "flag --" << name << " element '" << part
                             << "' is not an integer";
    out.push_back(parsed.value());
  }
  return out;
}

std::vector<double> FlagParser::GetDoubleList(
    const std::string& name, const std::vector<double>& default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::vector<double> out;
  for (const std::string& part : StrSplit(it->second, ',')) {
    if (StrTrim(part).empty()) continue;
    auto parsed = ParseDouble(part);
    AHNTP_CHECK(parsed.ok()) << "flag --" << name << " element '" << part
                             << "' is not a number";
    out.push_back(parsed.value());
  }
  return out;
}

std::vector<std::string> FlagParser::GetStringList(
    const std::string& name,
    const std::vector<std::string>& default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::vector<std::string> out;
  for (const std::string& part : StrSplit(it->second, ',')) {
    std::string trimmed = StrTrim(part);
    if (!trimmed.empty()) out.push_back(trimmed);
  }
  return out;
}

int ApplyRuntimeFlags(const FlagParser& flags) {
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  if (threads > 0) SetNumThreads(threads);
  if (flags.Has("kernel_isa")) {
    Result<KernelIsa> isa = ParseKernelIsa(flags.GetString("kernel_isa", ""));
    AHNTP_CHECK(isa.ok()) << "--kernel_isa: " << isa.status().ToString();
    SetKernelIsa(isa.value());
  }
  if (flags.Has("fault_seed")) {
    fault::SetSeed(static_cast<uint64_t>(flags.GetInt("fault_seed", 0)));
  }
  if (flags.Has("fault_spec")) {
    Status status = fault::EnableFromSpec(flags.GetString("fault_spec", ""));
    AHNTP_CHECK(status.ok()) << "bad --fault_spec: " << status.ToString();
  }
  if (flags.Has("metrics_out")) {
    const std::string path = flags.GetString("metrics_out", "");
    AHNTP_CHECK(!path.empty()) << "--metrics_out needs a path";
    metrics::SetOutputPath(path);
  }
  if (flags.Has("trace_out")) {
    const std::string path = flags.GetString("trace_out", "");
    AHNTP_CHECK(!path.empty()) << "--trace_out needs a path";
    trace::SetOutputPath(path);
  }
  return NumThreads();
}

}  // namespace ahntp
