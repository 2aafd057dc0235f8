// Shared plumbing of the trustbench driver: run options, latency samples,
// the result record printed for run.py, and the in-memory span log of the
// traced run.
#ifndef TRUSTBENCH_COMMON_H_
#define TRUSTBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace trustbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// What run.py asked for. `seconds` is the whole measured budget of the
/// workload; each workload splits it between its phases.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Build the workload, report setup time, and exit without measuring.
  bool setup_only = false;
  /// Corrupt one served score (serve workloads) so the correctness check
  /// must report a failure; used by the benchmark's own tests.
  bool inject_mismatch = false;
  /// Per-run scratch directory (spill files, trace output).
  std::string run_dir;
};

/// Worker threads of the common/parallel pool, on every workload. With
/// two, train's epoch times on a 4-vCPU VM ranged 430-880 ms across runs,
/// since each ParallelFor waits for a vCPU the hypervisor may have
/// descheduled.
inline constexpr int kPoolThreads = 1;

/// Raw samples in milliseconds (or any unit); percentiles are exact
/// order statistics, never bucketed.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, p in [0, 1].
  double Percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
  }
  /// Samples strictly above the p-th percentile.
  size_t CountAbove(double p) const {
    const double cut = Percentile(p);
    return static_cast<size_t>(std::count_if(
        values_.begin(), values_.end(), [cut](double v) { return v > cut; }));
  }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Median of a small vector (used for per-window medians).
inline double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run's outcome. Operation counts partition as
/// attempted = ok + failed + refused; a wrong output is a failure.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t refused = 0;
  std::vector<Metric> metrics;
  /// Free-form facts printed next to the metrics (percentile choices,
  /// sample counts, mismatch reasons).
  std::map<std::string, std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& value) {
    notes[key] = value;
  }
  void Fail(const std::string& why) {
    correct = false;
    ++failed;
    notes["failure." + std::to_string(failed)] = why;
  }
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// One line, prefixed so run.py can find it among log output.
inline void PrintResult(const Result& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"ok\": " + std::to_string(r.ok);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"refused\": " + std::to_string(r.refused);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g",
                  std::isfinite(r.metrics[i].value) ? r.metrics[i].value
                                                    : 0.0);
    json += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  json += "}, \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : r.notes) {
    json += (first ? "\"" : ", \"") + JsonEscape(k) + "\": \"" +
            JsonEscape(v) + "\"";
    first = false;
  }
  json += "}}";
  std::printf("TRUSTBENCH_RESULT %s\n", json.c_str());
  std::fflush(stdout);
}

/// VmHWM of this process in MB (peak resident set).
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// In-memory spans of the traced run: name, start, end, parent, and a
/// shared id per request or apply. Written out once at exit.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
  };

  explicit SpanLog(bool enabled, size_t cap = size_t{1} << 20)
      : enabled_(enabled), cap_(cap) {}

  /// Records a completed span; returns its id (0 when disabled or full).
  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t parent = 0, uint64_t request = 0) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= cap_) return 0;
    const uint64_t id = spans_.size() + 1;
    spans_.push_back({name, start_ns, end_ns, id, parent, request});
    return id;
  }

  /// Writes the spans as CSV (name,id,parent,request,start_us,dur_us).
  bool WriteCsv(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name,id,parent,request,start_us,duration_us\n");
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%llu,%llu,%llu,%.3f,%.3f\n", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
    return std::fclose(f) == 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
 private:
  bool enabled_;
  size_t cap_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one setup phase into the span log (traced run) and returns its
/// duration in seconds either way.
class PhaseTimer {
 public:
  PhaseTimer(SpanLog* log, const char* name)
      : log_(log), name_(name), start_(NowNs()) {}
  double Stop() {
    const int64_t end = NowNs();
    if (!stopped_) log_->Add(name_, start_, end);
    stopped_ = true;
    return static_cast<double>(end - start_) * 1e-9;
  }

 private:
  SpanLog* log_;
  const char* name_;
  int64_t start_;
  bool stopped_ = false;
};

}  // namespace trustbench

#endif  // TRUSTBENCH_COMMON_H_
