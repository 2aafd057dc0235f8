// Load generators: an open loop that sends on fixed ticks, timing each read
// from its scheduled send time, and a closed loop that keeps a fixed number
// of reads outstanding. Both can add writes on the server's write lane at a
// fixed rate.
#ifndef TRUSTBENCH_LOAD_H_
#define TRUSTBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.h"
#include "data/split.h"
#include "graph/delta.h"
#include "serve/server.h"

namespace trustbench {

/// The CPUs this process may run on, split into a load set (the first
/// `load_cpus`) and a server set (the rest). Keeping the load threads off
/// the server's CPUs stops the scheduler from stacking the dispatcher on a
/// load thread's CPU in some runs and not in others. Both sets are empty
/// when there are not enough CPUs to split.
struct CpuSplit {
  std::vector<int> all;
  std::vector<int> load;
  std::vector<int> server;
  static CpuSplit Make(size_t load_cpus);
};

/// One lowest-priority (SCHED_IDLE) spinning thread per CPU for the
/// object's lifetime, so no CPU of the VM halts. Waking a halted virtual
/// CPU takes the hypervisor 0.3 ms at p90 and 4 ms at p99 on the machine
/// this was tuned on (a 1 ms sleep loop, measured); with keepers both
/// drop below 0.1 ms. A keeper yields to any normal thread at once. Used
/// only while measuring open-loop latency, never capacity.
class CpuKeepers {
 public:
  explicit CpuKeepers(const std::vector<int>& cpus);
  ~CpuKeepers();
  CpuKeepers(const CpuKeepers&) = delete;
  CpuKeepers& operator=(const CpuKeepers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Restricts the calling thread (and threads it creates later) to `cpus`;
/// no-op for an empty set.
void PinThisThread(const std::vector<int>& cpus);

/// Starts `server` so its dispatcher runs on the server set, then moves the
/// calling thread to the load set.
void StartOnServerCpus(ahntp::serve::TrustServer* server,
                       const CpuSplit& split);

/// Reads go to `pool[keys[i % keys.size()]]`, in order; writes take
/// `deltas` in order and stop when they run out.
struct Traffic {
  const std::vector<ahntp::data::TrustPair>* pool = nullptr;
  const std::vector<uint32_t>* keys = nullptr;
  const std::vector<ahntp::graph::GraphDelta>* deltas = nullptr;
  /// Traced run: one span per read and per write (null = untraced).
  SpanLog* spans = nullptr;
  /// Index of the first key / delta this phase uses; phases of one run
  /// continue where the previous one stopped.
  size_t first_key = 0;
  size_t first_delta = 0;
};

struct OpenLoopConfig {
  double read_rate = 1000.0;  // reads per second
  double write_rate = 0.0;    // writes per second (0 = none)
  double tick_ms = 1.0;       // reads due in a tick are sent together
  double seconds = 5.0;       // measured span, after the warm-up
  double warmup_seconds = 0.5;
  double slo_ms = 1.0;        // latency limit for the SLO ratio
};

/// Every OK read's score, folded per key for the correctness check: the
/// first score served for each key, how many reads served that key, and
/// how many later reads disagreed with the first. Its size is bounded by
/// the key pool, not by the number of reads, so peak RSS does not grow
/// with throughput.
struct ServedScores {
  std::vector<uint32_t> first_bits;
  std::vector<uint32_t> count;
  int64_t disagreeing = 0;

  void Resize(size_t pool_size) {
    first_bits.assign(pool_size, 0);
    count.assign(pool_size, 0);
  }
  void Add(uint32_t key, float score);
  void Merge(const ServedScores& other);
  /// Reads whose score differs bitwise from `reference[key]`.
  int64_t Mismatches(const std::vector<float>& reference) const;
};

/// Reads inside one 0.5 s window of the measured span. Reporting the
/// median window rather than pooling the span keeps a multi-millisecond
/// stall of the VM, which lands in one or two windows, out of the figures.
struct Window {
  Samples read_ms;  // open loop: from scheduled send time to completion
  int64_t reads = 0;
  int64_t ok = 0;
  int64_t slo_ok = 0;  // open loop: OK within the latency limit
};

struct LoadOutcome {
  // Operation counts over the whole phase, warm-up included.
  int64_t reads_sent = 0;
  int64_t reads_ok = 0;
  int64_t reads_failed = 0;
  int64_t reads_refused = 0;
  int64_t writes_sent = 0;
  int64_t writes_ok = 0;
  int64_t writes_failed = 0;
  int64_t writes_refused = 0;
  // Measured span only (after the warm-up).
  Samples write_ms;      // from SubmitMutation to applied
  Samples tick_late_ms;  // how late the generator woke for each tick
  std::vector<Window> windows;
  ServedScores served;
  size_t next_key = 0;
  size_t next_delta = 0;

  /// The median over windows of each window's p-th read percentile.
  double ReadPercentile(double p) const {
    std::vector<double> v;
    for (const Window& w : windows) {
      if (w.reads > 0) v.push_back(w.read_ms.Percentile(p));
    }
    return MedianOf(v);
  }
  /// Share of the measured span's reads that completed OK within the
  /// latency limit, pooled over the span.
  double SloRatio() const {
    int64_t reads = 0, slo_ok = 0;
    for (const Window& w : windows) {
      reads += w.reads;
      slo_ok += w.slo_ok;
    }
    return reads > 0 ? static_cast<double>(slo_ok) / static_cast<double>(reads)
                     : 0.0;
  }
  /// OK reads per second over the whole measured span.
  double OkRate() const {
    int64_t ok = 0;
    for (const Window& w : windows) ok += w.ok;
    return windows.empty() ? 0.0
                           : static_cast<double>(ok) /
                                 (0.5 * static_cast<double>(windows.size()));
  }
};

/// Open loop: one generator thread sends on `tick_ms` ticks, one collector
/// thread waits for replies in send order. Two load threads in total.
LoadOutcome RunOpenLoop(ahntp::serve::TrustServer* server,
                        const Traffic& traffic, const OpenLoopConfig& config);

struct ClosedLoopConfig {
  size_t clients = 1;         // client threads
  size_t window = 64;         // reads outstanding per client
  double write_rate = 0.0;    // writes per second, sent between reads
  double seconds = 5.0;
  double warmup_seconds = 0.5;
};

/// Closed loop: each of `clients` threads (the caller is one) keeps
/// `window` reads outstanding and submits its next read as soon as its
/// oldest completes.
LoadOutcome RunClosedLoop(ahntp::serve::TrustServer* server,
                          const Traffic& traffic,
                          const ClosedLoopConfig& config);

}  // namespace trustbench

#endif  // TRUSTBENCH_LOAD_H_
