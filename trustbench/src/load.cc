#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <thread>

#include <sched.h>
#include <sys/prctl.h>

namespace trustbench {

namespace {

using ahntp::StatusCode;
using ahntp::serve::MutationResponse;
using ahntp::serve::TrustQuery;
using ahntp::serve::TrustResponse;

constexpr int64_t kRateWindowNs = 500'000'000;

int64_t ToNs(double seconds) { return std::llround(seconds * 1e9); }

void SleepUntilNs(int64_t when_ns) {
  const int64_t now = NowNs();
  if (when_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(when_ns - now));
  }
}

TrustQuery QueryFor(const Traffic& traffic, uint32_t key) {
  const ahntp::data::TrustPair& pair = (*traffic.pool)[key];
  TrustQuery query;
  query.src = pair.src;
  query.dst = pair.dst;
  return query;
}

uint32_t KeyAt(const Traffic& traffic, size_t i) {
  return (*traffic.keys)[(traffic.first_key + i) % traffic.keys->size()];
}

/// Folds one read reply into the outcome. `at_ns` places it in a window
/// of the measured span (none when before or after it); the closed loop
/// keeps counts only (`keep_latency` false).
void CountRead(const TrustResponse& r, uint32_t key, double latency_ms,
               int64_t at_ns, int64_t measure_start_ns, double slo_ms,
               bool keep_latency, LoadOutcome* out) {
  if (r.status.ok()) {
    ++out->reads_ok;
    out->served.Add(key, r.score);
  } else if (r.status.code() == StatusCode::kResourceExhausted) {
    ++out->reads_refused;
  } else {
    ++out->reads_failed;
  }
  if (at_ns < measure_start_ns) return;
  const size_t w = static_cast<size_t>((at_ns - measure_start_ns) / kRateWindowNs);
  if (w >= out->windows.size()) return;
  Window& window = out->windows[w];
  ++window.reads;
  if (r.status.ok()) ++window.ok;
  if (!keep_latency) return;
  // A refused or failed read never completes: it sorts above every
  // latency and misses every limit.
  const double sample =
      r.status.ok() ? latency_ms : std::numeric_limits<double>::infinity();
  window.read_ms.Add(sample);
  if (sample <= slo_ms) ++window.slo_ok;
}

size_t NumWindows(double seconds) {
  return static_cast<size_t>(ToNs(seconds) / kRateWindowNs);
}

/// Waits for the writes (they complete in submission order). Write i's
/// span carries request id i + 1, the id TimedSink gives the i-th apply.
void CollectWrites(std::vector<std::future<MutationResponse>>* writes,
                   const std::vector<int64_t>& submitted_ns,
                   int64_t measure_start_ns, SpanLog* spans, LoadOutcome* out) {
  for (size_t i = 0; i < writes->size(); ++i) {
    MutationResponse m = (*writes)[i].get();
    if (m.status.ok()) {
      ++out->writes_ok;
      if (submitted_ns[i] >= measure_start_ns) out->write_ms.Add(m.latency_ms);
      if (spans != nullptr) {
        const int64_t done_ns = submitted_ns[i] + std::llround(m.latency_ms * 1e6);
        spans->Add("serve.write", submitted_ns[i], done_ns, 0, i + 1);
      }
    } else if (m.status.code() == StatusCode::kResourceExhausted) {
      ++out->writes_refused;
    } else {
      ++out->writes_failed;
    }
  }
}

}  // namespace

void ServedScores::Add(uint32_t key, float score) {
  uint32_t bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  if (count[key]++ == 0) {
    first_bits[key] = bits;
  } else if (bits != first_bits[key]) {
    ++disagreeing;
  }
}

void ServedScores::Merge(const ServedScores& other) {
  disagreeing += other.disagreeing;
  for (size_t key = 0; key < count.size(); ++key) {
    if (other.count[key] == 0) continue;
    if (count[key] == 0) {
      first_bits[key] = other.first_bits[key];
    } else if (other.first_bits[key] != first_bits[key]) {
      disagreeing += other.count[key];
    }
    count[key] += other.count[key];
  }
}

int64_t ServedScores::Mismatches(const std::vector<float>& reference) const {
  int64_t bad = disagreeing;
  for (size_t key = 0; key < count.size(); ++key) {
    uint32_t bits = 0;
    std::memcpy(&bits, &reference[key], sizeof(bits));
    if (count[key] > 0 && first_bits[key] != bits) bad += count[key];
  }
  return bad;
}

CpuSplit CpuSplit::Make(size_t load_cpus) {
  CpuSplit split;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return split;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) split.all.push_back(c);
  }
  if (split.all.size() < load_cpus + 1) return split;
  split.load.assign(split.all.begin(), split.all.begin() + load_cpus);
  split.server.assign(split.all.begin() + load_cpus, split.all.end());
  return split;
}

void PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

CpuKeepers::CpuKeepers(const std::vector<int>& cpus) {
  for (int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      PinThisThread({cpu});
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
        __builtin_ia32_pause();
      }
    });
  }
}

CpuKeepers::~CpuKeepers() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

void StartOnServerCpus(ahntp::serve::TrustServer* server,
                       const CpuSplit& split) {
  PinThisThread(split.server);
  server->Start();
  PinThisThread(split.load);
}

LoadOutcome RunOpenLoop(ahntp::serve::TrustServer* server,
                        const Traffic& traffic, const OpenLoopConfig& config) {
  LoadOutcome out;
  const int64_t tick_ns = std::max<int64_t>(ToNs(config.tick_ms * 1e-3), 1);
  const int64_t warmup_ns = ToNs(config.warmup_seconds);
  const int64_t total_ns = warmup_ns + ToNs(config.seconds);
  const size_t num_ticks = static_cast<size_t>((total_ns + tick_ns - 1) / tick_ns);
  const size_t max_reads = static_cast<size_t>(
      std::ceil(config.read_rate * static_cast<double>(num_ticks * tick_ns) * 1e-9));
  out.windows.resize(NumWindows(config.seconds));
  out.served.Resize(traffic.pool->size());

  struct Slot {
    std::future<TrustResponse> reply;
    int64_t scheduled_ns = 0;
    int64_t submitted_ns = 0;
    uint32_t key = 0;
  };
  std::vector<Slot> slots(max_reads);
  std::atomic<size_t> published{0};
  std::atomic<bool> done{false};
  const int64_t t0 = NowNs() + 2'000'000;
  const int64_t measure_start = t0 + warmup_ns;

  std::thread collector([&] {
    size_t i = 0;
    for (;;) {
      const size_t available = published.load(std::memory_order_acquire);
      if (i == available) {
        if (done.load(std::memory_order_acquire) &&
            i == published.load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      for (; i < available; ++i) {
        Slot& slot = slots[i];
        TrustResponse r = slot.reply.get();
        const double latency_ms =
            static_cast<double>(slot.submitted_ns - slot.scheduled_ns) * 1e-6 +
            r.latency_ms;
        CountRead(r, slot.key, latency_ms, slot.scheduled_ns, measure_start,
                  config.slo_ms, /*keep_latency=*/true, &out);
        if (traffic.spans != nullptr) {
          traffic.spans->Add(
              "serve.read", slot.scheduled_ns,
              slot.scheduled_ns + std::llround(latency_ms * 1e6), 0, i + 1);
        }
      }
    }
  });

  std::vector<std::future<MutationResponse>> writes;
  std::vector<int64_t> write_submitted;
  const size_t num_deltas =
      traffic.deltas == nullptr ? 0 : traffic.deltas->size();
  size_t sent = 0;
  // Wake on the tick, not up to the default 50 us later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (size_t k = 0; k < num_ticks; ++k) {
    const int64_t tick = t0 + static_cast<int64_t>(k) * tick_ns;
    SleepUntilNs(tick);
    const int64_t woke = NowNs();
    if (tick >= measure_start) {
      out.tick_late_ms.Add(static_cast<double>(woke - tick) * 1e-6);
    }
    const double horizon_s =
        static_cast<double>(static_cast<int64_t>(k + 1) * tick_ns) * 1e-9;
    const size_t due = std::min(
        max_reads, static_cast<size_t>(config.read_rate * horizon_s));
    for (; sent < due; ++sent) {
      Slot& slot = slots[sent];
      slot.key = KeyAt(traffic, sent);
      slot.scheduled_ns = tick;
      slot.submitted_ns = NowNs();
      slot.reply = server->Submit(QueryFor(traffic, slot.key));
      published.store(sent + 1, std::memory_order_release);
    }
    const size_t writes_due =
        static_cast<size_t>(config.write_rate * horizon_s);
    while (writes.size() < writes_due &&
           traffic.first_delta + writes.size() < num_deltas) {
      write_submitted.push_back(NowNs());
      writes.push_back(server->SubmitMutation(
          (*traffic.deltas)[traffic.first_delta + writes.size()]));
    }
  }
  done.store(true, std::memory_order_release);
  collector.join();
  out.reads_sent = static_cast<int64_t>(sent);
  out.writes_sent = static_cast<int64_t>(writes.size());
  CollectWrites(&writes, write_submitted, measure_start, traffic.spans, &out);
  out.next_key = traffic.first_key + sent;
  out.next_delta = traffic.first_delta + writes.size();
  return out;
}

namespace {

/// One closed-loop client: keeps `window` reads outstanding, reading keys
/// from `key_base` on. Client 0 also sends the writes.
void ClosedLoopClient(ahntp::serve::TrustServer* server, const Traffic& traffic,
                      const ClosedLoopConfig& config, bool sends_writes,
                      size_t key_base, int64_t t0, LoadOutcome* out) {
  const size_t window = std::max<size_t>(config.window, 1);
  out->windows.resize(NumWindows(config.seconds));
  out->served.Resize(traffic.pool->size());
  struct Slot {
    std::future<TrustResponse> reply;
    uint32_t key = 0;
  };
  std::vector<Slot> ring(window);
  std::vector<std::future<MutationResponse>> writes;
  std::vector<int64_t> write_submitted;
  const size_t num_deltas =
      (sends_writes && traffic.deltas != nullptr) ? traffic.deltas->size() : 0;
  const int64_t measure_start = t0 + ToNs(config.warmup_seconds);
  const int64_t measure_end = measure_start + ToNs(config.seconds);
  size_t sent = 0;
  auto submit = [&](Slot* slot) {
    slot->key = KeyAt(traffic, key_base + sent++);
    slot->reply = server->Submit(QueryFor(traffic, slot->key));
  };
  for (Slot& slot : ring) submit(&slot);

  size_t head = 0;
  size_t outstanding = window;
  bool sending = true;
  while (outstanding > 0) {
    Slot& slot = ring[head];
    TrustResponse r = slot.reply.get();
    const int64_t now = NowNs();
    CountRead(r, slot.key, r.latency_ms, now, measure_start, 0.0,
              /*keep_latency=*/false, out);
    if (sending && now >= measure_end) sending = false;
    if (sending) {
      submit(&slot);
      const size_t writes_due = static_cast<size_t>(
          config.write_rate * static_cast<double>(now - t0) * 1e-9);
      while (writes.size() < writes_due &&
             traffic.first_delta + writes.size() < num_deltas) {
        write_submitted.push_back(NowNs());
        writes.push_back(server->SubmitMutation(
            (*traffic.deltas)[traffic.first_delta + writes.size()]));
      }
    } else {
      --outstanding;
    }
    head = (head + 1) % window;
  }
  out->reads_sent = static_cast<int64_t>(sent);
  out->writes_sent = static_cast<int64_t>(writes.size());
  CollectWrites(&writes, write_submitted, measure_start, traffic.spans, out);
  out->next_key = key_base + sent;
  out->next_delta = traffic.first_delta + writes.size();
}

}  // namespace

LoadOutcome RunClosedLoop(ahntp::serve::TrustServer* server,
                          const Traffic& traffic,
                          const ClosedLoopConfig& config) {
  const size_t clients = std::max<size_t>(config.clients, 1);
  // Clients read disjoint stretches of the key stream.
  const size_t stride = traffic.keys->size() / clients;
  std::vector<LoadOutcome> outs(clients);
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClosedLoopClient(server, traffic, config, false, c * stride, t0,
                       &outs[c]);
    });
  }
  ClosedLoopClient(server, traffic, config, true, 0, t0, &outs[0]);
  for (std::thread& t : threads) t.join();

  LoadOutcome out = std::move(outs[0]);
  for (size_t c = 1; c < clients; ++c) {
    const LoadOutcome& o = outs[c];
    out.reads_sent += o.reads_sent;
    out.reads_ok += o.reads_ok;
    out.reads_failed += o.reads_failed;
    out.reads_refused += o.reads_refused;
    out.served.Merge(o.served);
    for (size_t w = 0; w < out.windows.size(); ++w) {
      out.windows[w].reads += o.windows[w].reads;
      out.windows[w].ok += o.windows[w].ok;
    }
  }
  return out;
}

}  // namespace trustbench
