// trustbench: runs one benchmark workload in this process and prints one
// TRUSTBENCH_RESULT line. run.py drives it; see README.md.
//
//   trustbench --workload=serve_read --seed=1 --seconds=10 --trace=0
//              --run_dir=.bench_build/run/x [--setup_only] [--inject_mismatch]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "workloads.h"

namespace trustbench {

int64_t g_process_start_ns = 0;

namespace {

/// Seconds in the program's spans named `name`, counting only spans not
/// nested in another span of the same name.
double RepoSpanSeconds(const std::vector<ahntp::trace::SpanEvent>& events,
                       const char* name) {
  int64_t total = 0;
  for (const auto& e : events) {
    if (e.name != name) continue;
    bool nested = false;
    for (const auto& p : events) {
      if (p.id == e.parent_id && p.name == name) nested = true;
    }
    if (!nested) total += e.duration_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

}  // namespace

double CounterOf(const ahntp::metrics::Snapshot& snap, const char* name) {
  return static_cast<double>(snap.CounterValue(name, 0));
}

SetupTracing::SetupTracing(bool on) : on_(on) {
  if (on_) {
    ahntp::metrics::Enable();
    ahntp::trace::Enable();
  }
}

SetupSpans SetupTracing::Finish() {
  SetupSpans s;
  if (!on_) return s;
  const std::vector<ahntp::trace::SpanEvent> events = ahntp::trace::Snapshot();
  for (const char* name :
       {"hypergraph.build.social_influence", "hypergraph.build.attribute",
        "hypergraph.build.pairwise", "hypergraph.build.multi_hop"}) {
    s.hypergraph_s += RepoSpanSeconds(events, name);
  }
  s.pagerank_s = RepoSpanSeconds(events, "graph.motif_pagerank") +
                 RepoSpanSeconds(events, "graph.pagerank");
  s.spill_s = RepoSpanSeconds(events, "infer.shard.spill");
  ahntp::trace::Disable();
  ahntp::metrics::Reset();
  return s;
}

void AddPerLayerDefaults(Result* r) {
  static const char* const kNames[][2] = {
      {"models.shard_faults_per_batch", "count"},
      {"models.shard_hit_ratio", "ratio"},
      {"models.shard_bytes_read_per_batch", "B"},
      {"models.score_batch_p50_ms", "ms"},
      {"serve.self_us_per_read", "us"},
      {"serve.backend_busy_share", "ratio"},
      {"serve.batch_size_mean", "count"},
      {"serve.generator_late_p50_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.coalesced_ratio", "ratio"},
      {"serve.shed_ratio", "ratio"},
      {"serve.read_slo_ratio", "ratio"},
      {"serve.write_p50_ms", "ms"},
      {"serve.write_tail_ms", "ms"},
      {"core.test_auc", "ratio"},
      {"core.apply_p50_ms", "ms"},
      {"core.apply.analytics_ms", "ms"},
      {"core.apply.hypergroups_ms", "ms"},
      {"core.apply.diff_ms", "ms"},
      {"core.apply.refresh_ms", "ms"},
      {"core.apply.plan_ms", "ms"},
      {"core.apply.dirty_users_mean", "count"},
      {"graph.pagerank_iterations_per_apply", "count"},
      {"hypergraph.update_touched_per_apply", "count"},
      {"tensor.matmul_gflop_per_epoch", "GFLOP"},
      {"tensor.spmm_gflop_per_epoch", "GFLOP"},
      {"tensor.gflops_per_s", "GFLOP/s"},
      {"data.generate_s", "s"},
      {"data.split_s", "s"},
      {"graph.build_s", "s"},
      {"hypergraph.build_s", "s"},
      {"models.plan_build_s", "s"},
      {"models.spill_s", "s"},
      {"models.spill_dirs_left", "count"},
      {"trace.spans", "count"},
  };
  for (const auto& [name, unit] : kNames) {
    const bool set =
        std::any_of(r->metrics.begin(), r->metrics.end(),
                    [&](const Metric& m) { return m.name == name; });
    if (!set) r->Set(name, 0.0, unit);
  }
}

}  // namespace trustbench

int main(int argc, char** argv) {
  using namespace trustbench;
  g_process_start_ns = NowNs();
  ahntp::FlagParser flags;
  AHNTP_CHECK_OK(flags.Parse(argc, argv));
  RunOptions options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 10.0);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.setup_only = flags.GetBool("setup_only", false);
  options.inject_mismatch = flags.GetBool("inject_mismatch", false);
  options.run_dir = flags.GetString("run_dir", "");
  AHNTP_CHECK(!options.run_dir.empty()) << "--run_dir is required";
  AHNTP_CHECK(options.seconds >= 2.0) << "--seconds must be at least 2";
  std::filesystem::create_directories(options.run_dir);

  Result result;
  if (options.workload == "serve_read") {
    result = RunServeRead(options);
  } else if (options.workload == "serve_sharded") {
    result = RunServeSharded(options);
  } else if (options.workload == "serve_mutate") {
    result = RunServeMutate(options);
  } else if (options.workload == "train") {
    result = RunTrain(options);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", options.workload.c_str());
    return 2;
  }
  PrintResult(result);
  return result.correct ? 0 : 1;
}
