// The four workloads. Each builds its inputs from the seed, times its own
// set-up, measures for the requested seconds, checks its outputs, and
// fills a Result with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#ifndef TRUSTBENCH_WORKLOADS_H_
#define TRUSTBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"
#include "common/metrics.h"

namespace trustbench {

/// Process start, as recorded by main(); setup_s runs from here.
extern int64_t g_process_start_ns;

Result RunServeRead(const RunOptions& options);
Result RunServeSharded(const RunOptions& options);
Result RunServeMutate(const RunOptions& options);
Result RunTrain(const RunOptions& options);

/// Adds every per-layer metric the workload has not set, as 0, so each
/// traced workload prints the full set; a layer that does no such work on
/// a workload reads 0.
void AddPerLayerDefaults(Result* result);

/// A registry counter's value (0 when never registered).
double CounterOf(const ahntp::metrics::Snapshot& snap, const char* name);

/// Set-up time the program spends inside its own spans.
struct SetupSpans {
  double hypergraph_s = 0;  // hypergraph.build.{social_influence,...}
  double pagerank_s = 0;    // graph.pagerank, graph.motif_pagerank
  double spill_s = 0;       // infer.shard.spill
};

/// Turns the metrics registry and the program's span ring on for set-up
/// (traced run only). Finish() reads the set-up spans, turns the span ring
/// off and restarts the registry from zero for the measured phases.
class SetupTracing {
 public:
  explicit SetupTracing(bool on);
  SetupSpans Finish();

 private:
  bool on_;
};

}  // namespace trustbench

#endif  // TRUSTBENCH_WORKLOADS_H_
