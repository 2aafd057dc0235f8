// Golden-trace regression test: runs the quickstart-shaped pipeline (small
// Ciao-like dataset, AHNTP, fixed seeds) with the observability layer on
// and compares the ordered set of span names plus every deterministic
// counter against tests/golden/quickstart_trace.golden.
//
// The golden covers exactly the values the determinism contract in
// common/metrics.h guarantees: span *names* (not timings) and integer
// counters / histogram observation counts, which are bit-identical at any
// --threads=N. Gauges, histogram sums, and durations are excluded.
//
// Removing an instrumented call site (a TraceSpan or AHNTP_METRIC_COUNT in
// the pipeline) changes this output and fails the test. To refresh after
// an intentional instrumentation change:
//
//   ./build/tests/golden_trace_test --update_golden
//
// (or set AHNTP_UPDATE_GOLDEN=1). The refreshed file is written back into
// the source tree via AHNTP_SOURCE_DIR.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/experiment.h"
#include "data/generator.h"
#include "test_util.h"

namespace ahntp {
namespace {

std::string GoldenPath() {
  return std::string(AHNTP_SOURCE_DIR) + "/tests/golden/quickstart_trace.golden";
}

/// Renders the deterministic slice of the observability output, one record
/// per line, sorted — directly diffable against the golden file.
std::string RenderObservedGolden(const std::vector<trace::SpanEvent>& events,
                                 const metrics::Snapshot& snapshot) {
  std::string out =
      "# Golden observability trace for the quickstart-shaped pipeline\n"
      "# (CiaoLike scale 0.03, AHNTP, dims 8-4, 3 epochs, fixed seeds).\n"
      "# Spans are unique names; counter/histogram values are exact.\n"
      "# Regenerate: ./build/tests/golden_trace_test --update_golden\n";
  std::set<std::string> span_names;
  for (const trace::SpanEvent& e : events) span_names.insert(e.name);
  for (const std::string& name : span_names) {
    out += "span " + name + "\n";
  }
  for (const metrics::CounterSample& c : snapshot.counters) {
    out += StrFormat("counter %s %lld\n", c.name.c_str(),
                     static_cast<long long>(c.value));
  }
  for (const metrics::HistogramSample& h : snapshot.histograms) {
    out += StrFormat("histogram_count %s %lld\n", h.name.c_str(),
                     static_cast<long long>(h.count));
  }
  return out;
}

TEST(GoldenTrace, QuickstartPipelineMatchesGolden) {
  metrics::Disable();
  metrics::Enable();
  trace::Disable();
  trace::Enable();

  data::SocialDataset dataset =
      data::SocialNetworkGenerator(data::GeneratorConfig::CiaoLike(0.03))
          .Generate();
  core::ExperimentConfig config;
  config.model = "AHNTP";
  config.hidden_dims = {8, 4};
  config.trainer.epochs = 3;
  // patience=0 disables early stopping, so the epoch count (and with it
  // every per-epoch counter) is fixed by the config, not the loss curve.
  config.trainer.patience = 0;
  auto result = core::RunExperiment(dataset, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  uint64_t dropped = 0;
  std::vector<trace::SpanEvent> events = trace::Snapshot(&dropped);
  ASSERT_EQ(dropped, 0u) << "ring buffer too small for the golden pipeline";
  ASSERT_FALSE(events.empty());
  std::string observed = RenderObservedGolden(events, metrics::Collect());
  metrics::Disable();
  trace::Disable();

  testing::ExpectMatchesGolden(observed, GoldenPath());
}

}  // namespace
}  // namespace ahntp

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  ahntp::testing::ParseUpdateGolden(argc, argv);
  return RUN_ALL_TESTS();
}
