// Serve-digest golden test: runs the serve_demo binary as a child process
// under a 75% serve.infer fault stream (--fault_spec=serve.infer@~0.75
// --fault_seed=42, the demo's default scale) at --threads=1/2/8, once per
// kernel ISA this host supports, and checks that
//   - every run exits 0 (the demo's own invariant checks held);
//   - the five SERVE_ digest lines (SUMMARY, LANES, CONF, MUT, SCORES) are
//     identical at every thread count and equal
//     tests/golden/serve_digests_<isa>.golden. The goldens are per ISA
//     because the avx2 kernels' fma reductions round differently from the
//     scalar oracle, which moves the LANES, CONF and MUT digests;
//   - the fault stream exercised every recovery path (retries, breaker
//     trip and recovery, degraded responses, one rejected and one
//     successful reload, coalescing, score-cache hits), the lanes and
//     abstain phases did their jobs, and the metrics sidecar carries the
//     serve.* counter schema.
//
// Phases 4 and 5 of the demo disable fault injection, so SERVE_CONF and
// SERVE_MUT are also the fault-free digests.
//
// To refresh after an intentional serving change:
//
//   ./build/tests/serve_golden_test --update_golden
//
// (or set AHNTP_UPDATE_GOLDEN=1). The refreshed files are written back into
// the source tree via AHNTP_SOURCE_DIR.

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fileio.h"
#include "common/strings.h"
#include "test_util.h"

namespace ahntp {
namespace {

std::string GoldenPath(const std::string& isa) {
  return std::string(AHNTP_SOURCE_DIR) + "/tests/golden/serve_digests_" +
         isa + ".golden";
}

struct DemoRun {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

/// Runs serve_demo with `args`, capturing stdout and stderr.
DemoRun RunServeDemo(const std::string& args, const std::string& dir) {
  const std::string stderr_path = dir + "/stderr.txt";
  DemoRun run;
  run.exit_code = testing::RunCapturingStdout(
      std::string("'") + AHNTP_SERVE_DEMO + "' " + args + " 2>'" +
          stderr_path + "'",
      &run.stdout_text);
  (void)ReadFileToString(stderr_path, &run.stderr_text);
  return run;
}

/// The SERVE_ digest lines of a run, in print order, newline-terminated.
std::string DigestLines(const std::string& output) {
  std::string digests;
  for (const std::string& line : StrSplit(output, '\n')) {
    if (StrStartsWith(line, "SERVE_")) digests += line + "\n";
  }
  return digests;
}

/// The digest line starting with `prefix`, or "" when absent.
std::string DigestLine(const std::string& digests, const char* prefix) {
  for (const std::string& line : StrSplit(digests, '\n')) {
    if (StrStartsWith(line, prefix)) return line;
  }
  ADD_FAILURE() << "no " << prefix << "line in:\n" << digests;
  return "";
}

/// The raw value after `"key": ` in a flat one-line JSON object, with
/// string quotes stripped.
std::string Field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  size_t begin = line.find(tag);
  if (begin == std::string::npos) {
    ADD_FAILURE() << "no \"" << key << "\" in " << line;
    return "";
  }
  begin += tag.size();
  if (line[begin] == '"') {
    return line.substr(begin + 1, line.find('"', begin + 1) - begin - 1);
  }
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

long long IntField(const std::string& line, const std::string& key) {
  return std::strtoll(Field(line, key).c_str(), nullptr, 10);
}

/// The `"name": { ... }` section of a metrics snapshot (flat sections only).
std::string Section(const std::string& json, const std::string& name) {
  const size_t begin = json.find("\"" + name + "\": {");
  if (begin == std::string::npos) return "";
  return json.substr(begin, json.find('}', begin) - begin);
}

void ExpectRecoveryPathsTaken(const std::string& digests) {
  const std::string summary = DigestLine(digests, "SERVE_SUMMARY ");
  EXPECT_GT(IntField(summary, "retries"), 0)
      << "no retries under a 75% fault rate";
  EXPECT_GE(IntField(summary, "breaker_trips"), 1) << "breaker never tripped";
  EXPECT_GE(IntField(summary, "breaker_recoveries"), 1)
      << "breaker never recovered";
  EXPECT_GE(IntField(summary, "degraded"), 1)
      << "no degraded responses served";
  EXPECT_EQ(IntField(summary, "reload_failures"), 1)
      << "corrupt reload not rejected once";
  EXPECT_EQ(IntField(summary, "reload_success"), 1)
      << "pristine reload did not succeed";
  EXPECT_GT(IntField(summary, "coalesced"), 0) << "hot keys never coalesced";
  EXPECT_GT(IntField(summary, "cache_hits"), 0)
      << "the repeat wave never hit the score cache";
  EXPECT_GE(IntField(summary, "coalesced_expired"), 1)
      << "coalesced-expiry path not taken";

  const std::string lanes = DigestLine(digests, "SERVE_LANES ");
  EXPECT_EQ(IntField(lanes, "strict_rejected"), 0)
      << "the strict reservation leaked";
  EXPECT_GT(IntField(lanes, "besteffort_admitted"), 0)
      << "best-effort lane starved entirely";

  const std::string conf = DigestLine(digests, "SERVE_CONF ");
  EXPECT_GT(std::strtod(Field(conf, "threshold").c_str(), nullptr), 0.0)
      << "degenerate threshold";
  EXPECT_GT(IntField(conf, "abstained"), 0) << "abstain path never taken";
  EXPECT_GT(IntField(conf, "ok"), 0) << "no confident primary responses";
  EXPECT_GE(IntField(conf, "degraded"), IntField(conf, "abstained"))
      << "abstains not served degraded";
  EXPECT_GT(IntField(conf, "cache_hits"), 0)
      << "confident repeats not cache-absorbed";
  const std::string digest = Field(conf, "digest");
  EXPECT_EQ(digest.size(), 16u) << "malformed digest " << digest;
  for (char c : digest) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)))
        << "malformed digest " << digest;
  }
}

void ExpectServeMetricsSchema(const std::string& path) {
  std::string json;
  ASSERT_TRUE(ReadFileToString(path, &json).ok()) << "no metrics at " << path;
  const std::string counters = Section(json, "counters");
  for (const char* key :
       {"serve.submitted", "serve.ok", "serve.retries", "serve.degraded",
        "serve.breaker_trips", "serve.reload_failures",
        "serve.reload_success", "serve.coalesced", "serve.cache_hits",
        "serve.downgraded", "serve.lane.strict.admitted",
        "serve.lane.degraded.admitted", "serve.lane.besteffort.admitted"}) {
    EXPECT_NE(counters.find(std::string("\"") + key + "\":"),
              std::string::npos)
        << "metrics sidecar missing counter " << key;
  }
  EXPECT_NE(Section(json, "gauges").find("\"serve.breaker_state\":"),
            std::string::npos)
      << "breaker state gauge not exported";
}

class ServeGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeGoldenTest, DigestsMatchGoldenAtThreads1_2_8) {
  const std::string& isa = GetParam();
  const std::string dir =
      ::testing::TempDir() + "/serve_golden_" + std::to_string(::getpid()) +
      "_" + isa;
  std::filesystem::create_directories(dir);

  std::string digests_t1;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(StrFormat("--kernel_isa=%s --threads=%d", isa.c_str(),
                           threads));
    const std::string metrics_path = dir + "/metrics.json";
    std::filesystem::remove(metrics_path);
    DemoRun run = RunServeDemo(
        StrFormat("--fault_spec=serve.infer@~0.75 --fault_seed=42 "
                  "--kernel_isa=%s --threads=%d --serve_checkpoint='%s' "
                  "--metrics_out='%s'",
                  isa.c_str(), threads, (dir + "/serve.ckpt").c_str(),
                  metrics_path.c_str()),
        dir);
    ASSERT_EQ(run.exit_code, 0) << "serve_demo failed; stderr:\n"
                                << run.stderr_text;
    const std::string digests = DigestLines(run.stdout_text);
    if (threads == 1) {
      digests_t1 = digests;
    } else {
      EXPECT_EQ(digests, digests_t1)
          << "SERVE_ digests at --threads=" << threads
          << " differ from --threads=1";
    }
    ExpectServeMetricsSchema(metrics_path);
  }
  std::filesystem::remove_all(dir);

  ExpectRecoveryPathsTaken(digests_t1);
  testing::ExpectMatchesGolden(digests_t1, GoldenPath(isa));
}

INSTANTIATE_TEST_SUITE_P(
    Isas, ServeGoldenTest,
    ::testing::ValuesIn(testing::SupportedKernelIsas()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace ahntp

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  ahntp::testing::ParseUpdateGolden(argc, argv);
  return RUN_ALL_TESTS();
}
