// Golden test of bench/bench_paper: per kernel ISA this host supports, runs
// `--experiment=alpha` on the Ciao-like dataset (scale 0.03, 30 epochs, two
// model seeds) at --threads=1 and at --threads=4. Both runs must print the
// same cell rows, equal to tests/golden/bench_paper_<isa>.golden, which pins
// the seed fan-out of core::RunRepeatedExperiment at any thread count. Each
// run's BENCH_paper.json must hold one record, with one entry per seed, for
// every printed row.
//
// To refresh after an intentional change:
//
//   ./build/tests/bench_paper_golden_test --update_golden
//
// (or set AHNTP_UPDATE_GOLDEN=1). The refreshed files are written back into
// the source tree via AHNTP_SOURCE_DIR.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/fileio.h"
#include "common/strings.h"
#include "test_util.h"

namespace ahntp {
namespace {

constexpr int kSeeds = 2;

std::string GoldenPath(const std::string& isa) {
  return std::string(AHNTP_SOURCE_DIR) + "/tests/golden/bench_paper_" + isa +
         ".golden";
}

bool IsCellRow(const std::string& line) {
  return StrStartsWith(line, "Ciao ") || StrStartsWith(line, "Epinions ");
}

/// Runs the bench in its own directory at `threads` and returns its cell
/// rows under the golden's header, after checking BENCH_paper.json.
std::string RunCellRows(const std::string& isa, int threads) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      StrFormat("bench_paper_golden_%s_t%d", isa.c_str(), threads);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string output;
  const int exit_code = testing::RunCapturingStdout(
      StrFormat("cd '%s' && '%s' --experiment=alpha --datasets=ciao "
                "--scale=0.03 --epochs=30 --seeds=%d --threads=%d "
                "--kernel_isa=%s",
                dir.c_str(), AHNTP_BENCH_PAPER, kSeeds, threads, isa.c_str()),
      &output);
  EXPECT_EQ(exit_code, 0) << "bench_paper failed; output:\n" << output;

  std::string rows =
      "# bench_paper --experiment=alpha --datasets=ciao --scale=0.03 "
      "--epochs=30 --seeds=2\n"
      "# cell rows, the same at --threads=1 and --threads=4.\n"
      "# Regenerate: ./build/tests/bench_paper_golden_test --update_golden\n";
  size_t num_rows = 0;
  for (const std::string& line : StrSplit(output, '\n')) {
    if (!IsCellRow(line)) continue;
    rows += line + "\n";
    ++num_rows;
  }
  EXPECT_GT(num_rows, 0u) << output;

  // One record per line, one {"seed": ...} entry per run.
  std::string json;
  EXPECT_TRUE(
      ReadFileToString((dir / "BENCH_paper.json").string(), &json).ok());
  size_t num_records = 0;
  for (const std::string& line : StrSplit(json, '\n')) {
    if (line.find("\"experiment\": ") == std::string::npos) continue;
    ++num_records;
    size_t seeds = 0;
    for (size_t at = line.find("\"seed\": "); at != std::string::npos;
         at = line.find("\"seed\": ", at + 1)) {
      ++seeds;
    }
    EXPECT_EQ(seeds, static_cast<size_t>(kSeeds)) << line;
  }
  EXPECT_EQ(num_records, num_rows) << json;
  std::filesystem::remove_all(dir);
  return rows;
}

class BenchPaperGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchPaperGoldenTest, CellRowsMatchGoldenAtThreads1And4) {
  const std::string one = RunCellRows(GetParam(), 1);
  const std::string four = RunCellRows(GetParam(), 4);
  EXPECT_EQ(one, four) << "cell rows depend on the thread count";
  testing::ExpectMatchesGolden(one, GoldenPath(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Isas, BenchPaperGoldenTest,
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
