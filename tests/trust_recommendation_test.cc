// Smoke test of examples/trust_recommendation: runs the example as a child
// process once per kernel ISA this host supports and checks that it exits 0
// and that its ranking lines (the top-10 predicted trustors, scored through
// the inference plan) and its explanation lines (AhntpModel::ExplainUser's
// most influential hyperedges) equal tests/golden/trust_recommendation.golden.
// One golden serves every ISA: the printed precision hides the avx2 kernels'
// last-bit differences from the scalar oracle.
//
// To refresh after an intentional change:
//
//   ./build/tests/trust_recommendation_test --update_golden
//
// (or set AHNTP_UPDATE_GOLDEN=1). The refreshed file is written back into
// the source tree via AHNTP_SOURCE_DIR.

#include <string>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "test_util.h"

namespace ahntp {
namespace {

std::string GoldenPath() {
  return std::string(AHNTP_SOURCE_DIR) +
         "/tests/golden/trust_recommendation.golden";
}

/// The ranking ("  user ...") and explanation ("  [...") lines of the
/// example's output, right-trimmed, under the golden's header.
std::string GoldenLines(const std::string& output) {
  std::string lines =
      "# trust_recommendation ranking and explanation lines (CiaoLike scale\n"
      "# 0.06, AHNTP, 60 epochs, fixed seeds); the same for every kernel "
      "ISA.\n"
      "# Regenerate: ./build/tests/trust_recommendation_test "
      "--update_golden\n";
  for (const std::string& line : StrSplit(output, '\n')) {
    if (StrStartsWith(line, "  user ") || StrStartsWith(line, "  [")) {
      lines += line.substr(0, line.find_last_not_of(' ') + 1) + "\n";
    }
  }
  return lines;
}

class TrustRecommendationTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(TrustRecommendationTest, RankingAndExplanationMatchGolden) {
  std::string output;
  const int exit_code = testing::RunCapturingStdout(
      std::string("AHNTP_KERNEL_ISA=") + GetParam() + " '" +
          AHNTP_TRUST_RECOMMENDATION + "'",
      &output);
  ASSERT_EQ(exit_code, 0) << "trust_recommendation failed; output:\n"
                          << output;
  testing::ExpectMatchesGolden(GoldenLines(output), GoldenPath());
}

INSTANTIATE_TEST_SUITE_P(
    Isas, TrustRecommendationTest,
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
