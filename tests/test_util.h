#ifndef AHNTP_TESTS_TEST_UTIL_H_
#define AHNTP_TESTS_TEST_UTIL_H_

#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "common/cpu.h"
#include "common/fileio.h"
#include "common/strings.h"

namespace ahntp::testing {

/// Checks the analytic gradients of `build` against central finite
/// differences. `build` must construct a fresh scalar (1x1) expression from
/// the given parameters on each call (define-by-run semantics).
///
/// Works in float32, so tolerances are loose: the check asserts
/// |analytic - numeric| <= abs_tol + rel_tol * |numeric|.
inline void ExpectGradientsClose(
    const std::function<autograd::Variable(
        const std::vector<autograd::Variable>&)>& build,
    std::vector<autograd::Variable> params, float epsilon = 5e-3f,
    float abs_tol = 5e-3f, float rel_tol = 5e-2f) {
  ASSERT_FALSE(params.empty());
  // Analytic gradients.
  for (auto& p : params) p.ZeroGrad();
  autograd::Variable loss = build(params);
  ASSERT_EQ(loss.rows(), 1u);
  ASSERT_EQ(loss.cols(), 1u);
  loss.Backward();
  std::vector<tensor::Matrix> analytic;
  for (auto& p : params) analytic.push_back(p.grad());

  // Numeric gradients, entry by entry.
  for (size_t k = 0; k < params.size(); ++k) {
    tensor::Matrix& value = params[k].mutable_value();
    for (size_t i = 0; i < value.size(); ++i) {
      float original = value.data()[i];
      value.data()[i] = original + epsilon;
      float plus = build(params).value().At(0, 0);
      value.data()[i] = original - epsilon;
      float minus = build(params).value().At(0, 0);
      value.data()[i] = original;
      float numeric = (plus - minus) / (2.0f * epsilon);
      float got = analytic[k].data()[i];
      EXPECT_NEAR(got, numeric, abs_tol + rel_tol * std::fabs(numeric))
          << "param " << k << " entry " << i;
    }
  }
}

/// Names of the kernel ISAs this host can run; scalar always.
inline std::vector<std::string> SupportedKernelIsas() {
  std::vector<std::string> isas;
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    if (KernelIsaSupported(isa)) isas.push_back(KernelIsaName(isa));
  }
  return isas;
}

/// Runs `command` through the shell, appending its stdout to `*out`.
/// Returns the exit code, or -1 when it could not start or did not exit.
inline int RunCapturingStdout(const std::string& command, std::string* out) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out->append(buffer, n);
  }
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Whether a golden test rewrites its golden files instead of comparing.
/// Set by ParseUpdateGolden().
inline bool& UpdateGolden() {
  static bool update = false;
  return update;
}

/// For a golden test's main(): refresh instead of compare when the command
/// line carries --update_golden or AHNTP_UPDATE_GOLDEN is set (non-empty,
/// not "0").
inline void ParseUpdateGolden(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update_golden") UpdateGolden() = true;
  }
  const char* env = std::getenv("AHNTP_UPDATE_GOLDEN");
  if (env != nullptr && env[0] != '\0' && std::string(env) != "0") {
    UpdateGolden() = true;
  }
}

/// Compares `observed` with the golden file at `path` and reports every
/// differing line. When refreshing, rewrites the file and skips the test.
inline void ExpectMatchesGolden(const std::string& observed,
                                const std::string& path) {
  if (UpdateGolden()) {
    ASSERT_TRUE(WriteFileAtomic(path, observed).ok());
    GTEST_SKIP() << "golden refreshed at " << path;
  }
  std::string expected;
  ASSERT_TRUE(ReadFileToString(path, &expected).ok())
      << "missing golden " << path << "; run with --update_golden to create it";
  if (observed == expected) return;
  // Line-level report beats a single giant string diff in gtest output.
  std::vector<std::string> obs = StrSplit(observed, '\n');
  std::vector<std::string> exp = StrSplit(expected, '\n');
  std::string delta;
  for (size_t i = 0; i < std::max(obs.size(), exp.size()); ++i) {
    const std::string o = i < obs.size() ? obs[i] : "<missing>";
    const std::string e = i < exp.size() ? exp[i] : "<missing>";
    if (o != e) {
      delta += StrFormat("  line %zu: got \"%s\", want \"%s\"\n", i + 1,
                         o.c_str(), e.c_str());
    }
  }
  FAIL() << "output diverged from golden (" << path << "):\n"
         << delta
         << "If the change is intentional, refresh with --update_golden.";
}

}  // namespace ahntp::testing

#endif  // AHNTP_TESTS_TEST_UTIL_H_
