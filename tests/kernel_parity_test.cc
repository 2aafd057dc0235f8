// Differential tests for the SIMD kernel family (DESIGN.md §15): every
// AVX2 code path is compared against the frozen scalar oracle under the
// two-tier parity contract —
//   * exact tier: elementwise kernels are *bitwise* identical to scalar,
//     including NaN / signed-zero / infinity probes and remainder lanes;
//   * fma tier: fused/reassociated reductions (MatMul, dots, norms, SpMM)
//     agree to tolerance and are bitwise-stable across thread counts.
// Sizes deliberately straddle the 8-lane width (n % 8 ∈ {0,1,7}), empty and
// one-element inputs, and unaligned views. Everything skips cleanly on
// machines where the AVX2 kernels can't run.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/csr.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"

namespace ahntp {
namespace {

using tensor::CsrMatrix;
using tensor::Matrix;
using tensor::Triplet;

// ---------------------------------------------------------------------------
// ISA / flag plumbing
// ---------------------------------------------------------------------------

TEST(KernelIsaTest, ParseAcceptsCanonicalNames) {
  Result<KernelIsa> scalar = ParseKernelIsa("scalar");
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(scalar.value(), KernelIsa::kScalar);

  Result<KernelIsa> autod = ParseKernelIsa("auto");
  ASSERT_TRUE(autod.ok());
  EXPECT_TRUE(KernelIsaSupported(autod.value()));

  Result<KernelIsa> avx2 = ParseKernelIsa("avx2");
  if (KernelIsaSupported(KernelIsa::kAvx2)) {
    ASSERT_TRUE(avx2.ok());
    EXPECT_EQ(avx2.value(), KernelIsa::kAvx2);
  } else {
    // Explicitly requesting an ISA this build/CPU can't run is an operator
    // error, not a silent fallback.
    EXPECT_EQ(avx2.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(KernelIsaTest, ParseRejectsGarbage) {
  for (const char* bad : {"", "AVX2", "Scalar", "sse", "avx512", "auto ",
                          "scalar\n", "int8"}) {
    Result<KernelIsa> r = ParseKernelIsa(bad);
    EXPECT_FALSE(r.ok()) << "accepted: '" << bad << "'";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(KernelIsaTest, NamesRoundTrip) {
  EXPECT_STREQ(KernelIsaName(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(KernelIsaName(KernelIsa::kAvx2), "avx2");
  EXPECT_FALSE(CpuFeaturesString().empty());
  EXPECT_TRUE(KernelIsaSupported(KernelIsa::kScalar));
}

// ---------------------------------------------------------------------------
// Shared scaffolding
// ---------------------------------------------------------------------------

/// Restores the dispatch ISA on scope exit so a failing assertion can't leak
/// a pinned ISA into later tests in this process.
class IsaGuard {
 public:
  IsaGuard() : saved_(ActiveKernelIsa()) {}
  ~IsaGuard() { SetKernelIsa(saved_); }

 private:
  KernelIsa saved_;
};

class ThreadGuard {
 public:
  ThreadGuard() : saved_(NumThreads()) {}
  ~ThreadGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

/// Element counts straddling the 8-float AVX2 lane width: empty, single
/// element, sub-lane, exact lanes, one-off remainders, and larger blocks
/// that cross the ParallelFor grain.
const size_t kLaneSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100,
                             255, 256, 257};

bool BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Random matrix with special-value probes (NaN, ±inf, -0.0, denormal,
/// exact zero) sprinkled at deterministic positions — the exact tier must
/// reproduce the scalar oracle's handling of all of them bit-for-bit.
Matrix ProbeMatrix(size_t rows, size_t cols, Rng* rng, bool specials) {
  Matrix m = Matrix::Randn(rows, cols, rng, 0.0f, 2.0f);
  if (!specials || m.size() < 12) return m;
  float* p = m.data();
  const size_t n = m.size();
  p[n / 12] = std::numeric_limits<float>::quiet_NaN();
  p[(3 * n) / 12] = std::numeric_limits<float>::infinity();
  p[(5 * n) / 12] = -std::numeric_limits<float>::infinity();
  p[(7 * n) / 12] = -0.0f;
  p[(9 * n) / 12] = std::numeric_limits<float>::denorm_min();
  p[(11 * n) / 12] = 0.0f;
  return m;
}

class KernelParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!KernelIsaSupported(KernelIsa::kAvx2)) {
      GTEST_SKIP() << "AVX2 kernels unavailable on this build/CPU";
    }
  }

  /// Runs `op` once under the scalar oracle and once under AVX2 and hands
  /// both results to `compare`. `op` must be deterministic.
  template <typename Op, typename Compare>
  void Differential(Op op, Compare compare) {
    IsaGuard guard;
    SetKernelIsa(KernelIsa::kScalar);
    auto oracle = op();
    SetKernelIsa(KernelIsa::kAvx2);
    auto candidate = op();
    compare(oracle, candidate);
  }

  template <typename Op>
  void ExpectBitwise(Op op, const char* what) {
    Differential(op, [&](const Matrix& s, const Matrix& v) {
      EXPECT_TRUE(BitEqual(s, v))
          << what << ": scalar " << s.DebugString() << " vs avx2 "
          << v.DebugString();
    });
  }

  template <typename Op>
  void ExpectClose(Op op, float tol, const char* what) {
    Differential(op, [&](const Matrix& s, const Matrix& v) {
      ASSERT_EQ(s.rows(), v.rows()) << what;
      ASSERT_EQ(s.cols(), v.cols()) << what;
      EXPECT_TRUE(s.AllClose(v, tol)) << what << ": scalar "
                                      << s.DebugString() << " vs avx2 "
                                      << v.DebugString();
    });
  }
};

// ---------------------------------------------------------------------------
// Exact tier: elementwise kernels, bitwise vs scalar
// ---------------------------------------------------------------------------

TEST_F(KernelParityTest, ElementwiseUnaryBitwise) {
  Rng rng(41);
  for (size_t n : kLaneSizes) {
    // Tall-and-skinny and single-row shapes both hit the per-chunk dispatch.
    for (size_t cols : {n, size_t{1}}) {
      if (n == 0 && cols == 0) continue;
      size_t rows = cols == 0 ? 0 : (n == 0 ? 0 : (n + cols - 1) / cols);
      Matrix a = ProbeMatrix(rows, cols, &rng, /*specials=*/true);
      auto run = [&](auto body) {
        Matrix out(rows, cols);
        body(&out, a);
        return out;
      };
      ExpectBitwise([&] { return run([](Matrix* o, const Matrix& x) {
                      tensor::ReluInto(o, x); }); }, "ReluInto");
      ExpectBitwise([&] { return run([](Matrix* o, const Matrix& x) {
                      tensor::LeakyReluInto(o, x, 0.01f); }); },
                    "LeakyReluInto");
      ExpectBitwise([&] { return run([](Matrix* o, const Matrix& x) {
                      tensor::ClampInto(o, x, -0.75f, 0.5f); }); },
                    "ClampInto");
      ExpectBitwise([&] { return run([](Matrix* o, const Matrix& x) {
                      tensor::AbsInto(o, x); }); }, "AbsInto");
      ExpectBitwise([&] { return run([](Matrix* o, const Matrix& x) {
                      tensor::SqrtInto(o, x, 1e-12f); }); }, "SqrtInto");
    }
  }
}

TEST_F(KernelParityTest, ElementwiseBinaryBitwise) {
  Rng rng(43);
  for (size_t n : kLaneSizes) {
    size_t rows = n == 0 ? 0 : 3;
    Matrix a = ProbeMatrix(rows, n, &rng, /*specials=*/true);
    Matrix b = ProbeMatrix(rows, n, &rng, /*specials=*/false);
    auto binary = [&](auto body) {
      return [&, body] {
        Matrix out(rows, n);
        body(&out, a, b);
        return out;
      };
    };
    ExpectBitwise(binary([](Matrix* o, const Matrix& x, const Matrix& y) {
                    tensor::AddInto(o, x, y); }), "AddInto");
    ExpectBitwise(binary([](Matrix* o, const Matrix& x, const Matrix& y) {
                    tensor::SubInto(o, x, y); }), "SubInto");
    ExpectBitwise(binary([](Matrix* o, const Matrix& x, const Matrix& y) {
                    tensor::HadamardInto(o, x, y); }), "HadamardInto");
    ExpectBitwise([&] {
      Matrix out(rows, n);
      tensor::ScaleInto(&out, a, -1.75f);
      return out;
    }, "ScaleInto");
    ExpectBitwise([&] {
      Matrix out(rows, n);
      tensor::AddScalarInto(&out, a, 0.333f);
      return out;
    }, "AddScalarInto");
    // In-place compound operators route through the same primitives.
    ExpectBitwise([&] { Matrix c = a; c += b; return c; }, "operator+=");
    ExpectBitwise([&] { Matrix c = a; c -= b; return c; }, "operator-=");
    ExpectBitwise([&] { Matrix c = a; c *= 0.77f; return c; }, "operator*=");
  }
}

TEST_F(KernelParityTest, BroadcastAndSegmentBitwise) {
  Rng rng(47);
  for (size_t cols : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                      size_t{33}}) {
    const size_t rows = 13;
    Matrix a = ProbeMatrix(rows, cols, &rng, /*specials=*/false);
    Matrix row = Matrix::Randn(1, cols, &rng);
    Matrix col = Matrix::Randn(rows, 1, &rng);
    ExpectBitwise([&] {
      Matrix out(rows, cols);
      tensor::AddRowBroadcastInto(&out, a, row);
      return out;
    }, "AddRowBroadcastInto");
    ExpectBitwise([&] {
      Matrix out(rows, cols);
      tensor::MulRowBroadcastInto(&out, a, row);
      return out;
    }, "MulRowBroadcastInto");
    ExpectBitwise([&] {
      Matrix out(rows, cols);
      tensor::MulColBroadcastInto(&out, a, col);
      return out;
    }, "MulColBroadcastInto");
    // SegmentSum adds whole rows in ascending row order — elementwise adds,
    // so the AVX2 path must stay bitwise. Interleaved segment ids exercise
    // repeated accumulation into the same output row.
    std::vector<int> segments(rows);
    for (size_t r = 0; r < rows; ++r) segments[r] = static_cast<int>(r % 4);
    ExpectBitwise([&] {
      Matrix out(4, cols);
      tensor::SegmentSumInto(&out, a, segments, 4);
      return out;
    }, "SegmentSumInto");
  }
}

// ---------------------------------------------------------------------------
// FMA tier: reductions and matmuls, tolerance vs scalar
// ---------------------------------------------------------------------------

TEST_F(KernelParityTest, MatMulTolerance) {
  Rng rng(53);
  const struct { size_t m, k, n; } shapes[] = {
      {1, 1, 1},   {3, 5, 7},    {7, 9, 8},  {8, 8, 8},   {17, 33, 9},
      {64, 31, 100}, {2, 257, 3}, {70, 40, 1}, {19, 1, 37}, {73, 30, 32},
  };
  for (const auto& s : shapes) {
    Matrix a = Matrix::Randn(s.m, s.k, &rng);
    Matrix b = Matrix::Randn(s.k, s.n, &rng);
    Matrix bt = b.Transposed();
    ExpectClose([&] { return tensor::MatMul(a, b); }, 1e-4f, "MatMul NN");
    ExpectClose([&] { return tensor::MatMul(a, bt, false, true); }, 1e-4f,
                "MatMul NT");
    // Scalar runs a^T * b through a materialized transpose; AVX2 reads a^T
    // in place.
    Matrix at = a.Transposed();
    ExpectClose([&] { return tensor::MatMul(at, b, true, false); }, 1e-4f,
                "MatMul TN");
  }
}

TEST_F(KernelParityTest, ReductionTolerance) {
  Rng rng(59);
  for (size_t n : kLaneSizes) {
    if (n == 0) continue;
    Matrix a = Matrix::Randn(5, n, &rng);
    Matrix b = Matrix::Randn(5, n, &rng);
    ExpectClose([&] { return Matrix(1, 1, a.Sum()); }, 1e-3f, "Sum");
    ExpectClose([&] { return Matrix(1, 1, a.FrobeniusNorm()); }, 1e-4f,
                "FrobeniusNorm");
    ExpectClose([&] { return tensor::RowSums(a); }, 1e-4f, "RowSums");
    ExpectClose([&] {
      Matrix out(5, 1);
      tensor::RowNormsInto(&out, a, 1e-12f);
      return out;
    }, 1e-4f, "RowNormsInto");
    ExpectClose([&] {
      Matrix out(5, 1);
      tensor::RowwiseDotInto(&out, a, b);
      return out;
    }, 1e-3f, "RowwiseDotInto");
    ExpectClose([&] {
      Matrix out(5, n);
      tensor::RowStandardizeInto(&out, a, 1e-5f);
      return out;
    }, 1e-3f, "RowStandardizeInto");
    ExpectClose([&] {
      Matrix norms(5, 1);
      tensor::RowNormsInto(&norms, a, 1e-12f);
      Matrix out(5, n);
      tensor::DivRowsByNormsInto(&out, a, norms);
      return out;
    }, 1e-4f, "DivRowsByNormsInto");
  }
}

CsrMatrix RandomCsr(size_t rows, size_t cols, double density, Rng* rng) {
  std::vector<Triplet> trips;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng->NextBounded(1000) < static_cast<uint64_t>(density * 1000)) {
        trips.push_back({static_cast<int>(r), static_cast<int>(c),
                         static_cast<float>(rng->NextBounded(200)) / 100.0f -
                             1.0f});
      }
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, trips);
}

TEST_F(KernelParityTest, SparseTolerance) {
  Rng rng(61);
  for (size_t cols : {size_t{1}, size_t{7}, size_t{8}, size_t{17},
                      size_t{64}}) {
    CsrMatrix sp = RandomCsr(23, 19, 0.3, &rng);
    Matrix dense = Matrix::Randn(19, cols, &rng);
    Matrix dense_t = Matrix::Randn(23, cols, &rng);
    std::vector<float> x(19);
    for (float& v : x) v = static_cast<float>(rng.NextBounded(100)) / 50.0f;
    ExpectClose([&] { return tensor::SpMM(sp, dense); }, 1e-4f, "SpMM");
    ExpectClose([&] { return tensor::SpMMTransposed(sp, dense_t); }, 1e-4f,
                "SpMMTransposed");
    Differential(
        [&] {
          std::vector<float> y = tensor::SpMV(sp, x);
          Matrix out(1, y.size());
          std::memcpy(out.data(), y.data(), y.size() * sizeof(float));
          return out;
        },
        [&](const Matrix& s, const Matrix& v) {
          EXPECT_TRUE(s.AllClose(v, 1e-4f)) << "SpMV";
        });
  }
}

// ---------------------------------------------------------------------------
// Thread invariance: both ISAs must be bitwise-stable in the thread count
// ---------------------------------------------------------------------------

/// A MatMul form and shape for the thread sweep: op(a) is m x k, op(b) is
/// k x n, about one entry of a in eight is zero.
struct MatMulCase {
  const char* name;
  size_t m, k, n;
  bool transpose_a, transpose_b;
  Matrix a, b;
};

std::vector<MatMulCase> ThreadSweepMatMuls(Rng* rng) {
  // The m > 64 transpose_a cases split across chunks of the fixed a^T
  // grain, and their last chunk is a partial register slice.
  std::vector<MatMulCase> cases = {
      {"NN", 33, 17, 29, false, false, {}, {}},
      {"NN n=1", 133, 70, 1, false, false, {}, {}},
      {"NN n=32", 70, 19, 32, false, false, {}, {}},
      {"NT", 133, 19, 29, false, true, {}, {}},
      {"NT k=1", 133, 1, 37, false, true, {}, {}},
      {"TN n=1", 150, 200, 1, true, false, {}, {}},
      {"TN n=24", 150, 33, 24, true, false, {}, {}},
      {"TN n=7", 130, 40, 7, true, false, {}, {}},
  };
  for (MatMulCase& c : cases) {
    c.a = c.transpose_a ? Matrix::Randn(c.k, c.m, rng)
                        : Matrix::Randn(c.m, c.k, rng);
    c.b = c.transpose_b ? Matrix::Randn(c.n, c.k, rng)
                        : Matrix::Randn(c.k, c.n, rng);
    for (size_t i = 0; i < c.a.size(); i += 8) c.a.data()[i] = 0.0f;
  }
  return cases;
}

TEST_F(KernelParityTest, ThreadCountInvariance) {
  Rng rng(67);
  Matrix a = Matrix::Randn(33, 17, &rng);
  std::vector<MatMulCase> matmuls = ThreadSweepMatMuls(&rng);
  CsrMatrix sp = RandomCsr(33, 33, 0.25, &rng);
  Matrix dense = Matrix::Randn(33, 17, &rng);
  IsaGuard isa_guard;
  ThreadGuard thread_guard;
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    SetKernelIsa(isa);
    std::vector<Matrix> mm_ref(matmuls.size());
    Matrix spmm_ref, spmmt_ref;
    float sum_ref = 0.0f;
    for (int threads : {1, 2, 8}) {
      SetNumThreads(threads);
      std::vector<Matrix> mm;
      for (const MatMulCase& c : matmuls) {
        mm.push_back(tensor::MatMul(c.a, c.b, c.transpose_a, c.transpose_b));
      }
      Matrix spmm = tensor::SpMM(sp, dense);
      // SpMMTransposed switches between scatter and gather forms on the
      // thread count; under both ISAs the two forms must agree bitwise.
      Matrix spmmt = tensor::SpMMTransposed(sp, dense);
      float sum = a.Sum();
      if (threads == 1) {
        mm_ref = mm;
        spmm_ref = spmm;
        spmmt_ref = spmmt;
        sum_ref = sum;
      } else {
        for (size_t i = 0; i < matmuls.size(); ++i) {
          EXPECT_TRUE(BitEqual(mm_ref[i], mm[i]))
              << KernelIsaName(isa) << " MatMul " << matmuls[i].name
              << " drifted at threads=" << threads;
        }
        EXPECT_TRUE(BitEqual(spmm_ref, spmm))
            << KernelIsaName(isa) << " SpMM drifted at threads=" << threads;
        EXPECT_TRUE(BitEqual(spmmt_ref, spmmt))
            << KernelIsaName(isa) << " SpMMTransposed drifted at threads="
            << threads;
        EXPECT_EQ(sum_ref, sum)
            << KernelIsaName(isa) << " Sum drifted at threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 GEMM kernels: every shape-specific kernel computes the one
// per-element definition of its form (tensor/simd.h), bit for bit
// ---------------------------------------------------------------------------

/// True when both are NaN or both have the same bits.
bool SameFloat(float x, float y) {
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return std::memcmp(&x, &y, sizeof(float)) == 0;
}

/// Randn scaled by 2^e, e uniform in [-24, 24], so terms of very different
/// size meet in every sum; about one entry in six is +-0.
Matrix WideRangeMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m = Matrix::Randn(rows, cols, rng);
  for (size_t i = 0; i < m.size(); ++i) {
    const int e = static_cast<int>(rng->NextBounded(49)) - 24;
    m.data()[i] = std::ldexp(m.data()[i], e);
    if (rng->NextBounded(6) == 0) m.data()[i] = i % 2 == 0 ? 0.0f : -0.0f;
  }
  return m;
}

TEST_F(KernelParityTest, GemmKernelsMatchTheirPerElementDefinition) {
  IsaGuard guard;
  SetKernelIsa(KernelIsa::kAvx2);
  Rng rng(79);
  // NT has no zero skip, so its columns across from a special are NaN;
  // every fourth column stays finite.
  const float kSpecials[] = {std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN(),
                             -std::numeric_limits<float>::infinity(), 1.5f};
  for (size_t m : {1, 5, 9, 70}) {
    for (size_t k : {0, 1, 3, 8, 13, 70}) {
      for (size_t n : {0, 1, 3, 8, 16, 24, 40, 64, 67}) {
        // op(a) is m x k and op(b) is k x n. For k >= 3 the last p is zero
        // in every row of op(a) and op(b) holds inf/NaN there.
        Matrix a = WideRangeMatrix(m, k, &rng);
        Matrix b = WideRangeMatrix(k, n, &rng);
        if (k >= 3) {
          for (size_t i = 0; i < m; ++i) a.At(i, k - 1) = 0.0f;
          for (size_t j = 0; j < n; ++j) b.At(k - 1, j) = kSpecials[j % 4];
        }
        if (k >= 4) {
          // Row 0's products are 1, 1, 2^60, -2^60 at p = 0..3 and zero
          // after: DotF64's four lanes take one each, and only HSum's
          // ((l0 + l1) + l2) + l3 order absorbs the 1s into 2^60 before it
          // cancels.
          const float a_probe[] = {1.0f, 1.0f, 0x1p30f, 0x1p30f};
          const float b_probe[] = {1.0f, 1.0f, 0x1p30f, -0x1p30f};
          for (size_t p = 0; p < k; ++p) {
            a.At(0, p) = p < 4 ? a_probe[p] : 0.0f;
            if (p >= 4) continue;
            for (size_t j = 0; j < n; ++j) b.At(p, j) = b_probe[p];
          }
        }
        if (k == 1 && n > 0) {
          // A product below float's range: DotF64 rounds the exact double
          // product, so it is -0, not the +0 of a rounded float product
          // plus +0.
          a.At(0, 0) = -0x1p-80f;
          b.At(0, 0) = 0x1p-80f;
        }
        const Matrix at = a.Transposed();
        const Matrix bt = b.Transposed();
        const Matrix nn = tensor::MatMul(a, b);
        const Matrix tn = tensor::MatMul(at, b, true, false);
        const Matrix nt = tensor::MatMul(a, bt, false, true);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            // NN and TN: +0, then an FMA per nonzero a(i, p), p ascending.
            float chain = 0.0f;
            for (size_t p = 0; p < k; ++p) {
              if (a.At(i, p) != 0.0f) {
                chain = std::fma(a.At(i, p), b.At(p, j), chain);
              }
            }
            // NT: DotF64 of row i of a and row j of b^T.
            const float dot = static_cast<float>(
                tensor::simd::DotF64(a.RowPtr(i), bt.RowPtr(j), k));
            const std::string where = "m=" + std::to_string(m) +
                                      " k=" + std::to_string(k) +
                                      " n=" + std::to_string(n) + " at (" +
                                      std::to_string(i) + ", " +
                                      std::to_string(j) + ")";
            EXPECT_TRUE(SameFloat(nn.At(i, j), chain)) << "NN " << where;
            EXPECT_TRUE(SameFloat(tn.At(i, j), chain)) << "TN " << where;
            EXPECT_TRUE(SameFloat(nt.At(i, j), dot)) << "NT " << where;
          }
        }
      }
    }
  }
}

TEST_F(KernelParityTest, GemmBandsWriteOnlyTheirRows) {
  IsaGuard guard;
  SetKernelIsa(KernelIsa::kAvx2);
  Rng rng(83);
  const float kSentinel = -12345.0f;
  // Bands that start and end off the 8-row lanes, including the partial
  // register slices of the TN n = 1 kernel.
  const size_t m = 80;
  for (size_t k : {1, 9, 70}) {
    for (size_t n : {1, 7, 8, 16, 64}) {
      for (size_t r0 : {0, 3}) {
        for (size_t rows : {1, 5, 8, 13, 64, 66}) {
          const size_t r1 = std::min(m, r0 + rows);
          Matrix a = Matrix::Randn(m, k, &rng);    // NN, NT
          Matrix at = Matrix::Randn(k, m, &rng);   // TN
          Matrix b = Matrix::Randn(k, n, &rng);    // NN, TN
          Matrix bt = Matrix::Randn(n, k, &rng);   // NT
          for (int form = 0; form < 3; ++form) {
            // 16 floats of slack past the last row catch a full-width
            // store where a masked one belongs.
            std::vector<float> out(m * n + 16, kSentinel);
            for (size_t i = r0 * n; i < r1 * n; ++i) out[i] = 0.0f;
            if (form == 0) {
              tensor::simd::MatMulBandNN(a.data(), b.data(), out.data(), r0,
                                         r1, k, n, 64);
            } else if (form == 1) {
              tensor::simd::MatMulBandNT(a.data(), bt.data(), out.data(),
                                         r0, r1, k, n);
            } else {
              tensor::simd::MatMulBandTN(at.data(), b.data(), out.data(), r0,
                                         r1, k, m, n, 64);
            }
            for (size_t i = 0; i < out.size(); ++i) {
              if (i >= r0 * n && i < r1 * n) continue;
              ASSERT_EQ(out[i], kSentinel)
                  << "form " << form << " k=" << k << " n=" << n
                  << " band [" << r0 << ", " << r1 << ") wrote float " << i;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Raw primitives: remainder lanes and unaligned views
// ---------------------------------------------------------------------------

TEST_F(KernelParityTest, RawPrimitivesUnalignedAndRemainder) {
  IsaGuard guard;
  SetKernelIsa(KernelIsa::kAvx2);
  Rng rng(71);
  for (size_t n : kLaneSizes) {
    // Offset every view by one float so nothing is 32-byte aligned: the
    // kernels use unaligned loads and must not care.
    std::vector<float> abuf(n + 1), bbuf(n + 1), obuf(n + 1), rbuf(n + 1);
    for (size_t i = 0; i <= n; ++i) {
      abuf[i] = static_cast<float>(rng.NextBounded(2000)) / 500.0f - 2.0f;
      bbuf[i] = static_cast<float>(rng.NextBounded(2000)) / 500.0f - 2.0f;
    }
    const float* a = abuf.data() + 1;
    const float* b = bbuf.data() + 1;
    float* o = obuf.data() + 1;
    float* r = rbuf.data() + 1;

    tensor::simd::AddF32(o, a, b, n);
    for (size_t i = 0; i < n; ++i) r[i] = a[i] + b[i];
    EXPECT_EQ(0, std::memcmp(o, r, n * sizeof(float))) << "AddF32 n=" << n;

    tensor::simd::MulF32(o, a, b, n);
    for (size_t i = 0; i < n; ++i) r[i] = a[i] * b[i];
    EXPECT_EQ(0, std::memcmp(o, r, n * sizeof(float))) << "MulF32 n=" << n;

    tensor::simd::ScaleF32(o, a, 1.37f, n);
    for (size_t i = 0; i < n; ++i) r[i] = a[i] * 1.37f;
    EXPECT_EQ(0, std::memcmp(o, r, n * sizeof(float))) << "ScaleF32 n=" << n;

    // Reductions: double accumulators, compare to a double reference loop
    // with a tolerance covering the reassociation.
    double dot = tensor::simd::DotF64(a, b, n);
    double sum = tensor::simd::SumF64(a, n);
    double sumsq = tensor::simd::SumSqF64(a, n);
    double dot_ref = 0.0, sum_ref = 0.0, sumsq_ref = 0.0;
    for (size_t i = 0; i < n; ++i) {
      dot_ref += static_cast<double>(a[i]) * static_cast<double>(b[i]);
      sum_ref += a[i];
      sumsq_ref += static_cast<double>(a[i]) * static_cast<double>(a[i]);
    }
    const double tol = 1e-9 * (1.0 + static_cast<double>(n));
    EXPECT_NEAR(dot, dot_ref, tol) << "DotF64 n=" << n;
    EXPECT_NEAR(sum, sum_ref, tol) << "SumF64 n=" << n;
    EXPECT_NEAR(sumsq, sumsq_ref, tol) << "SumSqF64 n=" << n;
    double mean = n == 0 ? 0.0 : sum_ref / static_cast<double>(n);
    double ssd = tensor::simd::SumSqDiffF64(a, mean, n);
    double ssd_ref = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double d = static_cast<double>(a[i]) - mean;
      ssd_ref += d * d;
    }
    EXPECT_NEAR(ssd, ssd_ref, tol) << "SumSqDiffF64 n=" << n;

    // Axpy accumulates in place: o += 0.6 * b, fused — tolerance compare.
    std::memcpy(o, a, n * sizeof(float));
    tensor::simd::AxpyF32(o, b, 0.6f, n);
    for (size_t i = 0; i < n; ++i) r[i] = a[i] + 0.6f * b[i];
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(o[i], r[i], 1e-5f) << "AxpyF32 n=" << n << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace ahntp
