#include "tensor/matrix.h"

#include <cmath>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/parallel.h"
#include "tensor/recycle.h"

namespace ahntp::tensor {
namespace {

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(m.At(r, c), 0.0f);
  }
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.At(2, 1), 6.0f);
}

TEST(MatrixTest, Identity) {
  Matrix i = Matrix::Identity(3);
  EXPECT_EQ(i.At(0, 0), 1.0f);
  EXPECT_EQ(i.At(0, 1), 0.0f);
  EXPECT_EQ(i.Sum(), 3.0f);
}

TEST(MatrixTest, RandnStatistics) {
  Rng rng(1);
  Matrix m = Matrix::Randn(100, 100, &rng, 2.0f, 0.5f);
  EXPECT_NEAR(m.Mean(), 2.0f, 0.02f);
}

TEST(MatrixTest, RandUniformRange) {
  Rng rng(2);
  Matrix m = Matrix::RandUniform(50, 50, &rng, -1.0f, 1.0f);
  EXPECT_LE(m.MaxAbs(), 1.0f);
  EXPECT_NEAR(m.Mean(), 0.0f, 0.05f);
}

TEST(MatrixTest, InPlaceArithmetic) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a += b;
  EXPECT_EQ(a.At(1, 1), 44.0f);
  a -= b;
  EXPECT_EQ(a.At(1, 1), 4.0f);
  a *= 2.0f;
  EXPECT_EQ(a.At(0, 0), 2.0f);
}

TEST(MatrixTest, Reductions) {
  Matrix m = Matrix::FromRows({{1, -2}, {3, -4}});
  EXPECT_EQ(m.Sum(), -2.0f);
  EXPECT_EQ(m.Mean(), -0.5f);
  EXPECT_EQ(m.MaxAbs(), 4.0f);
  EXPECT_NEAR(m.FrobeniusNorm(), std::sqrt(30.0f), 1e-5f);
}

TEST(MatrixTest, Transposed) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.At(2, 1), 6.0f);
  EXPECT_TRUE(t.Transposed().AllClose(m));
}

TEST(MatrixTest, Reshape) {
  Matrix m = Matrix::FromRows({{1, 2, 3, 4}});
  m.Reshape(2, 2);
  EXPECT_EQ(m.At(1, 0), 3.0f);
}

TEST(MatrixTest, AllCloseRespectsTolerance) {
  Matrix a = Matrix::FromRows({{1.0f}});
  Matrix b = Matrix::FromRows({{1.0005f}});
  EXPECT_TRUE(a.AllClose(b, 1e-3f));
  EXPECT_FALSE(a.AllClose(b, 1e-5f));
  EXPECT_FALSE(a.AllClose(Matrix(2, 1)));
}

TEST(MatMulTest, BasicProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_TRUE(c.AllClose(Matrix::FromRows({{19, 22}, {43, 50}})));
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(3);
  Matrix a = Matrix::Randn(4, 4, &rng);
  EXPECT_TRUE(MatMul(a, Matrix::Identity(4)).AllClose(a));
  EXPECT_TRUE(MatMul(Matrix::Identity(4), a).AllClose(a));
}

TEST(MatMulTest, TransposeVariantsAgree) {
  Rng rng(4);
  Matrix a = Matrix::Randn(3, 5, &rng);
  Matrix b = Matrix::Randn(5, 2, &rng);
  Matrix expected = MatMul(a, b);
  EXPECT_TRUE(MatMul(a.Transposed(), b, true, false).AllClose(expected, 1e-4f));
  EXPECT_TRUE(MatMul(a, b.Transposed(), false, true).AllClose(expected, 1e-4f));
  EXPECT_TRUE(MatMul(a.Transposed(), b.Transposed(), true, true)
                  .AllClose(expected, 1e-4f));
}

TEST(MatMulTest, RectangularShapes) {
  Rng rng(5);
  Matrix a = Matrix::Randn(2, 7, &rng);
  Matrix b = Matrix::Randn(7, 3, &rng);
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 3u);
  // Verify one entry by hand.
  double expected = 0.0;
  for (size_t k = 0; k < 7; ++k) expected += a.At(1, k) * b.At(k, 2);
  EXPECT_NEAR(c.At(1, 2), expected, 1e-4);
}

TEST(ElementwiseTest, AddSubHadamardScale) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{3, 4}});
  EXPECT_TRUE(Add(a, b).AllClose(Matrix::FromRows({{4, 6}})));
  EXPECT_TRUE(Sub(a, b).AllClose(Matrix::FromRows({{-2, -2}})));
  EXPECT_TRUE(Hadamard(a, b).AllClose(Matrix::FromRows({{3, 8}})));
  EXPECT_TRUE(Scale(a, -2.0f).AllClose(Matrix::FromRows({{-2, -4}})));
}

TEST(BroadcastTest, AddRowBroadcast) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix row = Matrix::FromRows({{10, 20}});
  EXPECT_TRUE(
      AddRowBroadcast(a, row).AllClose(Matrix::FromRows({{11, 22}, {13, 24}})));
}

TEST(ReductionTest, RowAndColSums) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_TRUE(RowSums(a).AllClose(Matrix::FromRows({{3}, {7}})));
  EXPECT_TRUE(ColSums(a).AllClose(Matrix::FromRows({{4, 6}})));
}

TEST(ReductionTest, ColSumsOfTallMatricesAreBitwiseThreadInvariant) {
  // Tall enough that the per-column cost alone would give one-column
  // bands; 40 columns leave a ragged last band.
  Rng rng(5);
  Matrix a = Matrix::Randn(5000, 40, &rng);
  Matrix expected(1, a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) expected.At(0, c) += a.At(r, c);
  }
  const int saved = NumThreads();
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    Matrix sums = ColSums(a);
    ASSERT_EQ(sums.cols(), a.cols());
    EXPECT_EQ(std::memcmp(sums.data(), expected.data(),
                          a.cols() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
  SetNumThreads(saved);
}

TEST(ReductionTest, RowNorms) {
  Matrix a = Matrix::FromRows({{3, 4}, {0, 0}});
  Matrix norms = RowNorms(a);
  EXPECT_NEAR(norms.At(0, 0), 5.0f, 1e-5f);
  EXPECT_NEAR(norms.At(1, 0), 0.0f, 1e-5f);
}

TEST(ConcatTest, Cols) {
  Matrix a = Matrix::FromRows({{1}, {2}});
  Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  Matrix c = ConcatCols({&a, &b});
  EXPECT_TRUE(c.AllClose(Matrix::FromRows({{1, 3, 4}, {2, 5, 6}})));
}

TEST(ConcatTest, Rows) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  Matrix c = ConcatRows({&a, &b});
  EXPECT_TRUE(c.AllClose(Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}})));
}

TEST(GatherTest, GatherRowsWithRepeats) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix g = GatherRows(a, {2, 0, 2});
  EXPECT_TRUE(g.AllClose(Matrix::FromRows({{5, 6}, {1, 2}, {5, 6}})));
}

TEST(MatrixDeathTest, ShapeMismatchChecks) {
  Matrix a(2, 2), b(3, 2);
  EXPECT_DEATH(Add(a, b), "check failed");
  EXPECT_DEATH(MatMul(a, b), "check failed");
}

// The alias check runs before any form is dispatched: the transpose_a
// forms read a in place, so writing into a (or b) would corrupt the
// operands mid-product.
TEST(MatrixDeathTest, MatMulIntoRejectsAliasedOutputInEveryForm) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  for (bool transpose_a : {false, true}) {
    for (bool transpose_b : {false, true}) {
      EXPECT_DEATH(MatMulInto(&a, a, b, transpose_a, transpose_b),
                   "cannot alias an input");
      EXPECT_DEATH(MatMulInto(&b, a, b, transpose_a, transpose_b),
                   "cannot alias an input");
    }
  }
}

// ---------------------------------------------------------------------------
// RecycleScope: the training-scoped buffer cache behind Matrix storage.
// ---------------------------------------------------------------------------

/// 256 x 64 floats is exactly kRecycleMinBytes.
constexpr size_t kBigRows = 256;
constexpr size_t kBigCols = 64;
static_assert(kBigRows * kBigCols * sizeof(float) == kRecycleMinBytes);

class RecycleScopeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::Enable();
    metrics::Reset();
  }
  void TearDown() override { metrics::Disable(); }

  static int64_t Hits() {
    return metrics::GetCounter("tensor.recycle.hits").Value();
  }
  static int64_t Misses() {
    return metrics::GetCounter("tensor.recycle.misses").Value();
  }
};

TEST_F(RecycleScopeTest, ReusesLargeBuffersOnlyInsideAScope) {
  { Matrix outside(kBigRows, kBigCols); }
  EXPECT_FALSE(RecycleScope::active());
  EXPECT_EQ(Misses(), 0);
  {
    RecycleScope scope;
    EXPECT_TRUE(RecycleScope::active());
    const float* first = nullptr;
    {
      Matrix m(kBigRows, kBigCols, 3.0f);
      first = m.data();
    }
    EXPECT_EQ(Misses(), 1);
    Matrix again(kBigRows, kBigCols);
    EXPECT_EQ(again.data(), first);
    EXPECT_EQ(Hits(), 1);
    // A recycled buffer is initialised like a fresh one.
    EXPECT_EQ(again.Sum(), 0.0f);
    // Another size never takes it, and small buffers are not counted.
    Matrix other(kBigRows + 1, kBigCols);
    Matrix small(kBigRows - 1, kBigCols);
    EXPECT_EQ(Misses(), 2);
    EXPECT_EQ(Hits(), 1);
    {
      RecycleScope nested;  // nesting keeps the cache
    }
    { Matrix dies(std::move(other)); }
    Matrix reused(kBigRows + 1, kBigCols);
    EXPECT_EQ(Hits(), 2);
  }
  EXPECT_FALSE(RecycleScope::active());
  { Matrix after(kBigRows, kBigCols); }
  EXPECT_EQ(Misses(), 2);
  EXPECT_EQ(Hits(), 2);
}

TEST_F(RecycleScopeTest, BufferFreedOutsideAnyScopeIsNeverCached) {
  RecycleScope scope;
  Matrix m(kBigRows, kBigCols);
  EXPECT_EQ(Misses(), 1);
  // Freed on a thread with no open scope: back to the heap, not cached.
  std::thread other([&m] {
    EXPECT_FALSE(RecycleScope::active());
    Matrix dies(std::move(m));
  });
  other.join();
  Matrix next(kBigRows, kBigCols);
  EXPECT_EQ(Misses(), 2);
  EXPECT_EQ(Hits(), 0);
  // The scope's own thread still recycles.
  { Matrix dies(std::move(next)); }
  Matrix reused(kBigRows, kBigCols);
  EXPECT_EQ(Hits(), 1);
}

}  // namespace
}  // namespace ahntp::tensor
