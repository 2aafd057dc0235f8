#ifndef AHNTP_TENSOR_SIMD_H_
#define AHNTP_TENSOR_SIMD_H_

#include <cstddef>

#include "common/cpu.h"

namespace ahntp::tensor::simd {

// ---------------------------------------------------------------------------
// AVX2 kernel primitives (tensor/kernels_avx2.cc — the only TU built with
// -mavx2 -mfma). The dispatching kernels in kernels.cc / matrix.cc / csr.cc
// branch on UseAvx2() per call; when it returns false, none of these symbols
// are reachable (builds without AVX2 support compile them as CHECK-failing
// stubs).
//
// Two parity tiers against the scalar oracle (common/cpu.h):
//  * "exact" primitives perform the same per-element float operations as
//    the scalar loops and are bitwise-identical to them;
//  * "fma" primitives fuse multiply-adds and/or reassociate reductions into
//    fixed-width lanes — bitwise-stable for a given input (lane boundaries
//    never depend on the thread count) but only tolerance-equal to scalar.
// tests/kernel_parity_test.cc enforces both tiers.
//
// All functions take raw pointers: this TU must not instantiate inline
// Matrix code with AVX2 codegen that the linker could then pick for
// non-AVX2 TUs.
// ---------------------------------------------------------------------------

/// Dispatch predicate, one relaxed atomic load.
inline bool UseAvx2() {
  return ActiveKernelIsa() == KernelIsa::kAvx2;
}

// --- exact tier -----------------------------------------------------------

void AddF32(float* o, const float* a, const float* b, size_t n);
void SubF32(float* o, const float* a, const float* b, size_t n);
void MulF32(float* o, const float* a, const float* b, size_t n);
void ScaleF32(float* o, const float* a, float s, size_t n);
void AddScalarF32(float* o, const float* a, float s, size_t n);
void ReluF32(float* o, const float* a, size_t n);
void LeakyReluF32(float* o, const float* a, float slope, size_t n);
/// out = min(max(lo, a), hi) with the scalar kernel's NaN/signed-zero
/// behaviour (operand order chosen so NaN propagates like std::min/max).
void ClampF32(float* o, const float* a, float lo, float hi, size_t n);
void AbsF32(float* o, const float* a, size_t n);
/// out = sqrt(max(a, eps)); _mm256_sqrt_ps is IEEE-exact.
void SqrtMaxF32(float* o, const float* a, float eps, size_t n);
/// out = (a - sub) * mul, two separately rounded passes like the scalar
/// RowStandardize normalization loop.
void SubMulF32(float* o, const float* a, float sub, float mul, size_t n);

// --- fma tier -------------------------------------------------------------

/// o[i] = fma(a, x[i], o[i]). Shared by the SpMM gather band and the
/// SpMMTransposed scatter path so the two stay bitwise-identical to each
/// other under AVX2 (their relative parity is a thread-count contract).
void AxpyF32(float* o, const float* x, float a, size_t n);

/// Double-precision reductions over float inputs: 4-wide double FMA lanes,
/// fixed combine order (deterministic for a given input at any thread
/// count).
double DotF64(const float* a, const float* b, size_t n);
double SumF64(const float* a, size_t n);
double SumSqF64(const float* a, size_t n);
/// sum over i of ((double)a[i] - mean)^2.
double SumSqDiffF64(const float* a, double mean, size_t n);

// The three GEMM bands share one per-element definition, whatever kernel
// a shape picks, so the shape-aware kernels below are bitwise-identical to
// each other and to the general band (fma tier against scalar):
//  * NN and TN: out(i, j) starts at +0 and takes fma(av, b(p, j), out(i, j))
//    for p ascending, skipping every av == 0 (so 0 x inf/NaN in b never
//    reaches out);
//  * NT: out(i, j) = (float)DotF64(a row i, b row j, k).
// kernel_parity_test checks each form against this definition and
// kernel_golden_test pins the resulting bits per ISA.

/// Row band [r0, r1) of out = a * b (row-major, a is (m x k), b is (k x n)).
/// n = 1 runs eight rows as the lanes of one vector over 8x8-transposed
/// blocks of a; n in {8, 16, ..., 64} keeps each output row in registers
/// across k; other n run k-blocked like the scalar MatMulRowBandNN with an
/// FMA-vectorized j loop. `out` rows must be zeroed on entry (the general
/// form accumulates).
void MatMulBandNN(const float* a, const float* b, float* out, size_t r0,
                  size_t r1, size_t k, size_t n, size_t kblock);

/// Row band [r0, r1) of out = a * b^T (b is (nb x k)). k = 1 is the outer
/// product, computed as DotF64 does in double (0.0 + exact product, so a
/// -0 product is +0); otherwise tiles of two a rows by four b rows share
/// their converted loads and reduce with DotF64's HSum order and tail.
void MatMulBandNT(const float* a, const float* b, float* out, size_t r0,
                  size_t r1, size_t k, size_t nb);

/// Row band [r0, r1) of out = a^T * b, a (k x m) and b (k x n) read in place
/// (no transpose copy). n = 1 streams a once with up to 64 output rows in
/// registers and masked loads for a partial slice; n in {8, 16, ..., 64}
/// runs register tiles over k-blocks of `kblock` rows; other n accumulate
/// outer products row p by row p. `out` rows must be zeroed on entry.
void MatMulBandTN(const float* a, const float* b, float* out, size_t r0,
                  size_t r1, size_t k, size_t m, size_t n, size_t kblock);

/// Row band of out = A * B for CSR A (gather form), FMA axpy inner loop.
/// `out` rows must be zeroed on entry.
void SpMMRowBand(const int* row_ptr, const int* col_idx, const float* values,
                 const float* b, size_t bcols, float* out, size_t r0,
                 size_t r1);

/// Rows [r0, r1) of y = A * x for CSR A: gathered double-FMA dots.
void SpMVRows(const int* row_ptr, const int* col_idx, const float* values,
              const float* x, float* y, size_t r0, size_t r1);

}  // namespace ahntp::tensor::simd

#endif  // AHNTP_TENSOR_SIMD_H_
