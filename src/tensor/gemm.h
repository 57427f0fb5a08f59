// Small blocked GEMM used by the convolution and fully-connected layers.
// Row-major: C[M x N] = A[M x K] * B[K x N] (+ C when beta = 1). B is
// either a dense strided panel or a set of rows read through a row table
// (the convolution's shifted input planes; no column matrix is built).
//
// The FP16 variant stores operands in binary16 but accumulates in FP32,
// which is how the SHAVE VAU executes FP16 dot products (and how every
// practical FP16 GEMM behaves); the result is rounded to FP16 per element.
//
// Implementation notes (docs/performance.md): the FP32 kernel is
// cache-blocked with a 4-row vector register-accumulator micro-tile,
// instantiated at baseline, x86-64-v3 (AVX2, 4x16 tiles of 8-lane
// vectors) and x86-64-v4 (AVX-512, 4x32 tiles of 16-lane vectors first)
// and dispatched at run time; its TU is built with FP contraction off,
// so no variant ever fuses a multiply-add. The FP16 kernel expands the
// half operands to FP32 panels once and reuses the FP32 kernel. Both are
// bit-identical on every ISA to the pre-rewrite scalar kernels, which
// live on as the test-only oracle (tests/oracle/): every output element
// accumulates its k terms in the same ascending order with the same
// per-term arithmetic, so no rounding changes.
#pragma once

#include <cstdint>
#include <vector>

#include "half/half.h"

namespace ncsw::tensor {

/// Reusable FP32 expansion panels for the FP16 GEMM/GEMV (grow-only;
/// callers that loop over layers pass one scratch to stop per-call
/// allocation).
struct GemmScratch {
  std::vector<float> a;  ///< A expanded to FP32
  std::vector<float> b;  ///< B / x expanded to FP32
  std::vector<float> c;  ///< FP32 accumulator image of C before rounding

  /// Bytes currently reserved across the three panels.
  std::size_t capacity_bytes() const noexcept {
    return (a.capacity() + b.capacity() + c.capacity()) * sizeof(float);
  }
};

/// FP32 GEMM: C = alpha * A*B + beta * C. Arrays are row-major and dense.
void gemm_f32(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c) noexcept;

/// Strided FP32 GEMM over row-major panels with explicit leading
/// dimensions (lda >= k, ldb/ldc >= n). Lets callers split C by column
/// range across threads: each thread owns a disjoint [j0, j1) panel of
/// B and C, and per-element results do not depend on the split.
void gemm_f32(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, std::int64_t lda, const float* b,
              std::int64_t ldb, float beta, float* c,
              std::int64_t ldc) noexcept;

/// FP32 GEMM with B read through a row table: row kk of B is the n
/// contiguous floats at b + b_rows[kk]. Per-element arithmetic, term
/// order and zero-skip are those of the strided overload, so C's bits
/// equal a strided GEMM over the gathered rows. Split C by column range
/// by offsetting b (and c) by the first column.
void gemm_f32(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, std::int64_t lda, const float* b,
              const std::int64_t* b_rows, float beta, float* c,
              std::int64_t ldc) noexcept;

/// FP16 GEMM with FP32 accumulation; output rounded to FP16. The half
/// operands are expanded to FP32 scratch panels once (exact) instead of
/// per multiply-accumulate; pass `scratch` to reuse the panels across
/// calls.
void gemm_f16(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const ncsw::fp16::half* a, const ncsw::fp16::half* b, float beta,
              ncsw::fp16::half* c, GemmScratch* scratch = nullptr) noexcept;

/// Matrix-vector product y = A * x (+ y when beta = 1); row-major A[M x K].
void gemv_f32(std::int64_t m, std::int64_t k, const float* a, const float* x,
              float beta, float* y) noexcept;

// --- FP32 fast-tier GEMM --------------------------------------------------

/// Fast-tier FP32 GEMM: C = A*B over strided row-major panels
/// (lda >= k, ldb/ldc >= n; C is overwritten). Unlike gemm_f32 this
/// kernel is NOT bit-identical to the exact tier: it drops the
/// zero-skip branches, permits FMA contraction, and is compiled per ISA
/// level (x86-64-v3/v4 function multiversioning) so the baseline build
/// stays generic. It is still deterministic for a given machine and
/// inputs — every output element accumulates its k terms in ascending
/// order — provided callers split C by column range at multiples of 16:
/// full 16-column tiles and the scalar column edge need not round alike
/// once multiply-adds fuse.
void gemm_f32_fast(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, std::int64_t lda, const float* b,
                   std::int64_t ldb, float* c, std::int64_t ldc) noexcept;

/// The fast-tier GEMM with B read through a row table (row kk at
/// b + b_rows[kk], as in the exact row-table gemm_f32).
void gemm_f32_fast(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, std::int64_t lda, const float* b,
                   const std::int64_t* b_rows, float* c,
                   std::int64_t ldc) noexcept;

}  // namespace ncsw::tensor
