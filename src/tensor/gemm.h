// Small blocked GEMM used by the im2col convolution and fully-connected
// layers. Row-major: C[M x N] = A[M x K] * B[K x N] (+ C when beta = 1).
//
// The FP16 variant stores operands in binary16 but accumulates in FP32,
// which is how the SHAVE VAU executes FP16 dot products (and how every
// practical FP16 GEMM behaves); the result is rounded to FP16 per element.
//
// Implementation notes (docs/performance.md): the FP32 kernel is
// cache-blocked with a 4x16 vector register-accumulator micro-tile,
// instantiated at baseline and x86-64-v3 (AVX2) and dispatched at run
// time; its TU is built with FP contraction off, so the AVX2 variant
// never fuses a multiply-add. The FP16 kernel expands the half operands
// to FP32 panels once and reuses the FP32 kernel. Both are bit-identical
// to the pre-PR scalar kernels on every ISA, which are kept as
// gemm_*_ref for A/B benching and the golden tests: every output element
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

/// FP16 GEMV with FP32 accumulation, rounded to FP16 per element —
/// bit-identical to gemm_f16 with n = 1. Pass `scratch` to reuse the
/// FP32 expansion of x across calls.
void gemv_f16(std::int64_t m, std::int64_t k, const ncsw::fp16::half* a,
              const ncsw::fp16::half* x, float beta, ncsw::fp16::half* y,
              GemmScratch* scratch = nullptr) noexcept;

// --- FP32 fast-tier GEMM --------------------------------------------------

/// Fast-tier FP32 GEMM: C = A*B over strided row-major panels
/// (lda >= k, ldb/ldc >= n; C is overwritten). Unlike gemm_f32 this
/// kernel is NOT bit-identical to the reference path: it drops the
/// zero-skip branches, permits FMA contraction, and is compiled per ISA
/// level (x86-64-v3/v4 function multiversioning) so the baseline build
/// stays generic. It is still deterministic for a given machine and
/// inputs — every output element accumulates its k terms in ascending
/// order, independent of how callers split C by column range.
void gemm_f32_fast(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, std::int64_t lda, const float* b,
                   std::int64_t ldb, float* c, std::int64_t ldc) noexcept;

// --- int8 fast-tier kernels -----------------------------------------------
// Quantized arithmetic for the opt-in fast host tier (docs/
// performance.md): operands are symmetric int8 (no zero point),
// accumulation is int32 — exact, since |a*b| <= 127^2 and k < 2^24 for
// every layer in the zoo. Callers apply the per-channel scales on the
// way out; the kernels themselves are integer-only.

/// int8 GEMM with int32 accumulation: c[m x n] = a[m x k] * b[k x n].
/// Row-major, dense; c is overwritten.
void gemm_s8(std::int64_t m, std::int64_t n, std::int64_t k,
             const std::int8_t* a, const std::int8_t* b,
             std::int32_t* c) noexcept;

/// int8 GEMV with int32 accumulation: y[m] = a[m x k] * x[k] — identical
/// to gemm_s8 with n = 1.
void gemv_s8(std::int64_t m, std::int64_t k, const std::int8_t* a,
             const std::int8_t* x, std::int32_t* y) noexcept;

// --- pre-PR reference kernels ---------------------------------------------
// The scalar kernels this tree shipped before the blocked/threaded
// rewrite, kept verbatim: the golden tests assert the optimised kernels
// match them byte for byte, and bench/perf_forward measures speedup
// against them as the recorded baseline.

/// Reference (pre-PR) FP32 GEMM; bit-identical to gemm_f32.
void gemm_f32_ref(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                  const float* a, const float* b, float beta,
                  float* c) noexcept;

/// Reference (pre-PR) FP16 GEMM; bit-identical to gemm_f16.
void gemm_f16_ref(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                  const ncsw::fp16::half* a, const ncsw::fp16::half* b,
                  float beta, ncsw::fp16::half* c) noexcept;

}  // namespace ncsw::tensor
