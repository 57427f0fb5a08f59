// Per-ISA instantiations of the exact FP32 GEMM behind gemm_f32's
// runtime dispatch (tensor/gemm.h). All compile the same body; they are
// exposed so tests can pin each one against the oracle GEMM on any host
// that can run it. Production code calls gemm_f32.
#pragma once

#include <cstdint>

namespace ncsw::tensor::detail {

// How the GEMM bodies (exact and fast) address B: row kk starts at
// b + rows[kk] and holds the columns contiguously. The strided entry
// points are the trivial table; a convolution passes its row table into
// shifted input planes (nn::kernels::ConvOperand). A compile-time
// policy, so each body is one source instantiated twice and the strided
// instantiation keeps plain kk * ld addressing.
struct StridedRows {
  std::int64_t ld;
  std::int64_t operator[](std::int64_t kk) const noexcept { return kk * ld; }
};

struct TableRows {
  const std::int64_t* offsets;
  std::int64_t operator[](std::int64_t kk) const noexcept {
    return offsets[kk];
  }
};

/// The exact GEMM at baseline codegen; same contract as the strided
/// gemm_f32 overload.
void gemm_f32_base(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, std::int64_t lda,
                   const float* b, std::int64_t ldb, float beta, float* c,
                   std::int64_t ldc) noexcept;

/// The exact GEMM compiled for x86-64-v3 (AVX2, contraction off). Call
/// only when util::isa_level() is kV3 or above.
void gemm_f32_v3(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, const float* b,
                 std::int64_t ldb, float beta, float* c,
                 std::int64_t ldc) noexcept;

/// The exact GEMM compiled for x86-64-v4 (AVX-512, contraction off),
/// with 16-lane tiles ahead of the 8-lane ones. Call only when
/// util::isa_level() is kV4.
void gemm_f32_v4(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, const float* b,
                 std::int64_t ldb, float beta, float* c,
                 std::int64_t ldc) noexcept;

}  // namespace ncsw::tensor::detail
