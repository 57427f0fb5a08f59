// Per-ISA instantiations of the exact FP32 GEMM behind gemm_f32's
// runtime dispatch (tensor/gemm.h). Both compile the same body; they are
// exposed so tests can pin each one against gemm_f32_ref on any host
// that can run it. Production code calls gemm_f32.
#pragma once

#include <cstdint>

namespace ncsw::tensor::detail {

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

}  // namespace ncsw::tensor::detail
