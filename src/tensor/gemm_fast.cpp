// Fast-tier GEMM kernels (tensor/gemm.h): the FP32 fast GEMM and the
// int8 GEMM/GEMV. This TU is the one place in tensor/ built with FP
// contraction allowed (src/tensor/CMakeLists.txt), so the x86-64-v3/v4
// variants of the FP32 tile fuse multiply and add into FMA. The exact
// kernels live in gemm.cpp, built with contraction off.
#include "tensor/gemm.h"

#include <algorithm>

#include "util/multiversion.h"

namespace ncsw::tensor {

namespace {

// Register micro-tile of the fast-tier GEMM: NR rows x 16 columns,
// accumulated over the full k extent in registers and stored once
// (no C round-trips). 6x16 fills the AVX2 register file (12 ymm
// accumulators + broadcast + B row).
//
// Written with NCSW_V8F explicitly rather than scalar loops: GCC 12's
// loop/SLP vectorizer only produces wide code for this kernel when the
// strides are compile-time constants (e.g. in a .constprop clone); the
// general runtime-stride version degrades to spilled 16-byte code,
// ~15x slower. The generic-vector form lowers directly to the widest
// ISA of the enclosing variant with no cost-model involvement, and the
// scalar * vector products broadcast without insert chains.
template <int NR>
NCSW_FAST_INLINE void tile_fast_nx16(std::int64_t k, const float* a,
                                     std::int64_t lda, const float* b,
                                     std::int64_t ldb, float* c,
                                     std::int64_t ldc) noexcept {
  NCSW_V8F acc[NR][2]{};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    const NCSW_V8F b0 = *reinterpret_cast<const NCSW_V8F*>(brow);
    const NCSW_V8F b1 = *reinterpret_cast<const NCSW_V8F*>(brow + 8);
    for (int r = 0; r < NR; ++r) {
      const float av = a[r * lda + kk];
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  for (int r = 0; r < NR; ++r) {
    *reinterpret_cast<NCSW_V8F*>(c + r * ldc) = acc[r][0];
    *reinterpret_cast<NCSW_V8F*>(c + r * ldc + 8) = acc[r][1];
  }
}

// Scalar edge of the fast GEMM (row/column tails); same ascending-k
// accumulation order per element as the tiles.
NCSW_FAST_INLINE void edge_fast(std::int64_t rows, std::int64_t cols,
                                std::int64_t k, const float* a,
                                std::int64_t lda, const float* b,
                                std::int64_t ldb, float* c,
                                std::int64_t ldc) noexcept {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* arow = a + r * lda;
    for (std::int64_t j = 0; j < cols; ++j) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[kk * ldb + j];
      c[r * ldc + j] = acc;
    }
  }
}

NCSW_FAST_INLINE void gemm_f32_fast_body(std::int64_t m, std::int64_t n,
                                         std::int64_t k, const float* a,
                                         std::int64_t lda, const float* b,
                                         std::int64_t ldb, float* c,
                                         std::int64_t ldc) noexcept {
  std::int64_t i = 0;
  for (; i + 6 <= m; i += 6) {
    std::int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      tile_fast_nx16<6>(k, a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc);
    }
    if (j < n) edge_fast(6, n - j, k, a + i * lda, lda, b + j, ldb,
                         c + i * ldc + j, ldc);
  }
  if (i < m) {
    std::int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      switch (m - i) {
        case 1:
          tile_fast_nx16<1>(k, a + i * lda, lda, b + j, ldb, c + i * ldc + j,
                            ldc);
          break;
        case 2:
          tile_fast_nx16<2>(k, a + i * lda, lda, b + j, ldb, c + i * ldc + j,
                            ldc);
          break;
        case 3:
          tile_fast_nx16<3>(k, a + i * lda, lda, b + j, ldb, c + i * ldc + j,
                            ldc);
          break;
        case 4:
          tile_fast_nx16<4>(k, a + i * lda, lda, b + j, ldb, c + i * ldc + j,
                            ldc);
          break;
        default:
          tile_fast_nx16<5>(k, a + i * lda, lda, b + j, ldb, c + i * ldc + j,
                            ldc);
          break;
      }
    }
    if (j < n) edge_fast(m - i, n - j, k, a + i * lda, lda, b + j, ldb,
                         c + i * ldc + j, ldc);
  }
}

NCSW_FAST_INLINE void gemm_s8_body(std::int64_t m, std::int64_t n,
                                   std::int64_t k, const std::int8_t* a,
                                   const std::int8_t* b,
                                   std::int32_t* c) noexcept {
  // i/kk/j order: the inner j loop reads one dense row of B and streams
  // one dense row of C, which vectorises (widen to i16/i32, multiply,
  // add) without any transposition.
  for (std::int64_t i = 0; i < m; ++i) {
    std::int32_t* crow = c + i * n;
    std::fill(crow, crow + n, 0);
    const std::int8_t* arow = a + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int32_t av = arow[kk];
      if (av == 0) continue;
      const std::int8_t* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * static_cast<std::int32_t>(brow[j]);
      }
    }
  }
}

NCSW_FAST_INLINE void gemv_s8_body(std::int64_t m, std::int64_t k,
                                   const std::int8_t* a, const std::int8_t* x,
                                   std::int32_t* y) noexcept {
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    std::int32_t acc = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      acc += static_cast<std::int32_t>(arow[kk]) *
             static_cast<std::int32_t>(x[kk]);
    }
    y[i] = acc;
  }
}

// Per-ISA variants of the fast-tier bodies (util/multiversion.h).
NCSW_TARGET_V3 void gemm_f32_fast_v3(std::int64_t m, std::int64_t n,
                                     std::int64_t k, const float* a,
                                     std::int64_t lda, const float* b,
                                     std::int64_t ldb, float* c,
                                     std::int64_t ldc) noexcept {
  gemm_f32_fast_body(m, n, k, a, lda, b, ldb, c, ldc);
}
NCSW_TARGET_V4 void gemm_f32_fast_v4(std::int64_t m, std::int64_t n,
                                     std::int64_t k, const float* a,
                                     std::int64_t lda, const float* b,
                                     std::int64_t ldb, float* c,
                                     std::int64_t ldc) noexcept {
  gemm_f32_fast_body(m, n, k, a, lda, b, ldb, c, ldc);
}
NCSW_TARGET_V3 void gemm_s8_v3(std::int64_t m, std::int64_t n, std::int64_t k,
                               const std::int8_t* a, const std::int8_t* b,
                               std::int32_t* c) noexcept {
  gemm_s8_body(m, n, k, a, b, c);
}
NCSW_TARGET_V4 void gemm_s8_v4(std::int64_t m, std::int64_t n, std::int64_t k,
                               const std::int8_t* a, const std::int8_t* b,
                               std::int32_t* c) noexcept {
  gemm_s8_body(m, n, k, a, b, c);
}
NCSW_TARGET_V3 void gemv_s8_v3(std::int64_t m, std::int64_t k,
                               const std::int8_t* a, const std::int8_t* x,
                               std::int32_t* y) noexcept {
  gemv_s8_body(m, k, a, x, y);
}
NCSW_TARGET_V4 void gemv_s8_v4(std::int64_t m, std::int64_t k,
                               const std::int8_t* a, const std::int8_t* x,
                               std::int32_t* y) noexcept {
  gemv_s8_body(m, k, a, x, y);
}

}  // namespace

void gemm_f32_fast(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, std::int64_t lda, const float* b,
                   std::int64_t ldb, float* c, std::int64_t ldc) noexcept {
  switch (util::isa_level()) {
    case util::IsaLevel::kV4:
      gemm_f32_fast_v4(m, n, k, a, lda, b, ldb, c, ldc);
      break;
    case util::IsaLevel::kV3:
      gemm_f32_fast_v3(m, n, k, a, lda, b, ldb, c, ldc);
      break;
    default:
      gemm_f32_fast_body(m, n, k, a, lda, b, ldb, c, ldc);
      break;
  }
}

void gemm_s8(std::int64_t m, std::int64_t n, std::int64_t k,
             const std::int8_t* a, const std::int8_t* b,
             std::int32_t* c) noexcept {
  switch (util::isa_level()) {
    case util::IsaLevel::kV4:
      gemm_s8_v4(m, n, k, a, b, c);
      break;
    case util::IsaLevel::kV3:
      gemm_s8_v3(m, n, k, a, b, c);
      break;
    default:
      gemm_s8_body(m, n, k, a, b, c);
      break;
  }
}

void gemv_s8(std::int64_t m, std::int64_t k, const std::int8_t* a,
             const std::int8_t* x, std::int32_t* y) noexcept {
  switch (util::isa_level()) {
    case util::IsaLevel::kV4:
      gemv_s8_v4(m, k, a, x, y);
      break;
    case util::IsaLevel::kV3:
      gemv_s8_v3(m, k, a, x, y);
      break;
    default:
      gemv_s8_body(m, k, a, x, y);
      break;
  }
}


}  // namespace ncsw::tensor
