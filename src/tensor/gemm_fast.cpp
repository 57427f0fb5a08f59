// The fast-tier FP32 GEMM (tensor/gemm.h). This TU is the one place in
// tensor/ built with FP contraction allowed (src/tensor/CMakeLists.txt),
// so the x86-64-v3/v4 variants of the tile fuse multiply and add into
// FMA. The exact kernels live in gemm.cpp, built with contraction off.
#include "tensor/gemm.h"

#include <algorithm>

#include "tensor/gemm_detail.h"
#include "util/multiversion.h"

namespace ncsw::tensor {

namespace {

// Register micro-tile of the fast-tier GEMM: NR rows x 2 vectors of W
// lanes, accumulated over the full k extent in registers and stored
// once (no C round-trips). 6x16 fills the AVX2 register file (12 ymm
// accumulators + broadcast + B row); the x86-64-v4 variant also runs
// 6x32 tiles of zmm vectors. A lane's FMA chain is the same at either
// width, so only the scalar edge rounds differently.
//
// Written with generic vectors rather than scalar loops: GCC 12's
// loop/SLP vectorizer only produces wide code for this kernel when the
// strides are compile-time constants (e.g. in a .constprop clone); the
// general runtime-stride version degrades to spilled 16-byte code,
// ~15x slower. The generic-vector form lowers directly to the widest
// ISA of the enclosing variant with no cost-model involvement, and the
// scalar * vector products broadcast without insert chains. The vector
// type is declared here, 4-byte aligned, not passed in as a template
// argument (util/multiversion.h).
template <int W, int NR, typename Rows>
NCSW_FAST_INLINE void tile_fast(std::int64_t k, const float* a,
                                std::int64_t lda, const float* b, Rows rows,
                                float* c, std::int64_t ldc) noexcept {
  typedef float Vec
      __attribute__((vector_size(W * sizeof(float)), aligned(4)));
  Vec acc[NR][2]{};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + rows[kk];
    const Vec b0 = *reinterpret_cast<const Vec*>(brow);
    const Vec b1 = *reinterpret_cast<const Vec*>(brow + W);
    for (int r = 0; r < NR; ++r) {
      const float av = a[r * lda + kk];
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  for (int r = 0; r < NR; ++r) {
    *reinterpret_cast<Vec*>(c + r * ldc) = acc[r][0];
    *reinterpret_cast<Vec*>(c + r * ldc + W) = acc[r][1];
  }
}

// Scalar edge of the fast GEMM (row/column tails); same ascending-k
// accumulation order per element as the tiles.
template <typename Rows>
NCSW_FAST_INLINE void edge_fast(std::int64_t nr, std::int64_t cols,
                                std::int64_t k, const float* a,
                                std::int64_t lda, const float* b, Rows rows,
                                float* c, std::int64_t ldc) noexcept {
  for (std::int64_t r = 0; r < nr; ++r) {
    const float* arow = a + r * lda;
    for (std::int64_t j = 0; j < cols; ++j) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[rows[kk] + j];
      c[r * ldc + j] = acc;
    }
  }
}

// NR rows of C: 32-wide tiles (kWide), 16-wide tiles, the scalar edge.
// B's row kk starts at b + rows[kk] (tensor/gemm_detail.h).
template <int NR, bool kWide, typename Rows>
NCSW_FAST_INLINE void rows_fast(std::int64_t n, std::int64_t k,
                                const float* a, std::int64_t lda,
                                const float* b, Rows rows, float* c,
                                std::int64_t ldc) noexcept {
  std::int64_t j = 0;
  if constexpr (kWide) {
    for (; j + 32 <= n; j += 32) {
      tile_fast<16, NR>(k, a, lda, b + j, rows, c + j, ldc);
    }
  }
  for (; j + 16 <= n; j += 16) {
    tile_fast<8, NR>(k, a, lda, b + j, rows, c + j, ldc);
  }
  if (j < n) edge_fast(NR, n - j, k, a, lda, b + j, rows, c + j, ldc);
}

template <bool kWide, typename Rows>
NCSW_FAST_INLINE void gemm_f32_fast_panel(std::int64_t m, std::int64_t n,
                                          std::int64_t k, const float* a,
                                          std::int64_t lda, const float* b,
                                          Rows rows, float* c,
                                          std::int64_t ldc) noexcept {
  std::int64_t i = 0;
  for (; i + 6 <= m; i += 6) {
    rows_fast<6, kWide>(n, k, a + i * lda, lda, b, rows, c + i * ldc, ldc);
  }
  a += i * lda;
  c += i * ldc;
  switch (m - i) {
    case 0:
      break;
    case 1:
      rows_fast<1, kWide>(n, k, a, lda, b, rows, c, ldc);
      break;
    case 2:
      rows_fast<2, kWide>(n, k, a, lda, b, rows, c, ldc);
      break;
    case 3:
      rows_fast<3, kWide>(n, k, a, lda, b, rows, c, ldc);
      break;
    case 4:
      rows_fast<4, kWide>(n, k, a, lda, b, rows, c, ldc);
      break;
    default:
      rows_fast<5, kWide>(n, k, a, lda, b, rows, c, ldc);
      break;
  }
}

// Column panels of kFastBlockN: a panel's k rows of B stay in cache
// across every row tile of A instead of streaming the whole of B once
// per 6 rows. A multiple of 32, so every column keeps its tile or edge.
constexpr std::int64_t kFastBlockN = 256;

template <bool kWide, typename Rows>
NCSW_FAST_INLINE void gemm_f32_fast_body(std::int64_t m, std::int64_t n,
                                         std::int64_t k, const float* a,
                                         std::int64_t lda, const float* b,
                                         Rows rows, float* c,
                                         std::int64_t ldc) noexcept {
  for (std::int64_t j0 = 0; j0 < n; j0 += kFastBlockN) {
    gemm_f32_fast_panel<kWide>(m, std::min(kFastBlockN, n - j0), k, a, lda,
                               b + j0, rows, c + j0, ldc);
  }
}

// The body for both addressing policies; `b_rows` null selects the
// strided one.
template <bool kWide>
NCSW_FAST_INLINE void gemm_f32_fast_rows(std::int64_t m, std::int64_t n,
                                         std::int64_t k, const float* a,
                                         std::int64_t lda, const float* b,
                                         std::int64_t ldb,
                                         const std::int64_t* b_rows, float* c,
                                         std::int64_t ldc) noexcept {
  if (b_rows != nullptr) {
    gemm_f32_fast_body<kWide>(m, n, k, a, lda, b, detail::TableRows{b_rows},
                              c, ldc);
  } else {
    gemm_f32_fast_body<kWide>(m, n, k, a, lda, b, detail::StridedRows{ldb}, c,
                              ldc);
  }
}

// Per-ISA variants of the fast-tier bodies (util/multiversion.h).
NCSW_TARGET_V3 void gemm_f32_fast_v3(std::int64_t m, std::int64_t n,
                                     std::int64_t k, const float* a,
                                     std::int64_t lda, const float* b,
                                     std::int64_t ldb,
                                     const std::int64_t* b_rows, float* c,
                                     std::int64_t ldc) noexcept {
  gemm_f32_fast_rows<false>(m, n, k, a, lda, b, ldb, b_rows, c, ldc);
}
NCSW_TARGET_V4 void gemm_f32_fast_v4(std::int64_t m, std::int64_t n,
                                     std::int64_t k, const float* a,
                                     std::int64_t lda, const float* b,
                                     std::int64_t ldb,
                                     const std::int64_t* b_rows, float* c,
                                     std::int64_t ldc) noexcept {
  gemm_f32_fast_rows<true>(m, n, k, a, lda, b, ldb, b_rows, c, ldc);
}

void gemm_f32_fast_dispatch(std::int64_t m, std::int64_t n, std::int64_t k,
                            const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, const std::int64_t* b_rows,
                            float* c, std::int64_t ldc) noexcept {
  switch (util::isa_level()) {
    case util::IsaLevel::kV4:
      gemm_f32_fast_v4(m, n, k, a, lda, b, ldb, b_rows, c, ldc);
      break;
    case util::IsaLevel::kV3:
      gemm_f32_fast_v3(m, n, k, a, lda, b, ldb, b_rows, c, ldc);
      break;
    default:
      gemm_f32_fast_rows<false>(m, n, k, a, lda, b, ldb, b_rows, c, ldc);
      break;
  }
}

}  // namespace

void gemm_f32_fast(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, std::int64_t lda, const float* b,
                   std::int64_t ldb, float* c, std::int64_t ldc) noexcept {
  gemm_f32_fast_dispatch(m, n, k, a, lda, b, ldb, nullptr, c, ldc);
}

void gemm_f32_fast(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, std::int64_t lda, const float* b,
                   const std::int64_t* b_rows, float* c,
                   std::int64_t ldc) noexcept {
  gemm_f32_fast_dispatch(m, n, k, a, lda, b, 0, b_rows, c, ldc);
}

}  // namespace ncsw::tensor
