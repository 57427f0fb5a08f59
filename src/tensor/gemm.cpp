#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "tensor/gemm_detail.h"
#include "util/multiversion.h"

// The exact kernels below must produce the oracle kernels' bits
// (tests/oracle/) on every ISA, so this TU is built with -ffp-contract=off
// (src/CMakeLists.txt): the x86-64-v3 and -v4 instantiations of the
// register tile multiply and add in two roundings, exactly like the
// baseline one.
// The fast-tier kernels, which may fuse, live in gemm_fast.cpp.

namespace ncsw::tensor {

namespace {
// Cache-blocking tile sizes chosen for small L1/L2; correctness does not
// depend on them.
constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kBlockN = 128;
constexpr std::int64_t kBlockK = 256;

// Register micro-tile: R rows x V vectors of W lanes of C held in
// accumulators (4 rows x 2 vectors = 8 accumulators for full tiles).
// Every output element still accumulates its k terms in ascending order
// with the same per-term arithmetic as the oracle kernel (av = alpha *
// a[i,kk], the term skipped when av is zero, which also leaves a -0
// accumulator alone), so results are bit-identical at any vector width:
// the accumulators are loaded from C before the k-slice and stored after
// it, which is the same value chain as accumulating in memory, and a lane
// of `av * b` is the scalar product of that lane. The vector type rather
// than scalar loops keeps the tile in registers at full width (see
// util/multiversion.h).
//
// The vector type is declared here from the lane count, 4-byte aligned.
// A vector typedef passed in as a template argument would lose its
// aligned(4) attribute (GCC 12), and the dereferences below would then
// compile to aligned moves that fault on rows that are not
// vector-aligned.
//
// The row panel computes the tile rows' av values for the k-slice once
// (`av[kk * R + r]`) together with a per-kk flag for "some row's av is
// zero", so the common all-non-zero step runs without per-row branches.
// b points at the tile's first column, whose row k0 + kk starts at
// b + rows[k0 + kk]; c points at the tile's top-left element.
template <int W, int R, int V, typename Rows>
NCSW_FAST_INLINE void tile(std::int64_t k0, std::int64_t kn, const float* av,
                           const bool* any_zero, const float* b, Rows rows,
                           float* c, std::int64_t ldc) noexcept {
  typedef float Vec
      __attribute__((vector_size(W * sizeof(float)), aligned(4)));
  Vec acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = *reinterpret_cast<const Vec*>(c + r * ldc + v * W);
    }
  }
  for (std::int64_t kk = 0; kk < kn; ++kk) {
    const float* brow = b + rows[k0 + kk];
    Vec bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = *reinterpret_cast<const Vec*>(brow + v * W);
    }
    const float* avk = av + kk * R;
    if (!any_zero[kk]) {
      for (int r = 0; r < R; ++r) {
        for (int v = 0; v < V; ++v) acc[r][v] += avk[r] * bv[v];
      }
    } else {
      for (int r = 0; r < R; ++r) {
        if (avk[r] == 0.0f) continue;
        for (int v = 0; v < V; ++v) acc[r][v] += avk[r] * bv[v];
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      *reinterpret_cast<Vec*>(c + r * ldc + v * W) = acc[r][v];
    }
  }
}

// Ragged column edge (cols < 8): plain memory accumulation, same term
// order.
template <int R, typename Rows>
NCSW_FAST_INLINE void tile_edge(std::int64_t cols, std::int64_t k0,
                                std::int64_t kn, const float* av,
                                const float* b, Rows rows, float* c,
                                std::int64_t ldc) noexcept {
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    for (std::int64_t kk = 0; kk < kn; ++kk) {
      const float avr = av[kk * R + r];
      if (avr == 0.0f) continue;
      const float* brow = b + rows[k0 + kk];
      for (std::int64_t j = 0; j < cols; ++j) crow[j] += avr * brow[j];
    }
  }
}

// R rows of C over columns [j0, j1) and the k-slice [k0, k1). The v4
// variant (kWide) walks 32-wide tiles of two 16-lane vectors, then one
// 16-wide tile; every variant then takes 16-wide tiles of two 8-lane
// vectors, one 8-wide tile and the scalar edge. a points at the panel's
// first row, b at B's first column (row kk at b + rows[kk]), c at the
// panel's first row.
template <int R, bool kWide, typename Rows>
NCSW_FAST_INLINE void row_panel(std::int64_t j0, std::int64_t j1,
                                std::int64_t k0, std::int64_t k1, float alpha,
                                const float* a, std::int64_t lda,
                                const float* b, Rows rows, float* c,
                                std::int64_t ldc) noexcept {
  const std::int64_t kn = k1 - k0;
  // Entries [0, kn) are written below before any tile reads them, so the
  // 4 KB of stack is not cleared per panel.
  float av[kBlockK * R];
  bool any_zero[kBlockK];
  for (std::int64_t kk = 0; kk < kn; ++kk) {
    bool zero = false;
    for (int r = 0; r < R; ++r) {
      const float x = alpha * a[r * lda + k0 + kk];
      av[kk * R + r] = x;
      zero = zero || x == 0.0f;
    }
    any_zero[kk] = zero;
  }
  std::int64_t j = j0;
  if constexpr (kWide) {
    for (; j + 32 <= j1; j += 32) {
      tile<16, R, 2>(k0, kn, av, any_zero, b + j, rows, c + j, ldc);
    }
    if (j + 16 <= j1) {
      tile<16, R, 1>(k0, kn, av, any_zero, b + j, rows, c + j, ldc);
      j += 16;
    }
  }
  for (; j + 16 <= j1; j += 16) {
    tile<8, R, 2>(k0, kn, av, any_zero, b + j, rows, c + j, ldc);
  }
  if (j + 8 <= j1) {
    tile<8, R, 1>(k0, kn, av, any_zero, b + j, rows, c + j, ldc);
    j += 8;
  }
  if (j < j1) tile_edge<R>(j1 - j, k0, kn, av, b + j, rows, c + j, ldc);
}

// C = alpha * A*B + beta * C over row-major panels: scale/clear C first
// so the blocked accumulation can always add. B's rows are addressed
// through `rows` (gemm_detail.h).
template <bool kWide, typename Rows>
NCSW_FAST_INLINE void gemm_f32_body(std::int64_t m, std::int64_t n,
                                    std::int64_t k, float alpha,
                                    const float* a, std::int64_t lda,
                                    const float* b, Rows rows, float beta,
                                    float* c, std::int64_t ldc) noexcept {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  for (std::int64_t i0 = 0; i0 < m; i0 += kBlockM) {
    const std::int64_t i1 = std::min(i0 + kBlockM, m);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::int64_t k1 = std::min(k0 + kBlockK, k);
      for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
        const std::int64_t j1 = std::min(j0 + kBlockN, n);
        std::int64_t i = i0;
        for (; i + 4 <= i1; i += 4) {
          row_panel<4, kWide>(j0, j1, k0, k1, alpha, a + i * lda, lda, b,
                              rows, c + i * ldc, ldc);
        }
        for (; i < i1; ++i) {
          row_panel<1, kWide>(j0, j1, k0, k1, alpha, a + i * lda, lda, b,
                              rows, c + i * ldc, ldc);
        }
      }
    }
  }
}

// Each ISA variant instantiates the body for both addressing policies;
// `b_rows` null selects the strided one.
template <bool kWide>
NCSW_FAST_INLINE void gemm_f32_rows_body(
    std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
    const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
    const std::int64_t* b_rows, float beta, float* c,
    std::int64_t ldc) noexcept {
  if (b_rows != nullptr) {
    gemm_f32_body<kWide>(m, n, k, alpha, a, lda, b, detail::TableRows{b_rows},
                         beta, c, ldc);
  } else {
    gemm_f32_body<kWide>(m, n, k, alpha, a, lda, b, detail::StridedRows{ldb},
                         beta, c, ldc);
  }
}

NCSW_TARGET_V3 void gemm_f32_rows_v3(
    std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
    const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
    const std::int64_t* b_rows, float beta, float* c,
    std::int64_t ldc) noexcept {
  gemm_f32_rows_body<false>(m, n, k, alpha, a, lda, b, ldb, b_rows, beta, c,
                            ldc);
}

NCSW_TARGET_V4 void gemm_f32_rows_v4(
    std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
    const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
    const std::int64_t* b_rows, float beta, float* c,
    std::int64_t ldc) noexcept {
  gemm_f32_rows_body<true>(m, n, k, alpha, a, lda, b, ldb, b_rows, beta, c,
                           ldc);
}

void gemm_f32_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, std::int64_t lda,
                   const float* b, std::int64_t ldb,
                   const std::int64_t* b_rows, float beta, float* c,
                   std::int64_t ldc) noexcept {
  switch (util::isa_level()) {
    case util::IsaLevel::kV4:
      gemm_f32_rows_v4(m, n, k, alpha, a, lda, b, ldb, b_rows, beta, c, ldc);
      break;
    case util::IsaLevel::kV3:
      gemm_f32_rows_v3(m, n, k, alpha, a, lda, b, ldb, b_rows, beta, c, ldc);
      break;
    case util::IsaLevel::kBase:
      gemm_f32_rows_body<false>(m, n, k, alpha, a, lda, b, ldb, b_rows, beta,
                                c, ldc);
      break;
  }
}

// R rows of y = A * x (+ beta * y). The R add chains are independent,
// so the core overlaps them instead of waiting on one chain per row;
// each row still adds its terms in ascending k with zero terms skipped,
// as the GEMM kernels do, so a row's bits are those of the n = 1 GEMM.
template <int R>
NCSW_FAST_INLINE void gemv_rows(std::int64_t k, const float* a,
                                const float* x, float beta,
                                float* y) noexcept {
  float acc[R];
  for (int r = 0; r < R; ++r) acc[r] = beta == 0.0f ? 0.0f : beta * y[r];
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float xv = x[kk];
    for (int r = 0; r < R; ++r) {
      const float av = a[r * k + kk];
      if (av != 0.0f) acc[r] += av * xv;
    }
  }
  for (int r = 0; r < R; ++r) y[r] = acc[r];
}

NCSW_FAST_INLINE void gemv_body(std::int64_t m, std::int64_t k,
                                const float* a, const float* x, float beta,
                                float* y) noexcept {
  std::int64_t i = 0;
  for (; i + 8 <= m; i += 8) gemv_rows<8>(k, a + i * k, x, beta, y + i);
  for (; i < m; ++i) gemv_rows<1>(k, a + i * k, x, beta, y + i);
}

// Grow-only resize keeping existing contents irrelevant (panels are
// overwritten in full before use).
inline float* panel(std::vector<float>& v, std::int64_t count) {
  const auto need = static_cast<std::size_t>(count);
  if (v.size() < need) v.resize(need);
  return v.data();
}
}  // namespace

namespace detail {

void gemm_f32_base(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, std::int64_t lda,
                   const float* b, std::int64_t ldb, float beta, float* c,
                   std::int64_t ldc) noexcept {
  gemm_f32_rows_body<false>(m, n, k, alpha, a, lda, b, ldb, nullptr, beta, c,
                            ldc);
}

void gemm_f32_v3(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, const float* b,
                 std::int64_t ldb, float beta, float* c,
                 std::int64_t ldc) noexcept {
  gemm_f32_rows_v3(m, n, k, alpha, a, lda, b, ldb, nullptr, beta, c, ldc);
}

void gemm_f32_v4(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, const float* b,
                 std::int64_t ldb, float beta, float* c,
                 std::int64_t ldc) noexcept {
  gemm_f32_rows_v4(m, n, k, alpha, a, lda, b, ldb, nullptr, beta, c, ldc);
}

void gemv_f32_base(std::int64_t m, std::int64_t k, const float* a,
                   const float* x, float beta, float* y) noexcept {
  gemv_body(m, k, a, x, beta, y);
}

NCSW_TARGET_V3 void gemv_f32_v3(std::int64_t m, std::int64_t k,
                                const float* a, const float* x, float beta,
                                float* y) noexcept {
  gemv_body(m, k, a, x, beta, y);
}

NCSW_TARGET_V4 void gemv_f32_v4(std::int64_t m, std::int64_t k,
                                const float* a, const float* x, float beta,
                                float* y) noexcept {
  gemv_body(m, k, a, x, beta, y);
}

}  // namespace detail

void gemm_f32(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c) noexcept {
  gemm_f32(m, n, k, alpha, a, k, b, n, beta, c, n);
}

void gemm_f32(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, std::int64_t lda, const float* b,
              std::int64_t ldb, float beta, float* c,
              std::int64_t ldc) noexcept {
  gemm_f32_rows(m, n, k, alpha, a, lda, b, ldb, nullptr, beta, c, ldc);
}

void gemm_f32(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, std::int64_t lda, const float* b,
              const std::int64_t* b_rows, float beta, float* c,
              std::int64_t ldc) noexcept {
  gemm_f32_rows(m, n, k, alpha, a, lda, b, 0, b_rows, beta, c, ldc);
}

void gemm_f16(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const ncsw::fp16::half* a, const ncsw::fp16::half* b, float beta,
              ncsw::fp16::half* c, GemmScratch* scratch) noexcept {
  // Expand the half operands to FP32 panels once (exact: half -> float is
  // value-preserving) instead of converting per multiply-accumulate, then
  // accumulate in FP32 and round once per element — the numerically honest
  // model of an FP16 MAC pipeline with a wide accumulator, bit-identical
  // to the oracle's per-element kernel.
  GemmScratch local;
  GemmScratch& s = scratch ? *scratch : local;
  float* af = panel(s.a, m * k);
  float* bf = panel(s.b, k * n);
  float* cf = panel(s.c, m * n);
  ncsw::fp16::half_to_float_span(a, af, static_cast<std::size_t>(m * k));
  ncsw::fp16::half_to_float_span(b, bf, static_cast<std::size_t>(k * n));
  if (beta != 0.0f) {
    ncsw::fp16::half_to_float_span(c, cf, static_cast<std::size_t>(m * n));
  }
  gemm_f32(m, n, k, alpha, af, k, bf, n, beta, cf, n);
  ncsw::fp16::float_to_half_span(cf, c, static_cast<std::size_t>(m * n));
}

void gemv_f32(std::int64_t m, std::int64_t k, const float* a, const float* x,
              float beta, float* y) noexcept {
  switch (util::isa_level()) {
    case util::IsaLevel::kV4:
      detail::gemv_f32_v4(m, k, a, x, beta, y);
      break;
    case util::IsaLevel::kV3:
      detail::gemv_f32_v3(m, k, a, x, beta, y);
      break;
    case util::IsaLevel::kBase:
      detail::gemv_f32_base(m, k, a, x, beta, y);
      break;
  }
}

void gemv_f16(std::int64_t m, std::int64_t k, const ncsw::fp16::half* a,
              const ncsw::fp16::half* x, float beta, ncsw::fp16::half* y,
              GemmScratch* scratch) noexcept {
  GemmScratch local;
  GemmScratch& s = scratch ? *scratch : local;
  float* af = panel(s.a, m * k);
  float* xf = panel(s.b, k);
  float* yf = panel(s.c, m);
  ncsw::fp16::half_to_float_span(a, af, static_cast<std::size_t>(m * k));
  ncsw::fp16::half_to_float_span(x, xf, static_cast<std::size_t>(k));
  if (beta != 0.0f) {
    ncsw::fp16::half_to_float_span(y, yf, static_cast<std::size_t>(m));
  }
  gemv_f32(m, k, af, xf, beta, yf);
  ncsw::fp16::float_to_half_span(yf, y, static_cast<std::size_t>(m));
}

}  // namespace ncsw::tensor
