#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "tensor/gemm_detail.h"
#include "util/multiversion.h"

// The exact kernels below must produce the reference kernels' bits on
// every ISA, so this TU is built with -ffp-contract=off
// (src/CMakeLists.txt): the x86-64-v3 instantiation of the register tile
// multiplies and adds in two roundings, exactly like the baseline one.
// The fast-tier kernels, which may fuse, live in gemm_fast.cpp.

namespace ncsw::tensor {

namespace {
// Cache-blocking tile sizes chosen for small L1/L2; correctness does not
// depend on them.
constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kBlockN = 128;
constexpr std::int64_t kBlockK = 256;

// Register micro-tile: R rows x V*8 columns of C held in NCSW_V8F
// accumulators (4x16 = 8 accumulators for full tiles). Every output
// element still accumulates its k terms in ascending order with the same
// per-term arithmetic as the reference kernel (av = alpha * a[i,kk],
// the term skipped when av is zero, which also leaves a -0 accumulator
// alone), so results are bit-identical: the accumulators are loaded from
// C before the k-slice and stored after it, which is the same value
// chain as accumulating in memory, and a lane of `av * b` is the scalar
// product of that lane. The vector type rather than scalar loops keeps
// the tile in registers at full width (see util/multiversion.h).
//
// The row panel computes the tile rows' av values for the k-slice once
// (`av[kk * R + r]`) together with a per-kk flag for "some row's av is
// zero", so the common all-non-zero step runs without per-row branches.
// b points at the tile's first column, c at its top-left element.
template <int R, int V>
NCSW_FAST_INLINE void tile(std::int64_t kn, const float* av,
                           const bool* any_zero, const float* b,
                           std::int64_t ldb, float* c,
                           std::int64_t ldc) noexcept {
  NCSW_V8F acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = *reinterpret_cast<const NCSW_V8F*>(c + r * ldc + v * 8);
    }
  }
  for (std::int64_t kk = 0; kk < kn; ++kk) {
    const float* brow = b + kk * ldb;
    NCSW_V8F bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = *reinterpret_cast<const NCSW_V8F*>(brow + v * 8);
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
      *reinterpret_cast<NCSW_V8F*>(c + r * ldc + v * 8) = acc[r][v];
    }
  }
}

// Ragged column edge (cols < 8): plain memory accumulation, same term
// order.
template <int R>
NCSW_FAST_INLINE void tile_edge(std::int64_t cols, std::int64_t kn,
                                const float* av, const float* b,
                                std::int64_t ldb, float* c,
                                std::int64_t ldc) noexcept {
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    for (std::int64_t kk = 0; kk < kn; ++kk) {
      const float avr = av[kk * R + r];
      if (avr == 0.0f) continue;
      const float* brow = b + kk * ldb;
      for (std::int64_t j = 0; j < cols; ++j) crow[j] += avr * brow[j];
    }
  }
}

// R rows of C over columns [j0, j1) and the k-slice [k0, k1): 16-wide
// tiles, then one 8-wide tile, then the scalar edge. a points at the
// panel's first row, b at B's first row, c at the panel's first row.
template <int R>
NCSW_FAST_INLINE void row_panel(std::int64_t j0, std::int64_t j1,
                                std::int64_t k0, std::int64_t k1, float alpha,
                                const float* a, std::int64_t lda,
                                const float* b, std::int64_t ldb, float* c,
                                std::int64_t ldc) noexcept {
  const std::int64_t kn = k1 - k0;
  float av[kBlockK * R] = {};
  bool any_zero[kBlockK] = {};
  for (std::int64_t kk = 0; kk < kn; ++kk) {
    bool zero = false;
    for (int r = 0; r < R; ++r) {
      const float x = alpha * a[r * lda + k0 + kk];
      av[kk * R + r] = x;
      zero = zero || x == 0.0f;
    }
    any_zero[kk] = zero;
  }
  const float* bk = b + k0 * ldb;
  std::int64_t j = j0;
  for (; j + 16 <= j1; j += 16) {
    tile<R, 2>(kn, av, any_zero, bk + j, ldb, c + j, ldc);
  }
  if (j + 8 <= j1) {
    tile<R, 1>(kn, av, any_zero, bk + j, ldb, c + j, ldc);
    j += 8;
  }
  if (j < j1) tile_edge<R>(j1 - j, kn, av, bk + j, ldb, c + j, ldc);
}

// C = alpha * A*B + beta * C over strided row-major panels: scale/clear
// C first so the blocked accumulation can always add.
NCSW_FAST_INLINE void gemm_f32_body(std::int64_t m, std::int64_t n,
                                    std::int64_t k, float alpha,
                                    const float* a, std::int64_t lda,
                                    const float* b, std::int64_t ldb,
                                    float beta, float* c,
                                    std::int64_t ldc) noexcept {
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
          row_panel<4>(j0, j1, k0, k1, alpha, a + i * lda, lda, b, ldb,
                       c + i * ldc, ldc);
        }
        for (; i < i1; ++i) {
          row_panel<1>(j0, j1, k0, k1, alpha, a + i * lda, lda, b, ldb,
                       c + i * ldc, ldc);
        }
      }
    }
  }
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
  gemm_f32_body(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

NCSW_TARGET_V3 void gemm_f32_v3(std::int64_t m, std::int64_t n,
                                std::int64_t k, float alpha, const float* a,
                                std::int64_t lda, const float* b,
                                std::int64_t ldb, float beta, float* c,
                                std::int64_t ldc) noexcept {
  gemm_f32_body(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
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
  // x86-64-v4 hosts run the v3 variant too: the tile is 8-lane, so an
  // AVX-512 build of it would issue the same ymm operations.
  if (util::isa_level() != util::IsaLevel::kBase) {
    detail::gemm_f32_v3(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    detail::gemm_f32_base(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  }
}

void gemm_f16(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const ncsw::fp16::half* a, const ncsw::fp16::half* b, float beta,
              ncsw::fp16::half* c, GemmScratch* scratch) noexcept {
  // Expand the half operands to FP32 panels once (exact: half -> float is
  // value-preserving) instead of converting per multiply-accumulate, then
  // accumulate in FP32 and round once per element — the numerically honest
  // model of an FP16 MAC pipeline with a wide accumulator, bit-identical
  // to the pre-PR per-element kernel.
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
  for (std::int64_t i = 0; i < m; ++i) {
    float acc = beta == 0.0f ? 0.0f : beta * y[i];
    const float* arow = a + i * k;
    // Zero terms are skipped, matching the GEMM kernels (so the n = 1
    // fully-connected path is bit-identical to the GEMM it replaced).
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      acc += av * x[kk];
    }
    y[i] = acc;
  }
}

void gemv_f16(std::int64_t m, std::int64_t k, const ncsw::fp16::half* a,
              const ncsw::fp16::half* x, float beta, ncsw::fp16::half* y,
              GemmScratch* scratch) noexcept {
  GemmScratch local;
  GemmScratch& s = scratch ? *scratch : local;
  float* af = panel(s.a, m * k);
  float* xf = panel(s.b, k);
  ncsw::fp16::half_to_float_span(a, af, static_cast<std::size_t>(m * k));
  ncsw::fp16::half_to_float_span(x, xf, static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < m; ++i) {
    float acc =
        beta == 0.0f ? 0.0f : beta * static_cast<float>(y[i]);
    const float* arow = af + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      acc += av * xf[kk];
    }
    y[i] = ncsw::fp16::half(acc);
  }
}

// --- pre-PR reference kernels (kept verbatim) ------------------------------

void gemm_f32_ref(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                  const float* a, const float* b, float beta,
                  float* c) noexcept {
  if (beta == 0.0f) {
    std::fill(c, c + m * n, 0.0f);
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  for (std::int64_t i0 = 0; i0 < m; i0 += kBlockM) {
    const std::int64_t i1 = std::min(i0 + kBlockM, m);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::int64_t k1 = std::min(k0 + kBlockK, k);
      for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
        const std::int64_t j1 = std::min(j0 + kBlockN, n);
        for (std::int64_t i = i0; i < i1; ++i) {
          float* crow = c + i * n;
          const float* arow = a + i * k;
          for (std::int64_t kk = k0; kk < k1; ++kk) {
            const float av = alpha * arow[kk];
            if (av == 0.0f) continue;
            const float* brow = b + kk * n;
            for (std::int64_t j = j0; j < j1; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  }
}

void gemm_f16_ref(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                  const ncsw::fp16::half* a, const ncsw::fp16::half* b,
                  float beta, ncsw::fp16::half* c) noexcept {
  std::vector<float> acc(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < m; ++i) {
    if (beta == 0.0f) {
      std::fill(acc.begin(), acc.end(), 0.0f);
    } else {
      for (std::int64_t j = 0; j < n; ++j) {
        acc[static_cast<std::size_t>(j)] =
            beta * static_cast<float>(c[i * n + j]);
      }
    }
    const ncsw::fp16::half* arow = a + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = alpha * static_cast<float>(arow[kk]);
      if (av == 0.0f) continue;
      const ncsw::fp16::half* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        acc[static_cast<std::size_t>(j)] += av * static_cast<float>(brow[j]);
      }
    }
    for (std::int64_t j = 0; j < n; ++j) {
      c[i * n + j] = ncsw::fp16::half(acc[static_cast<std::size_t>(j)]);
    }
  }
}

}  // namespace ncsw::tensor
