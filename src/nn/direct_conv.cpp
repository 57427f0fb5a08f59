#include "nn/direct_conv.h"

#include <algorithm>

#include "util/multiversion.h"

namespace ncsw::nn::kernels::detail {

namespace {

// Fast-tier direct 3x3 convolution: no im2col patch matrix. The interior
// of each output row is computed in NR x 8 register tiles (NR output
// channels by 8 output columns — the same microkernel shape as the
// blocked GEMM) reading the input planes in place; columns whose taps
// can fall outside the image take a guarded scalar path. Bias and the
// fused ReLU are applied at store, so the direct path writes each output
// element exactly once. Every element is accumulated in the same fixed
// (c, ky, kx) order on both paths, so results do not depend on tile
// boundaries or chunking.
template <int NR>
NCSW_FAST_INLINE void direct3x3_rows_impl(
    const float* src, std::int64_t channels, std::int64_t h, std::int64_t w,
    int stride, int pad, std::int64_t oh, std::int64_t ow, const float* wgt,
    const float* bias, bool fuse_relu, float* dst) noexcept {
  const std::int64_t n_dim = oh * ow;
  // Interior ox range: all three taps ox*stride - pad + {0,1,2} in bounds.
  const std::int64_t x_lo = std::min<std::int64_t>(
      ow, (static_cast<std::int64_t>(pad) + stride - 1) / stride);
  const std::int64_t x_hi = std::max(
      x_lo, std::min<std::int64_t>(
                ow, w - 3 + pad >= 0 ? (w - 3 + pad) / stride + 1 : 0));
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const std::int64_t iy0 = oy * stride - pad;
    float* out_row = dst + oy * ow;
    // Guarded scalar columns: the padded edges and the interior tail
    // that does not fill a tile.
    const auto scalar_cols = [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t ox = c0; ox < c1; ++ox) {
        const std::int64_t base = ox * stride - pad;
        float acc[NR];
        for (int r = 0; r < NR; ++r) acc[r] = bias[r];
        for (std::int64_t c = 0; c < channels; ++c) {
          const float* plane = src + c * h * w;
          for (int ky = 0; ky < 3; ++ky) {
            const std::int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= h) continue;
            const float* srow = plane + iy * w;
            for (int kx = 0; kx < 3; ++kx) {
              const std::int64_t ix = base + kx;
              if (ix < 0 || ix >= w) continue;
              const float v = srow[ix];
              for (int r = 0; r < NR; ++r) {
                acc[r] += wgt[(r * channels + c) * 9 + ky * 3 + kx] * v;
              }
            }
          }
        }
        for (int r = 0; r < NR; ++r) {
          out_row[r * n_dim + ox] =
              fuse_relu && acc[r] < 0.0f ? 0.0f : acc[r];
        }
      }
    };
    scalar_cols(0, x_lo);
    // Interior tiles, NCSW_V8F per 8 output columns (see
    // util/multiversion.h for why the vector type is explicit). The
    // unaligned tap loads srow[kx..kx+7] require stride == 1, which the
    // direct-path heuristic in conv2d_fast guarantees.
    std::int64_t ox0 = x_lo;
    for (; ox0 + 8 <= x_hi; ox0 += 8) {
      NCSW_V8F acc[NR];
      for (int r = 0; r < NR; ++r) acc[r] = bias[r] + NCSW_V8F{};
      const std::int64_t base = ox0 * stride - pad;
      for (std::int64_t c = 0; c < channels; ++c) {
        const float* plane = src + c * h * w;
        for (int ky = 0; ky < 3; ++ky) {
          const std::int64_t iy = iy0 + ky;
          if (iy < 0 || iy >= h) continue;
          const float* srow = plane + iy * w + base;
          for (int kx = 0; kx < 3; ++kx) {
            const NCSW_V8F v = *reinterpret_cast<const NCSW_V8F*>(srow + kx);
            for (int r = 0; r < NR; ++r) {
              acc[r] += wgt[(r * channels + c) * 9 + ky * 3 + kx] * v;
            }
          }
        }
      }
      for (int r = 0; r < NR; ++r) {
        for (int j = 0; j < 8; ++j) {
          const float x = acc[r][j];
          out_row[r * n_dim + ox0 + j] = fuse_relu && x < 0.0f ? 0.0f : x;
        }
      }
    }
    scalar_cols(ox0, ow);
  }
}

// Per-ISA variants and dispatchers (util/multiversion.h); templates
// cannot carry the target attribute, so the two instantiations get plain
// multiversioned wrappers.
NCSW_TARGET_V3 void direct3x3_rows4_v3(
    const float* src, std::int64_t channels, std::int64_t h, std::int64_t w,
    int stride, int pad, std::int64_t oh, std::int64_t ow, const float* wgt,
    const float* bias, bool fuse_relu, float* dst) noexcept {
  direct3x3_rows_impl<4>(src, channels, h, w, stride, pad, oh, ow, wgt, bias,
                         fuse_relu, dst);
}
NCSW_TARGET_V4 void direct3x3_rows4_v4(
    const float* src, std::int64_t channels, std::int64_t h, std::int64_t w,
    int stride, int pad, std::int64_t oh, std::int64_t ow, const float* wgt,
    const float* bias, bool fuse_relu, float* dst) noexcept {
  direct3x3_rows_impl<4>(src, channels, h, w, stride, pad, oh, ow, wgt, bias,
                         fuse_relu, dst);
}
NCSW_TARGET_V3 void direct3x3_rows1_v3(
    const float* src, std::int64_t channels, std::int64_t h, std::int64_t w,
    int stride, int pad, std::int64_t oh, std::int64_t ow, const float* wgt,
    const float* bias, bool fuse_relu, float* dst) noexcept {
  direct3x3_rows_impl<1>(src, channels, h, w, stride, pad, oh, ow, wgt, bias,
                         fuse_relu, dst);
}
NCSW_TARGET_V4 void direct3x3_rows1_v4(
    const float* src, std::int64_t channels, std::int64_t h, std::int64_t w,
    int stride, int pad, std::int64_t oh, std::int64_t ow, const float* wgt,
    const float* bias, bool fuse_relu, float* dst) noexcept {
  direct3x3_rows_impl<1>(src, channels, h, w, stride, pad, oh, ow, wgt, bias,
                         fuse_relu, dst);
}

}  // namespace

void direct3x3_rows4(const float* src, std::int64_t channels, std::int64_t h,
                     std::int64_t w, int stride, int pad, std::int64_t oh,
                     std::int64_t ow, const float* wgt, const float* bias,
                     bool fuse_relu, float* dst) noexcept {
  switch (util::isa_level()) {
    case util::IsaLevel::kV4:
      direct3x3_rows4_v4(src, channels, h, w, stride, pad, oh, ow, wgt, bias,
                         fuse_relu, dst);
      break;
    case util::IsaLevel::kV3:
      direct3x3_rows4_v3(src, channels, h, w, stride, pad, oh, ow, wgt, bias,
                         fuse_relu, dst);
      break;
    default:
      direct3x3_rows_impl<4>(src, channels, h, w, stride, pad, oh, ow, wgt,
                             bias, fuse_relu, dst);
      break;
  }
}

void direct3x3_rows1(const float* src, std::int64_t channels, std::int64_t h,
                     std::int64_t w, int stride, int pad, std::int64_t oh,
                     std::int64_t ow, const float* wgt, const float* bias,
                     bool fuse_relu, float* dst) noexcept {
  switch (util::isa_level()) {
    case util::IsaLevel::kV4:
      direct3x3_rows1_v4(src, channels, h, w, stride, pad, oh, ow, wgt, bias,
                         fuse_relu, dst);
      break;
    case util::IsaLevel::kV3:
      direct3x3_rows1_v3(src, channels, h, w, stride, pad, oh, ow, wgt, bias,
                         fuse_relu, dst);
      break;
    default:
      direct3x3_rows_impl<1>(src, channels, h, w, stride, pad, oh, ow, wgt,
                             bias, fuse_relu, dst);
      break;
  }
}

}  // namespace ncsw::nn::kernels::detail
