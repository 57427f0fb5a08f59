// Fast-tier direct 3x3 convolution rows (nn/kernels.cpp conv2d_fast).
// Kept in their own TU because they are the one piece of nn/ built with
// FP contraction allowed (src/nn/CMakeLists.txt): their x86-64-v3/v4
// variants fuse multiply-add, which the exact kernels must never do.
#pragma once

#include <cstdint>

namespace ncsw::nn::kernels::detail {

/// Stride-1 3x3 convolution of four consecutive output channels over the
/// whole output plane: dst[r * oh*ow + oy*ow + ox] for r in [0, 4), with
/// bias and (when fuse_relu) the ReLU clamp applied at store. `wgt`
/// points at the first channel's [channels x 3 x 3] weights.
void direct3x3_rows4(const float* src, std::int64_t channels, std::int64_t h,
                     std::int64_t w, int stride, int pad, std::int64_t oh,
                     std::int64_t ow, const float* wgt, const float* bias,
                     bool fuse_relu, float* dst) noexcept;

/// direct3x3_rows4 for a single output channel.
void direct3x3_rows1(const float* src, std::int64_t channels, std::int64_t h,
                     std::int64_t w, int stride, int pad, std::int64_t oh,
                     std::int64_t ow, const float* wgt, const float* bias,
                     bool fuse_relu, float* dst) noexcept;

}  // namespace ncsw::nn::kernels::detail
