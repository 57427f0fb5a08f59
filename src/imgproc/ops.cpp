#include "imgproc/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/multiversion.h"

namespace ncsw::imgproc {

namespace {

// One output coordinate's two source taps and their weights on one axis.
struct Tap {
  int i0, i1;
  float w, w0;  // w0 = 1 - w
};

// Half-pixel-centre mapping (matches OpenCV INTER_LINEAR), one tap per
// output column or row.
std::vector<Tap> axis_taps(int src_len, int out_len) {
  const float scale = static_cast<float>(src_len) / static_cast<float>(out_len);
  std::vector<Tap> taps(static_cast<std::size_t>(out_len));
  for (int o = 0; o < out_len; ++o) {
    const float f = (static_cast<float>(o) + 0.5f) * scale - 0.5f;
    Tap& t = taps[static_cast<std::size_t>(o)];
    t.i0 = std::clamp(static_cast<int>(std::floor(f)), 0, src_len - 1);
    t.i1 = std::min(t.i0 + 1, src_len - 1);
    t.w = std::clamp(f - static_cast<float>(t.i0), 0.0f, 1.0f);
    t.w0 = 1 - t.w;
  }
  return taps;
}

void check_resize(const Image& src, int out_w, int out_h) {
  if (src.empty()) throw std::invalid_argument("resize_bilinear: empty image");
  if (out_w <= 0 || out_h <= 0) {
    throw std::invalid_argument("resize_bilinear: non-positive output size");
  }
}

// uint8(clamp(v + 0.5f, 0, 255)), with the clamp done on the truncated
// integer: both truncate toward zero, so every h = v + 0.5f in int range
// maps to the same byte (a blend of bytes keeps h within about
// [0.5, 255.5]). The integer form has no branch, so the row loops below
// vectorise; GCC leaves the float clamp's selects unvectorised.
NCSW_FAST_INLINE int quantise(float v) {
  const int q = static_cast<int>(v + 0.5f);
  const int lo = q < 0 ? 0 : q;
  return lo > 255 ? 255 : lo;
}

// One source row's horizontal blend at every output column, [c][x].
NCSW_FAST_INLINE void blend_row(const std::uint8_t* row, const Tap* xs,
                                std::size_t w, float* dst) {
  for (std::size_t x = 0; x < w; ++x) {
    const Tap& tx = xs[x];
    const std::uint8_t* p0 = row + static_cast<std::size_t>(tx.i0) * 3;
    const std::uint8_t* p1 = row + static_cast<std::size_t>(tx.i1) * 3;
    for (std::size_t c = 0; c < 3; ++c) {
      dst[c * w + x] = static_cast<float>(p0[c]) * tx.w0 +
                       static_cast<float>(p1[c]) * tx.w;
    }
  }
}

// A bilinear resize of src (RGB, `stride` bytes a row) to out_w x out_h,
// given both axes' taps and 6 * out_w floats of scratch.
struct BilinearArgs {
  const std::uint8_t* px;
  std::size_t stride;
  const Tap* xs;
  const Tap* ys;
  int out_w, out_h;
  float* rows;
};

// Calls store(x, y, c, q) with every output pixel's quantised channel
// value (0..255), row by row. The horizontal blend of a source row
// (`top` and `bot` below) is computed once and reused by every output
// row it feeds; each value is the same float expression per pixel as a
// one-pixel-at-a-time resize.
template <typename Store>
NCSW_FAST_INLINE void bilinear(const BilinearArgs& a, const Store& store) {
  const auto w = static_cast<std::size_t>(a.out_w);
  float* top = a.rows;
  float* bot = top + 3 * w;
  int top_row = -1, bot_row = -1;
  for (int y = 0; y < a.out_h; ++y) {
    const Tap& ty = a.ys[y];
    if (ty.i0 != top_row) {
      if (ty.i0 == bot_row) {
        std::swap(top, bot);
        std::swap(top_row, bot_row);
      } else {
        blend_row(a.px + static_cast<std::size_t>(ty.i0) * a.stride, a.xs, w,
                  top);
        top_row = ty.i0;
      }
    }
    if (ty.i1 != bot_row) {
      blend_row(a.px + static_cast<std::size_t>(ty.i1) * a.stride, a.xs, w,
                bot);
      bot_row = ty.i1;
    }
    for (int c = 0; c < 3; ++c) {
      const float* t = top + static_cast<std::size_t>(c) * w;
      const float* b = bot + static_cast<std::size_t>(c) * w;
      for (int x = 0; x < a.out_w; ++x) {
        store(x, y, c, quantise(t[x] * ty.w0 + b[x] * ty.w));
      }
    }
  }
}

// The taps and scratch of a resize of src to (out_w, out_h).
struct Resize {
  std::vector<Tap> xs, ys;
  std::vector<float> rows;
  Resize(const Image& src, int out_w, int out_h)
      : xs(axis_taps(src.width(), out_w)),
        ys(axis_taps(src.height(), out_h)),
        rows(6 * static_cast<std::size_t>(out_w)) {}
  BilinearArgs args(const Image& src, int out_w, int out_h) {
    return BilinearArgs{src.pixels().data(),
                        static_cast<std::size_t>(src.width()) * 3,
                        xs.data(),
                        ys.data(),
                        out_w,
                        out_h,
                        rows.data()};
  }
};

// resize_to_tensor_f32's resize, writing q - mean[c] into the CHW tensor.
struct ResizeToTensorArgs {
  BilinearArgs resize;
  float* dst;
  float mean[3];
};

struct ResizeToTensor {
  using Args = ResizeToTensorArgs;
  struct Store {
    float* dst;
    const float* mean;
    std::size_t plane, out_w;
    NCSW_FAST_INLINE void operator()(int x, int y, int c, int q) const {
      dst[static_cast<std::size_t>(c) * plane +
          static_cast<std::size_t>(y) * out_w + static_cast<std::size_t>(x)] =
          static_cast<float>(q) - mean[c];
    }
  };
  NCSW_FAST_INLINE void operator()(const Args& a) const noexcept {
    const auto out_w = static_cast<std::size_t>(a.resize.out_w);
    bilinear(a.resize, Store{a.dst, a.mean,
                             out_w * static_cast<std::size_t>(a.resize.out_h),
                             out_w});
  }
};

}  // namespace

Image resize_bilinear(const Image& src, int out_w, int out_h) {
  check_resize(src, out_w, out_h);
  if (out_w == src.width() && out_h == src.height()) return src;
  Image dst(out_w, out_h);
  Resize r(src, out_w, out_h);
  bilinear(r.args(src, out_w, out_h), [&](int x, int y, int c, int q) {
    dst.at(x, y, c) = static_cast<std::uint8_t>(q);
  });
  return dst;
}

tensor::TensorF resize_to_tensor_f32(const Image& src, int out_w, int out_h,
                                     const ChannelMeans& means) {
  return detail::resize_to_tensor_f32(src, out_w, out_h, means,
                                      util::isa_level());
}

namespace detail {

tensor::TensorF resize_to_tensor_f32(const Image& src, int out_w, int out_h,
                                     const ChannelMeans& means,
                                     util::IsaLevel isa) {
  check_resize(src, out_w, out_h);
  if (out_w == src.width() && out_h == src.height()) {
    return to_tensor_f32(src, means);
  }
  tensor::TensorF t(tensor::Shape{1, 3, out_h, out_w});
  Resize r(src, out_w, out_h);
  util::isa_variant<ResizeToTensor>(isa)(ResizeToTensorArgs{
      r.args(src, out_w, out_h), t.data(), {means.r, means.g, means.b}});
  return t;
}

}  // namespace detail

Image center_crop(const Image& src, int crop_w, int crop_h) {
  if (crop_w <= 0 || crop_h <= 0 || crop_w > src.width() ||
      crop_h > src.height()) {
    throw std::invalid_argument("center_crop: crop does not fit");
  }
  const int x0 = (src.width() - crop_w) / 2;
  const int y0 = (src.height() - crop_h) / 2;
  Image dst(crop_w, crop_h);
  for (int y = 0; y < crop_h; ++y) {
    for (int x = 0; x < crop_w; ++x) {
      for (int c = 0; c < 3; ++c) {
        dst.at(x, y, c) = src.at(x0 + x, y0 + y, c);
      }
    }
  }
  return dst;
}

tensor::TensorF to_tensor_f32(const Image& image, const ChannelMeans& means) {
  if (image.empty()) throw std::invalid_argument("to_tensor_f32: empty image");
  tensor::TensorF t(tensor::Shape{1, 3, image.height(), image.width()});
  const float mean[3] = {means.r, means.g, means.b};
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < image.height(); ++y) {
      for (int x = 0; x < image.width(); ++x) {
        t.at(0, c, y, x) = static_cast<float>(image.at(x, y, c)) - mean[c];
      }
    }
  }
  return t;
}

tensor::TensorH to_tensor_f16(const Image& image, const ChannelMeans& means) {
  return tensor::tensor_cast<ncsw::fp16::half>(to_tensor_f32(image, means));
}

double mean_abs_pixel_diff(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("mean_abs_pixel_diff: size mismatch");
  }
  double sum = 0.0;
  const auto& pa = a.pixels();
  const auto& pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    sum += std::abs(static_cast<double>(pa[i]) - static_cast<double>(pb[i]));
  }
  return pa.empty() ? 0.0 : sum / static_cast<double>(pa.size());
}

}  // namespace ncsw::imgproc
