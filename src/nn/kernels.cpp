#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <limits>
#include <stdexcept>
#include <thread>

#include "nn/direct_conv.h"
#include "tensor/gemm.h"
#include "tensor/gemm_detail.h"
#include "util/libm_span.h"
#include "util/multiversion.h"

namespace ncsw::nn::kernels {

namespace {

using ncsw::fp16::half;

// ---------------------------------------------------------------------------
// Slab fan-out. Work is split into a fixed number of contiguous chunks;
// every chunk writes a disjoint output region with the same per-element
// arithmetic as the serial path, so results are bit-identical regardless
// of the chunk count or which pool worker runs which chunk.

int plan_chunks(const ExecCtx& ctx, std::int64_t total) {
  if (!ctx.pool || ctx.threads <= 1 || total <= 1) return 1;
  std::int64_t limit = ctx.threads;
  if (ctx.fast) {
    // Affinity routing addresses chunk t to worker t (submit_to throws
    // past the pool), so the fast tier never plans more chunks than the
    // pinned pool has workers.
    limit = std::min<std::int64_t>(
        limit, static_cast<std::int64_t>(ctx.pool->size()));
  }
  return static_cast<int>(std::min<std::int64_t>(limit, total));
}

template <typename Fn>
void run_chunks(const ExecCtx& ctx, int chunks, std::int64_t total,
                const Fn& fn) {
  if (total <= 0) return;
  if (chunks <= 1) {
    fn(0, 0, total);
    return;
  }
  std::vector<std::future<void>> futs;
  futs.reserve(static_cast<std::size_t>(chunks));
  for (int t = 0; t < chunks; ++t) {
    const std::int64_t begin = total * t / chunks;
    const std::int64_t end = total * (t + 1) / chunks;
    auto task = [&fn, t, begin, end] { fn(t, begin, end); };
    // Fast tier: chunk t always goes to worker t, so a given output
    // slab is produced on the same (pinned) core every layer and every
    // pass, instead of whichever worker dequeues first.
    futs.push_back(ctx.fast
                       ? ctx.pool->submit_to(static_cast<std::size_t>(t), task)
                       : ctx.pool->submit(task));
  }
  // Wait for every chunk before surfacing the first failure, so no task
  // can outlive the captured locals.
  std::exception_ptr err;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
}

template <typename Fn>
void parallel_chunks(const ExecCtx& ctx, std::int64_t total, const Fn& fn) {
  run_chunks(ctx, plan_chunks(ctx, total), total, fn);
}

// ---------------------------------------------------------------------------
// Optimised kernels. The loops of each kernel are multiversioned bodies
// (util/multiversion.h): a kernel picks their variants for its `isa` once
// per call and its chunks call them. Every variant is the same source,
// so each output element keeps its arithmetic and its order.

using util::IsaLevel;
using util::isa_variant;

// One shifted plane (ConvOperand): `rows` rows of `ow` values, row y
// gathering every s-th value of the source row y*s rows down. S and OW
// are the stride and width at compile time (0: at run time), so the
// common rows are a few fixed-width moves instead of a short loop with
// its alias checks each.
template <int S, int OW>
NCSW_FAST_INLINE void gather_plane(const float* __restrict src,
                                   std::int64_t ld, int stride_rt,
                                   std::int64_t ow_rt, std::int64_t rows,
                                   float* __restrict dst) noexcept {
  const int s = S != 0 ? S : stride_rt;
  const std::int64_t ow = OW != 0 ? OW : ow_rt;
  for (std::int64_t y = 0; y < rows; ++y) {
    const float* srow = src + y * s * ld;
    float* drow = dst + y * ow;
    for (std::int64_t ox = 0; ox < ow; ++ox) drow[ox] = srow[ox * s];
  }
}

// Rows of a ConvOperand's planes of stride phase f: rows ky/s ..
// ky/s + oh - 1 for every ky = f (mod s); the last one reads padded row
// s*(oh - 1) + k - 1, inside the padded plane.
std::int64_t shifted_plane_rows(std::int64_t oh, int k, int s,
                                int f) noexcept {
  return oh + (k - 1 - f) / s;
}

// Channels [c0, c1) of a ConvOperand's planes (ConvOperand::build).
struct ConvBuildArgs {
  const float* src;
  float* padded;
  float* planes;
  std::int64_t c0, c1, h, w, oh, ow, plane_len;
  int kernel, stride, pad;
};

// S and OW: the stride and output width at compile time (0: at run
// time); with OW set the input width is S * OW (pick_conv_build checks),
// so the padding copy's rows are fixed-width too.
template <int S, int OW>
struct ConvBuild {
  using Args = ConvBuildArgs;
  NCSW_FAST_INLINE void operator()(const Args& a) const noexcept {
    const int k = a.kernel, s = a.stride, pad = a.pad;
    const std::int64_t w = OW != 0 ? S * OW : a.w;
    const std::int64_t pw = w + 2 * pad;
    for (std::int64_t c = a.c0; c < a.c1; ++c) {
      const float* plane = a.src + c * a.h * w;
      std::int64_t ld = w;
      if (pad > 0) {
        for (std::int64_t y = 0; y < a.h; ++y) {
          const float* srow = plane + y * w;
          float* drow = a.padded + (y + pad) * pw + pad;
          for (std::int64_t x = 0; x < w; ++x) drow[x] = srow[x];
        }
        plane = a.padded;
        ld = pw;
      }
      float* dst = a.planes + c * a.plane_len;
      for (int f = 0; f < std::min(s, k); ++f) {
        const std::int64_t rows = shifted_plane_rows(a.oh, k, s, f);
        for (int kx = 0; kx < k; ++kx) {
          gather_plane<S, OW>(plane + f * ld + kx, ld, s, a.ow, rows, dst);
          dst += rows * a.ow;
        }
      }
    }
  }
};

// Compile-time widths for TinyGoogLeNet's same-size 8x8 and 4x4 maps at
// stride 1. Not for the stem's 32 -> 16 at stride 2: there GCC builds
// each fixed 16-wide strided row from single-float inserts, slower at v3
// and v4 than the run-time loop.
util::IsaFn<ConvBuild<0, 0>> pick_conv_build(int stride, std::int64_t w,
                                             std::int64_t ow,
                                             IsaLevel isa) noexcept {
  if (stride == 1 && ow == 8 && w == 8) {
    return isa_variant<ConvBuild<1, 8>>(isa);
  }
  if (stride == 1 && ow == 4 && w == 4) {
    return isa_variant<ConvBuild<1, 4>>(isa);
  }
  if (stride == 1) return isa_variant<ConvBuild<1, 0>>(isa);
  if (stride == 2) return isa_variant<ConvBuild<2, 0>>(isa);
  return isa_variant<ConvBuild<0, 0>>(isa);
}

// The batch item as FP32: the tensor's own storage for float, a
// workspace expansion (exact) for half.
template <typename T>
const float* batch_as_f32(const Tensor<T>& in, std::int64_t b, Workspace& ws,
                          const ExecCtx& ctx) {
  if constexpr (std::is_same_v<T, float>) {
    (void)ws;
    (void)ctx;
    return in.batch_ptr(b);
  } else {
    const std::int64_t chw = in.shape().chw();
    float* buf = ws.acts(chw);
    const half* src = in.batch_ptr(b);
    parallel_chunks(ctx, chw, [&](int, std::int64_t e0, std::int64_t e1) {
      ncsw::fp16::half_to_float_span(src + e0, buf + e0,
                                     static_cast<std::size_t>(e1 - e0));
    });
    return buf;
  }
}

// Max pool of one FP32 plane, row first: every padded row's horizontal
// window maxima once, then each output row's vertical fold of the rows
// its windows cover. Both folds start at -inf and take
// `m = m < v ? v : m`, std::max's operand order, so every output is the
// first row-major window element holding the maximum, NaNs skipped: the
// scalar window loop's result bit for bit, +-0 ties included. (A
// column-first fold would keep the first tie of the first *column*.)
// Vectorised, the select is MAXPS(v, m), which returns its second
// operand m on a NaN v and on a +-0 tie; MAXPS(m, v) would not.
//
// The plane is copied into `padded` (g.rows x g.row_len, row_len a
// multiple of the stride) whose border the caller filled with -inf:
// -inf never wins a fold, so it stands in for the window clamping, and
// the horizontal pass is one flat loop over every padded row at once
// (`hmax`, g.rows x row_len / stride). K and S are the kernel and stride
// at compile time (0: at run time), so the common 3x3 windows unroll
// into one select chain per element; W and OW, the input and output
// widths, likewise, so each row of TinyGoogLeNet's 8x8 and 4x4 maps is
// one vector of its own width, not the tail of a loop built for 16
// lanes.
struct PoolGeom {
  std::int64_t h, w, oh, ow, rows, row_len;
  int kernel, stride, pad;
};

template <int K, int S, int OW, int W>
NCSW_FAST_INLINE void max_pool_plane(const float* sf, const PoolGeom& g,
                                     float* padded, float* hmax,
                                     float* out) noexcept {
  const int kernel = K != 0 ? K : g.kernel;
  const int stride = S != 0 ? S : g.stride;
  const std::int64_t ow = OW != 0 ? OW : g.ow;
  const std::int64_t w = W != 0 ? W : g.w;
  for (std::int64_t y = 0; y < g.h; ++y) {
    const float* src = sf + y * w;
    float* dst = padded + (y + g.pad) * g.row_len + g.pad;
    for (std::int64_t x = 0; x < w; ++x) dst[x] = src[x];
  }
  const std::int64_t hlen = g.row_len / stride;  // a row of hmax
  const std::int64_t n = (g.rows - 1) * hlen + ow;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* r = padded + i * stride;
    float m = -std::numeric_limits<float>::infinity();
    for (int kx = 0; kx < kernel; ++kx) m = m < r[kx] ? r[kx] : m;
    hmax[i] = m;
  }
  for (std::int64_t oy = 0; oy < g.oh; ++oy) {
    const float* hr = hmax + oy * stride * hlen;
    float* orow = out + oy * ow;
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      float m = -std::numeric_limits<float>::infinity();
      for (int ky = 0; ky < kernel; ++ky) {
        const float v = hr[ky * hlen + ox];
        m = m < v ? v : m;
      }
      orow[ox] = m;
    }
  }
}

// Planes [s0, s1) of a pool: FP32 planes of in_hw values in, of out_hw
// values out.
struct PoolArgs {
  const float* src;
  float* out;
  std::int64_t s0, s1, in_hw, out_hw;
  PoolGeom g;
  float* padded;  // max pool: the chunk's -inf-bordered plane
  float* hmax;    // max pool: its horizontal maxima
};

template <int K, int S, int OW, int W>
struct MaxPoolPlanes {
  using Args = PoolArgs;
  NCSW_FAST_INLINE void operator()(const Args& a) const noexcept {
    for (std::int64_t s = a.s0; s < a.s1; ++s) {
      max_pool_plane<K, S, OW, W>(a.src + s * a.in_hw, a.g, a.padded, a.hmax,
                                  a.out + s * a.out_hw);
    }
  }
};

// TinyGoogLeNet's pools at compile time: the 3x3/s1/p1 inception pools
// on 8x8 and 4x4 maps, pool1 (16x16 -> 8x8) and pool3 (8x8 -> 4x4) at
// stride 2.
util::IsaFn<MaxPoolPlanes<0, 0, 0, 0>> pick_max_pool(const PoolGeom& g,
                                                     IsaLevel isa) noexcept {
  if (g.kernel == 3 && g.stride == 1) {
    if (g.w == 8 && g.ow == 8) {
      return isa_variant<MaxPoolPlanes<3, 1, 8, 8>>(isa);
    }
    if (g.w == 4 && g.ow == 4) {
      return isa_variant<MaxPoolPlanes<3, 1, 4, 4>>(isa);
    }
    return isa_variant<MaxPoolPlanes<3, 1, 0, 0>>(isa);
  }
  if (g.kernel == 3 && g.stride == 2) {
    if (g.w == 16 && g.ow == 8) {
      return isa_variant<MaxPoolPlanes<3, 2, 8, 16>>(isa);
    }
    if (g.w == 8 && g.ow == 4) {
      return isa_variant<MaxPoolPlanes<3, 2, 4, 8>>(isa);
    }
    return isa_variant<MaxPoolPlanes<3, 2, 0, 0>>(isa);
  }
  return isa_variant<MaxPoolPlanes<0, 0, 0, 0>>(isa);
}

// Average pool planes. Each output sums its window in double, rows then
// columns ascending, and divides by the padded window size (Caffe AVE
// pooling counts pad cells); g.kernel 0 is the global pool. The global
// pool sums 8 planes at a time in 8 independent chains, each in its
// plane's own order, instead of waiting on one chain per plane.
struct AvgPoolPlanes {
  using Args = PoolArgs;
  NCSW_FAST_INLINE void operator()(const Args& a) const noexcept {
    const PoolGeom& g = a.g;
    if (g.kernel == 0) {
      const auto divisor = static_cast<double>(a.in_hw);
      std::int64_t s = a.s0;
      for (; s + 8 <= a.s1; s += 8) {
        const float* src = a.src + s * a.in_hw;
        double sum[8] = {};
        for (std::int64_t i = 0; i < a.in_hw; ++i) {
          for (int l = 0; l < 8; ++l) sum[l] += src[l * a.in_hw + i];
        }
        for (int l = 0; l < 8; ++l) {
          a.out[s + l] = static_cast<float>(sum[l] / divisor);
        }
      }
      for (; s < a.s1; ++s) {
        const float* src = a.src + s * a.in_hw;
        double sum = 0.0;
        for (std::int64_t i = 0; i < a.in_hw; ++i) sum += src[i];
        a.out[s] = static_cast<float>(sum / divisor);
      }
      return;
    }
    const std::int64_t stride = g.stride, pad = g.pad, kernel = g.kernel;
    for (std::int64_t s = a.s0; s < a.s1; ++s) {
      const float* sf = a.src + s * a.in_hw;
      float* dst = a.out + s * a.out_hw;
      for (std::int64_t oy = 0; oy < g.oh; ++oy) {
        for (std::int64_t ox = 0; ox < g.ow; ++ox) {
          const std::int64_t py0 = oy * stride - pad;
          const std::int64_t px0 = ox * stride - pad;
          const std::int64_t y0 = std::max<std::int64_t>(py0, 0);
          const std::int64_t x0 = std::max<std::int64_t>(px0, 0);
          const std::int64_t y1 = std::min(py0 + kernel, g.h);
          const std::int64_t x1 = std::min(px0 + kernel, g.w);
          const std::int64_t py1 = std::min(py0 + kernel, g.h + pad);
          const std::int64_t px1 = std::min(px0 + kernel, g.w + pad);
          const auto divisor = static_cast<double>((py1 - py0) * (px1 - px0));
          double sum = 0.0;
          for (std::int64_t y = y0; y < y1; ++y) {
            for (std::int64_t x = x0; x < x1; ++x) sum += sf[y * g.w + x];
          }
          dst[oy * g.ow + ox] = static_cast<float>(sum / divisor);
        }
      }
    }
  }
};

// x[i] = x[i] * x[i] over [e0, e1): LRN's squares.
struct SpanArgs {
  float* x;
  const float* y;
  std::int64_t e0, e1;
};

struct SquareSpan {
  using Args = SpanArgs;
  NCSW_FAST_INLINE void operator()(const Args& a) const noexcept {
    for (std::int64_t i = a.e0; i < a.e1; ++i) a.x[i] = a.y[i] * a.y[i];
  }
};

// x[i] += y[i] over [e0, e1): the FC bias.
struct AddSpan {
  using Args = SpanArgs;
  NCSW_FAST_INLINE void operator()(const Args& a) const noexcept {
    for (std::int64_t i = a.e0; i < a.e1; ++i) a.x[i] += a.y[i];
  }
};

// LRN over channels [c0, c1) of one batch item: each channel's window
// sum of squares (ascending channels from a copy of the first: the
// oracle's per-element window loop, whose 0 + v*v start is v*v exactly;
// a sliding sum would round differently), its scale k + alpha/n * sum,
// then scale^beta and the divide.
struct LrnArgs {
  const float* squares;  // the item's squares, channel c at c * hw
  const float* in;       // the item's FP32 input, likewise
  float* scale;          // (c1 - c0) * hw scratch
  float* res;            // (c1 - c0) * hw results, may alias scale
  std::int64_t c0, c1, channels, hw;
  int half_win;
  float k, alpha_over_n, beta;
  bool fast_beta;
};

struct LrnChannels {
  using Args = LrnArgs;
  NCSW_FAST_INLINE void operator()(const Args& a) const noexcept {
    const std::int64_t hw = a.hw;
    for (std::int64_t c = a.c0; c < a.c1; ++c) {
      const std::int64_t w0 = std::max<std::int64_t>(c - a.half_win, 0);
      const std::int64_t w1 =
          std::min<std::int64_t>(c + a.half_win, a.channels - 1);
      float* sc = a.scale + (c - a.c0) * hw;
      const float* first = a.squares + w0 * hw;
      for (std::int64_t i = 0; i < hw; ++i) sc[i] = first[i];
      for (std::int64_t cc = w0 + 1; cc <= w1; ++cc) {
        const float* sq = a.squares + cc * hw;
        for (std::int64_t i = 0; i < hw; ++i) sc[i] += sq[i];
      }
      for (std::int64_t i = 0; i < hw; ++i) {
        sc[i] = a.k + a.alpha_over_n * sc[i];
      }
    }
    const std::int64_t count = (a.c1 - a.c0) * hw;
    const float* vc = a.in + a.c0 * hw;
    if (a.fast_beta) {
      // Fast tier, beta = 0.75: scale^0.75 = sqrt(scale)*sqrt(sqrt(scale)),
      // two sqrts instead of a powf. Slightly different rounding.
      for (std::int64_t i = 0; i < count; ++i) {
        const float r = std::sqrt(a.scale[i]);
        a.res[i] = vc[i] / (r * std::sqrt(r));
      }
    } else {
      // Exact tier: libm's powf bits in one span (util/libm_span.h).
      util::pow_span(a.scale, a.beta, a.scale,
                     static_cast<std::size_t>(count));
      for (std::int64_t i = 0; i < count; ++i) a.res[i] = vc[i] / a.scale[i];
    }
  }
};

// A conv's FP32 epilogue over output columns [j0, j1) of all m rows of
// the accumulator: the row's bias added in place, clamped by a fused
// ReLU (a select: -0 and NaN pass).
struct BiasReluArgs {
  float* acc;
  const float* bias;
  std::int64_t m, n, j0, j1;
  bool relu;
};

struct BiasRelu {
  using Args = BiasReluArgs;
  NCSW_FAST_INLINE void operator()(const Args& a) const noexcept {
    for (std::int64_t oc = 0; oc < a.m; ++oc) {
      float* row = a.acc + oc * a.n;
      const float bv = a.bias[oc];
      if (a.relu) {
        for (std::int64_t j = a.j0; j < a.j1; ++j) {
          const float v = row[j] + bv;
          row[j] = v < 0.0f ? 0.0f : v;
        }
      } else {
        for (std::int64_t j = a.j0; j < a.j1; ++j) row[j] += bv;
      }
    }
  }
};

}  // namespace

util::ThreadPool& compute_pool() {
  static util::ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

util::ThreadPool& fast_pool() {
  static util::ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()),
      /*pin_workers=*/true);
  return pool;
}

template <typename T>
LayerWeights::LayerWeights(const LayerParams<T>& params)
    : shape_(params.w.shape()) {
  if constexpr (std::is_same_v<T, float>) {
    w_ = params.w.data();
    b_ = params.b.data();
  } else {
    // Exact: every half is a float.
    const auto wn = static_cast<std::size_t>(params.w.numel());
    wide_.resize(wn + static_cast<std::size_t>(params.b.numel()));
    ncsw::fp16::half_to_float_span(params.w.data(), wide_.data(), wn);
    ncsw::fp16::half_to_float_span(params.b.data(), wide_.data() + wn,
                                   wide_.size() - wn);
    w_ = wide_.data();
    b_ = wide_.data() + wn;
  }
}

ConvOperand::ConvOperand(const tensor::Shape& in, const ConvParams& p)
    : in_(tensor::Shape{1, in.c, in.h, in.w}), p_(p) {
  if (p.kernel < 1 || p.stride < 1 || p.pad < 0) {
    throw std::invalid_argument("conv2d: invalid kernel, stride or pad");
  }
  oh_ = conv_extent(in.h, p.kernel, p.stride, p.pad);
  ow_ = conv_extent(in.w, p.kernel, p.stride, p.pad);
  if (oh_ <= 0 || ow_ <= 0) {
    throw std::invalid_argument("conv2d: kernel does not fit");
  }
  const int k = p.kernel, s = p.stride;
  rows_.resize(static_cast<std::size_t>(k_dim()));
  if (k == 1 && s == 1 && p.pad == 0) {
    // Direct: row c is input channel c, already [C x oh*ow].
    for (std::int64_t c = 0; c < in.c; ++c) {
      rows_[static_cast<std::size_t>(c)] = c * in.h * in.w;
    }
    return;
  }
  // Channel layout: phase f outermost, then kx, each plane
  // plane_rows(f) x ow (build() walks the same order).
  std::vector<std::int64_t> phase_off;
  for (int f = 0; f < std::min(s, k); ++f) {
    phase_off.push_back(plane_len_);
    plane_len_ += k * plane_rows(f) * ow_;
  }
  std::size_t r = 0;
  for (std::int64_t c = 0; c < in.c; ++c) {
    for (int ky = 0; ky < k; ++ky) {
      const int f = ky % s;
      for (int kx = 0; kx < k; ++kx) {
        rows_[r++] = c * plane_len_ + phase_off[static_cast<std::size_t>(f)] +
                     (kx * plane_rows(f) + ky / s) * ow_;
      }
    }
  }
}

std::int64_t ConvOperand::plane_rows(int f) const noexcept {
  return shifted_plane_rows(oh_, p_.kernel, p_.stride, f);
}

void ConvOperand::check_input(const tensor::Shape& in) const {
  if (in.c != in_.c || in.h != in_.h || in.w != in_.w) {
    throw std::invalid_argument("conv2d: input " + in.to_string() +
                                " does not match the operand's " +
                                in_.to_string());
  }
}

void ConvOperand::build(const float* src, std::int64_t c0, std::int64_t c1,
                        float* padded, float* planes,
                        util::IsaLevel isa) const noexcept {
  pick_conv_build(p_.stride, in_.w, ow_, isa)(ConvBuildArgs{
      src, padded, planes, c0, c1, in_.h, in_.w, oh_, ow_, plane_len_,
      p_.kernel, p_.stride, p_.pad});
}

namespace {

// The conv's B for batch item b, as an FP32 base its row table indexes:
// the input planes themselves (direct), or the shifted planes, built by
// channel chunk. FP16 widens each chunk's channels as it builds them.
template <typename T>
const float* conv_operand_b(const Tensor<T>& in, std::int64_t b,
                            const ConvOperand& op, Workspace& ws,
                            const ExecCtx& ctx, IsaLevel isa) {
  if (op.direct()) return batch_as_f32(in, b, ws, ctx);
  const tensor::Shape& is = in.shape();
  const int pad = op.params().pad;
  const std::int64_t hw = is.hw();
  const std::int64_t padded_len =
      pad > 0 ? (is.h + 2 * pad) * (is.w + 2 * pad) : 0;
  float* planes = ws.planes(is.c * op.plane_len());
  const int chunks = plan_chunks(ctx, is.c);
  float* padded = ws.slabs(chunks, padded_len);
  float* wide = std::is_same_v<T, float> ? nullptr : ws.acts(is.chw());
  run_chunks(ctx, chunks, is.c, [&](int t, std::int64_t c0, std::int64_t c1) {
    float* scratch = padded + t * padded_len;
    // The +0 border; each channel overwrites only the inside.
    std::fill(scratch, scratch + padded_len, 0.0f);
    const float* src;
    if constexpr (std::is_same_v<T, float>) {
      src = in.batch_ptr(b);
    } else {
      ncsw::fp16::half_to_float_span(in.batch_ptr(b) + c0 * hw,
                                     wide + c0 * hw,
                                     static_cast<std::size_t>((c1 - c0) * hw));
      src = wide;
    }
    op.build(src, c0, c1, scratch, planes, isa);
  });
  return planes;
}

// A conv's epilogue over output columns [j0, j1) of all m channels, in
// one pass. FP32 adds the bias to the accumulator in place and a fused
// ReLU clamps the sum (`bias_relu`, the BiasRelu variant). The exact
// FP16 epilogue rounds, widens, adds the bias and rounds into `out`, its
// ReLU reading the final half (half/half.h); the fast tier's FP16 takes
// the FP32 path and rounds once.
template <typename T>
void conv_epilogue(util::IsaFn<BiasRelu> bias_relu, float* acc, T* out,
                   const float* bias, std::int64_t m, std::int64_t n,
                   std::int64_t j0, std::int64_t j1, bool relu,
                   bool fast) noexcept {
  const auto len = static_cast<std::size_t>(j1 - j0);
  if constexpr (!std::is_same_v<T, float>) {
    if (!fast) {
      for (std::int64_t oc = 0; oc < m; ++oc) {
        ncsw::fp16::round_bias_round_span(acc + oc * n + j0, bias[oc],
                                          out + oc * n + j0, len, relu);
      }
      return;
    }
  }
  bias_relu(BiasReluArgs{acc, bias, m, n, j0, j1, relu});
  if constexpr (!std::is_same_v<T, float>) {
    for (std::int64_t oc = 0; oc < m; ++oc) {
      ncsw::fp16::float_to_half_span(acc + oc * n + j0, out + oc * n + j0,
                                     len);
    }
  } else {
    (void)out;
  }
}

void check_conv_weights(const LayerWeights& weights, const ConvOperand& op,
                        std::int64_t in_c) {
  const ConvParams& p = op.params();
  if (weights.shape() !=
      tensor::Shape{p.out_channels, in_c, p.kernel, p.kernel}) {
    throw std::invalid_argument("conv2d: weight shape mismatch: " +
                                weights.shape().to_string());
  }
}

}  // namespace

namespace detail {

template <typename T>
void conv2d(const Tensor<T>& in, const LayerWeights& weights,
            const ConvOperand& op, bool fuse_relu, Tensor<T>& out,
            const ExecCtx& ctx, IsaLevel isa) {
  const tensor::Shape& is = in.shape();
  op.check_input(is);
  check_conv_weights(weights, op, is.c);
  const std::int64_t m = op.params().out_channels;
  const std::int64_t n_dim = op.out_h() * op.out_w();
  const std::int64_t k_dim = op.k_dim();
  out.resize(tensor::Shape{is.n, m, op.out_h(), op.out_w()});
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const auto bias_relu = isa_variant<BiasRelu>(isa);
  for (std::int64_t b = 0; b < is.n; ++b) {
    const float* bmat = conv_operand_b(in, b, op, ws, ctx, isa);
    T* dst = out.batch_ptr(b);
    float* cf;
    if constexpr (std::is_same_v<T, float>) {
      cf = dst;
    } else {
      cf = ws.out(m * n_dim);
    }
    // out[b] = W[m x k_dim] * B[k_dim x n_dim] and its epilogue, split by
    // column range: each chunk owns a disjoint panel of B and the output.
    parallel_chunks(ctx, n_dim, [&](int, std::int64_t j0, std::int64_t j1) {
      tensor::gemm_f32(m, j1 - j0, k_dim, 1.0f, weights.w(), k_dim, bmat + j0,
                       op.rows(), 0.0f, cf + j0, n_dim);
      conv_epilogue(bias_relu, cf, dst, weights.b(), m, n_dim, j0, j1,
                    fuse_relu, false);
    });
  }
}

template <typename T>
void max_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx, IsaLevel isa) {
  const tensor::Shape& is = in.shape();
  const int kernel =
      p.global ? static_cast<int>(std::max(is.h, is.w)) : p.kernel;
  const int stride = p.global ? 1 : p.stride;
  const int pad = p.global ? 0 : p.pad;
  const std::int64_t oh =
      p.global ? 1 : pooled_extent(is.h, kernel, stride, pad, p.ceil_mode);
  const std::int64_t ow =
      p.global ? 1 : pooled_extent(is.w, kernel, stride, pad, p.ceil_mode);
  out.resize(tensor::Shape{is.n, is.c, oh, ow});

  // Per-chunk scratch: the padded plane and its horizontal maxima.
  PoolGeom g{is.h, is.w, oh, ow, 0, 0, kernel, stride, pad};
  g.rows = std::max<std::int64_t>((oh - 1) * stride + kernel, pad + is.h);
  const std::int64_t width =
      std::max<std::int64_t>((ow - 1) * stride + kernel, pad + is.w);
  g.row_len = (width + stride - 1) / stride * stride;
  const std::int64_t padded_len = g.rows * g.row_len;
  const std::int64_t slab_len = padded_len + padded_len / stride;
  const auto pool_planes = pick_max_pool(g, isa);
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const std::int64_t planes = is.n * is.c;
  const std::int64_t out_hw = oh * ow;
  const int chunks = plan_chunks(ctx, planes);
  float* slab = ws.slabs(chunks, slab_len);
  // FP16 pools FP32 images of the tensors: each chunk widens its planes
  // in one span and rounds its outputs in one span. Every max is a
  // widened half (or -inf), so the rounding is exact.
  constexpr bool is_half = !std::is_same_v<T, float>;
  float* in_f = is_half ? ws.acts(planes * is.hw()) : nullptr;
  float* out_f = is_half ? ws.out(planes * out_hw) : nullptr;
  run_chunks(ctx, chunks, planes, [&](int t, std::int64_t s0, std::int64_t s1) {
    float* padded = slab + t * slab_len;
    float* hmax = padded + padded_len;
    // The -inf border; the planes of this chunk only write the inside.
    std::fill(padded, hmax, -std::numeric_limits<float>::infinity());
    const float* src;
    float* dst;
    if constexpr (is_half) {
      ncsw::fp16::half_to_float_span(
          in.data() + s0 * is.hw(), in_f + s0 * is.hw(),
          static_cast<std::size_t>((s1 - s0) * is.hw()));
      src = in_f;
      dst = out_f;
    } else {
      src = in.data();
      dst = out.data();
    }
    pool_planes(PoolArgs{src, dst, s0, s1, is.hw(), out_hw, g, padded, hmax});
    if constexpr (is_half) {
      ncsw::fp16::float_to_half_span(
          out_f + s0 * out_hw, out.data() + s0 * out_hw,
          static_cast<std::size_t>((s1 - s0) * out_hw));
    }
  });
}

template <typename T>
void avg_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx, IsaLevel isa) {
  const tensor::Shape& is = in.shape();
  const bool global = p.global;
  const int kernel = global ? 0 : p.kernel;
  const int stride = global ? 1 : p.stride;
  const int pad = global ? 0 : p.pad;
  const std::int64_t oh =
      global ? 1 : pooled_extent(is.h, kernel, stride, pad, p.ceil_mode);
  const std::int64_t ow =
      global ? 1 : pooled_extent(is.w, kernel, stride, pad, p.ceil_mode);
  out.resize(tensor::Shape{is.n, is.c, oh, ow});

  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const std::int64_t planes = is.n * is.c;
  const std::int64_t out_hw = oh * ow;
  const PoolGeom g{is.h, is.w, oh, ow, 0, 0, kernel, stride, pad};
  const auto pool_planes = isa_variant<AvgPoolPlanes>(isa);
  // FP16, as in max_pool: each chunk widens its planes in one span and
  // rounds its outputs in one span (the same bits as a scalar
  // half(float) per output: both round to nearest even).
  constexpr bool is_half = !std::is_same_v<T, float>;
  float* in_f = is_half ? ws.acts(planes * is.hw()) : nullptr;
  float* out_f = is_half ? ws.out(planes * out_hw) : nullptr;
  parallel_chunks(ctx, planes, [&](int, std::int64_t s0, std::int64_t s1) {
    if constexpr (is_half) {
      ncsw::fp16::half_to_float_span(
          in.data() + s0 * is.hw(), in_f + s0 * is.hw(),
          static_cast<std::size_t>((s1 - s0) * is.hw()));
      pool_planes(
          PoolArgs{in_f, out_f, s0, s1, is.hw(), out_hw, g, nullptr, nullptr});
      ncsw::fp16::float_to_half_span(
          out_f + s0 * out_hw, out.data() + s0 * out_hw,
          static_cast<std::size_t>((s1 - s0) * out_hw));
    } else {
      pool_planes(PoolArgs{in.data(), out.data(), s0, s1, is.hw(), out_hw, g,
                           nullptr, nullptr});
    }
  });
}

template <typename T>
void lrn(const Tensor<T>& in, const LRNParams& p, Tensor<T>& out,
         const ExecCtx& ctx, IsaLevel isa) {
  const tensor::Shape& is = in.shape();
  out.resize(is);
  const std::int64_t hw = is.hw();

  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const int chunks = plan_chunks(ctx, is.c);
  // Per-task scratch: one plane per channel of the largest chunk, holding
  // the window sums, then the scales, then (exact tier) their powers and
  // the FP32 results.
  const std::int64_t per_task = (is.c + chunks - 1) / chunks * hw;
  float* scratch = ws.slabs(chunks, per_task);
  // Every channel's squares, computed once per batch item instead of
  // once per window that covers the channel.
  float* squares = ws.out(is.chw());
  const auto square = isa_variant<SquareSpan>(isa);
  const auto channels = isa_variant<LrnChannels>(isa);

  for (std::int64_t b = 0; b < is.n; ++b) {
    // The whole batch item as FP32 planes: channel runs are contiguous,
    // so the window sum adds dense planes instead of strided at().
    const float* inf = batch_as_f32(in, b, ws, ctx);
    parallel_chunks(ctx, is.chw(), [&](int, std::int64_t e0, std::int64_t e1) {
      square(SpanArgs{squares, inf, e0, e1});
    });
    run_chunks(
        ctx, chunks, is.c, [&](int t, std::int64_t c0, std::int64_t c1) {
          float* scale = scratch + t * per_task;
          float* res = scale;
          if constexpr (std::is_same_v<T, float>) {
            res = out.data() + (b * is.c + c0) * hw;
          }
          channels(LrnArgs{squares, inf, scale, res, c0, c1, is.c, hw,
                           p.local_size / 2,
                           p.k, p.alpha / static_cast<float>(p.local_size),
                           p.beta, ctx.fast && p.beta == 0.75f});
          if constexpr (!std::is_same_v<T, float>) {
            ncsw::fp16::float_to_half_span(
                res, out.data() + (b * is.c + c0) * hw,
                static_cast<std::size_t>((c1 - c0) * hw));
          }
        });
  }
}

template <typename T>
void fully_connected(const Tensor<T>& in, const LayerWeights& weights,
                     const FCParams& p, Tensor<T>& out, const ExecCtx& ctx,
                     IsaLevel isa) {
  const tensor::Shape& is = in.shape();
  const std::int64_t in_dim = is.chw();
  if (weights.shape() != tensor::Shape{p.out_features, in_dim, 1, 1}) {
    throw std::invalid_argument("fully_connected: weight shape mismatch: " +
                                weights.shape().to_string());
  }
  out.resize(tensor::Shape{is.n, p.out_features, 1, 1});
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const auto gemv = isa == IsaLevel::kV4   ? tensor::detail::gemv_f32_v4
                    : isa == IsaLevel::kV3 ? tensor::detail::gemv_f32_v3
                                           : tensor::detail::gemv_f32_base;
  const auto add_bias = isa_variant<AddSpan>(isa);
  // out[b] = W[outF x in_dim] * in[b]: a GEMV per batch item,
  // bit-identical to the degenerate n = 1 GEMM it replaced.
  const float* bias = weights.b();
  for (std::int64_t b = 0; b < is.n; ++b) {
    T* dst = out.batch_ptr(b);
    if constexpr (std::is_same_v<T, float>) {
      gemv(p.out_features, in_dim, weights.w(), in.batch_ptr(b), 0.0f, dst);
      add_bias(SpanArgs{dst, bias, 0, p.out_features});
    } else {
      // The oracle's order, one span pass each: accumulate the widened
      // activation in FP32, round, widen, add the bias, round again.
      // Serial: an FC input is too short to repay a fan-out.
      float* x = ws.acts(in_dim);
      ncsw::fp16::half_to_float_span(in.batch_ptr(b), x,
                                     static_cast<std::size_t>(in_dim));
      float* y = ws.out(p.out_features);
      gemv(p.out_features, in_dim, weights.w(), x, 0.0f, y);
      const auto len = static_cast<std::size_t>(p.out_features);
      ncsw::fp16::float_to_half_span(y, dst, len);
      ncsw::fp16::half_to_float_span(dst, y, len);
      add_bias(SpanArgs{y, bias, 0, p.out_features});
      ncsw::fp16::float_to_half_span(y, dst, len);
    }
  }
}

}  // namespace detail

template <typename T>
void conv2d(const Tensor<T>& in, const LayerWeights& weights,
            const ConvOperand& op, bool fuse_relu, Tensor<T>& out,
            const ExecCtx& ctx) {
  detail::conv2d(in, weights, op, fuse_relu, out, ctx, util::isa_level());
}

template <typename T>
void conv2d(const Tensor<T>& in, const LayerWeights& weights,
            const ConvParams& p, Tensor<T>& out, const ExecCtx& ctx) {
  conv2d(in, weights, ConvOperand(in.shape(), p), false, out, ctx);
}

template <typename T>
void relu(Tensor<T>& x, const ExecCtx& ctx) {
  const std::int64_t n = x.numel();
  if constexpr (std::is_same_v<T, float>) {
    float* data = x.data();
    parallel_chunks(ctx, n, [&](int, std::int64_t e0, std::int64_t e1) {
      // Unconditional select, not a conditional store: the loop
      // vectorises and never mispredicts. -0 and NaN pass through.
      for (std::int64_t i = e0; i < e1; ++i) {
        data[i] = data[i] < 0.0f ? 0.0f : data[i];
      }
    });
  } else {
    // The bit test of fp16::relu, not a float comparison.
    half* data = x.data();
    parallel_chunks(ctx, n, [&](int, std::int64_t e0, std::int64_t e1) {
      for (std::int64_t i = e0; i < e1; ++i) {
        data[i] = ncsw::fp16::relu(data[i]);
      }
    });
  }
}

template <typename T>
void max_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx) {
  detail::max_pool(in, p, out, ctx, util::isa_level());
}

template <typename T>
void avg_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx) {
  detail::avg_pool(in, p, out, ctx, util::isa_level());
}

template <typename T>
void lrn(const Tensor<T>& in, const LRNParams& p, Tensor<T>& out,
         const ExecCtx& ctx) {
  detail::lrn(in, p, out, ctx, util::isa_level());
}

template <typename T>
void concat(const std::vector<const Tensor<T>*>& ins, Tensor<T>& out) {
  if (ins.empty()) throw std::invalid_argument("concat: no inputs");
  const tensor::Shape& first = ins[0]->shape();
  std::int64_t channels = 0;
  for (const auto* t : ins) {
    const tensor::Shape& s = t->shape();
    if (s.n != first.n || s.h != first.h || s.w != first.w) {
      throw std::invalid_argument("concat: shape mismatch");
    }
    channels += s.c;
  }
  out.resize(tensor::Shape{first.n, channels, first.h, first.w});
  for (std::int64_t b = 0; b < first.n; ++b) {
    std::int64_t c_off = 0;
    for (const auto* t : ins) {
      const tensor::Shape& s = t->shape();
      const T* src = t->batch_ptr(b);
      T* dst = out.batch_ptr(b) + c_off * first.hw();
      std::copy(src, src + s.chw(), dst);
      c_off += s.c;
    }
  }
}

template <typename T>
void fully_connected(const Tensor<T>& in, const LayerWeights& weights,
                     const FCParams& p, Tensor<T>& out, const ExecCtx& ctx) {
  detail::fully_connected(in, weights, p, out, ctx, util::isa_level());
}

template <typename T>
void softmax(const Tensor<T>& in, Tensor<T>& out, const ExecCtx& ctx) {
  const tensor::Shape& is = in.shape();
  out.resize(is);
  const std::int64_t dim = is.chw();
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  float* e = ws.out(dim);
  // FP16 widens each item in one span and rounds its outputs in one
  // span (the bits of the scalar conversions: both are exact or round to
  // nearest even).
  float* x = std::is_same_v<T, float> ? nullptr : ws.acts(dim);
  for (std::int64_t b = 0; b < is.n; ++b) {
    const float* src;
    if constexpr (std::is_same_v<T, float>) {
      src = in.batch_ptr(b);
    } else {
      ncsw::fp16::half_to_float_span(in.batch_ptr(b), x,
                                     static_cast<std::size_t>(dim));
      src = x;
    }
    float max_v = -std::numeric_limits<float>::infinity();
    for (std::int64_t i = 0; i < dim; ++i) max_v = std::max(max_v, src[i]);
    double sum = 0.0;
    for (std::int64_t i = 0; i < dim; ++i) {
      e[i] = std::exp(src[i] - max_v);
      sum += e[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    if constexpr (std::is_same_v<T, float>) {
      float* dst = out.batch_ptr(b);
      for (std::int64_t i = 0; i < dim; ++i) dst[i] = e[i] * inv;
    } else {
      for (std::int64_t i = 0; i < dim; ++i) e[i] *= inv;
      ncsw::fp16::float_to_half_span(e, out.batch_ptr(b),
                                     static_cast<std::size_t>(dim));
    }
  }
}

template <typename T>
void conv2d_fast(const Tensor<T>& in, const LayerWeights& weights,
                 const ConvOperand& op, bool fuse_relu, Tensor<T>& out,
                 const ExecCtx& ctx) {
  const tensor::Shape& is = in.shape();
  op.check_input(is);
  check_conv_weights(weights, op, is.c);
  const ConvParams& p = op.params();
  const std::int64_t oh = op.out_h();
  const std::int64_t ow = op.out_w();
  out.resize(tensor::Shape{is.n, p.out_channels, oh, ow});

  const std::int64_t k_dim = op.k_dim();
  const std::int64_t n_dim = oh * ow;
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const float* wf = weights.w();
  const float* bf = weights.b();
  const IsaLevel isa = util::isa_level();
  const auto bias_relu = isa_variant<BiasRelu>(isa);

  // Direct 3x3 pays off when output rows are wide enough to fill its
  // 8-column register tiles; on narrow maps (the tiny nets' inception
  // towers) the planes are small, stay in cache, and the blocked GEMM
  // wins, so those shapes keep the GEMM path.
  const std::int64_t x_lo_3 = std::min<std::int64_t>(
      ow, (static_cast<std::int64_t>(p.pad) + p.stride - 1) / p.stride);
  const std::int64_t x_hi_3 = std::max(
      x_lo_3,
      std::min<std::int64_t>(
          ow, is.w - 3 + p.pad >= 0 ? (is.w - 3 + p.pad) / p.stride + 1 : 0));
  // stride == 1 keeps the interior tap loads contiguous (the vector
  // kernel loads srow[kx..kx+7] directly); strided 3x3 shapes take the
  // GEMM like everything else.
  const bool direct_3x3 =
      p.kernel == 3 && p.stride == 1 && x_hi_3 - x_lo_3 >= 8;

  for (std::int64_t b = 0; b < is.n; ++b) {
    // FP32 result panel [outC x n_dim]: the output itself for float, a
    // workspace accumulator rounded once per element for half.
    float* cf;
    if constexpr (std::is_same_v<T, float>) {
      cf = out.batch_ptr(b);
    } else {
      cf = ws.out(p.out_channels * n_dim);
    }

    if (direct_3x3) {
      const float* src = batch_as_f32(in, b, ws, ctx);
      // Direct convolution, chunked by 4-channel output blocks. Each
      // output element is accumulated entirely inside one block with a
      // fixed (c, ky, kx) order, so results do not depend on the chunk
      // count. Bias and the fused ReLU are applied at store, so only the
      // FP16 rounding epilogue remains.
      const std::int64_t blocks = (p.out_channels + 3) / 4;
      parallel_chunks(
          ctx, blocks, [&](int, std::int64_t blk0, std::int64_t blk1) {
            for (std::int64_t blk = blk0; blk < blk1; ++blk) {
              const std::int64_t oc0 = blk * 4;
              const std::int64_t nr =
                  std::min<std::int64_t>(4, p.out_channels - oc0);
              float* dst = cf + oc0 * n_dim;
              if (nr == 4) {
                detail::direct3x3_rows4(src, is.c, is.h, is.w, p.stride,
                                        p.pad, oh, ow, wf + oc0 * k_dim,
                                        bf + oc0, fuse_relu, dst);
              } else {
                for (std::int64_t r = 0; r < nr; ++r) {
                  detail::direct3x3_rows1(
                      src, is.c, is.h, is.w, p.stride, p.pad, oh, ow,
                      wf + (oc0 + r) * k_dim, bf + oc0 + r, fuse_relu,
                      dst + r * n_dim);
                }
              }
            }
          });
      if constexpr (!std::is_same_v<T, float>) {
        parallel_chunks(
            ctx, p.out_channels,
            [&](int, std::int64_t oc0, std::int64_t oc1) {
              ncsw::fp16::float_to_half_span(
                  cf + oc0 * n_dim, out.batch_ptr(b) + oc0 * n_dim,
                  static_cast<std::size_t>((oc1 - oc0) * n_dim));
            });
      }
    } else {
      const float* bmat = conv_operand_b(in, b, op, ws, ctx, isa);
      // Column chunks start on 16-column panel boundaries, so a column
      // lands in the same vector tile or scalar edge at any chunk count
      // (the two need not round alike once contraction is on). Each
      // chunk finishes its columns in the fused epilogue: bias and ReLU
      // in FP32, then (FP16 only) one round per element — the conv ->
      // round -> relu -> round round-trip collapses to one write-back.
      parallel_chunks(
          ctx, (n_dim + 15) / 16, [&](int, std::int64_t p0, std::int64_t p1) {
            const std::int64_t j0 = p0 * 16;
            const std::int64_t j1 = std::min(p1 * 16, n_dim);
            tensor::gemm_f32_fast(p.out_channels, j1 - j0, k_dim, wf, k_dim,
                                  bmat + j0, op.rows(), cf + j0, n_dim);
            conv_epilogue(bias_relu, cf, out.batch_ptr(b), bf, p.out_channels,
                          n_dim, j0, j1, fuse_relu, true);
          });
    }
  }
}

template <typename T>
void conv2d_fast(const Tensor<T>& in, const LayerWeights& weights,
                 const ConvParams& p, bool fuse_relu, Tensor<T>& out,
                 const ExecCtx& ctx) {
  conv2d_fast(in, weights, ConvOperand(in.shape(), p), fuse_relu, out, ctx);
}

// Explicit instantiations for the two supported precisions.
#define NCSW_INSTANTIATE_KERNELS(T)                                          \
  template LayerWeights::LayerWeights(const LayerParams<T>&);                \
  template void conv2d<T>(const Tensor<T>&, const LayerWeights&,             \
                          const ConvOperand&, bool, Tensor<T>&,              \
                          const ExecCtx&);                                   \
  template void conv2d<T>(const Tensor<T>&, const LayerWeights&,             \
                          const ConvParams&, Tensor<T>&, const ExecCtx&);    \
  template void relu<T>(Tensor<T>&, const ExecCtx&);                         \
  template void max_pool<T>(const Tensor<T>&, const PoolParams&, Tensor<T>&, \
                            const ExecCtx&);                                 \
  template void avg_pool<T>(const Tensor<T>&, const PoolParams&, Tensor<T>&, \
                            const ExecCtx&);                                 \
  template void lrn<T>(const Tensor<T>&, const LRNParams&, Tensor<T>&,       \
                       const ExecCtx&);                                      \
  template void concat<T>(const std::vector<const Tensor<T>*>&, Tensor<T>&); \
  template void fully_connected<T>(const Tensor<T>&, const LayerWeights&,    \
                                   const FCParams&, Tensor<T>&,              \
                                   const ExecCtx&);                          \
  template void softmax<T>(const Tensor<T>&, Tensor<T>&, const ExecCtx&);    \
  template void conv2d_fast<T>(const Tensor<T>&, const LayerWeights&,        \
                               const ConvOperand&, bool, Tensor<T>&,         \
                               const ExecCtx&);                              \
  template void conv2d_fast<T>(const Tensor<T>&, const LayerWeights&,        \
                               const ConvParams&, bool, Tensor<T>&,          \
                               const ExecCtx&);                              \
  template void detail::conv2d<T>(const Tensor<T>&, const LayerWeights&,     \
                                  const ConvOperand&, bool, Tensor<T>&,      \
                                  const ExecCtx&, IsaLevel);                 \
  template void detail::max_pool<T>(const Tensor<T>&, const PoolParams&,     \
                                    Tensor<T>&, const ExecCtx&, IsaLevel);   \
  template void detail::avg_pool<T>(const Tensor<T>&, const PoolParams&,     \
                                    Tensor<T>&, const ExecCtx&, IsaLevel);   \
  template void detail::lrn<T>(const Tensor<T>&, const LRNParams&,           \
                               Tensor<T>&, const ExecCtx&, IsaLevel);        \
  template void detail::fully_connected<T>(const Tensor<T>&,                 \
                                           const LayerWeights&,              \
                                           const FCParams&, Tensor<T>&,      \
                                           const ExecCtx&, IsaLevel);

NCSW_INSTANTIATE_KERNELS(float)
NCSW_INSTANTIATE_KERNELS(ncsw::fp16::half)

#undef NCSW_INSTANTIATE_KERNELS

}  // namespace ncsw::nn::kernels
