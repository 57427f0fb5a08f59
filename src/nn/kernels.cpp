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
// Optimised kernels.

// im2col over channels [c0, c1) from an FP32 source plane; the column
// matrix layout matches the oracle's im2col exactly. Each channel is
// first copied into `plane`, a (height + 2*pad) x (width + 2*pad)
// scratch whose border the caller zero-filled: that +0.0f border is
// exactly what the oracle's bounds checks write, so every column row is
// a plain copy (contiguous at stride 1). S is the stride at compile time
// (0: at run time), so the stride-2 gather vectorises too.
template <int S>
void im2col_rows(const float* in, std::int64_t c0, std::int64_t c1,
                 std::int64_t height, std::int64_t width, int kernel,
                 int stride_rt, int pad, std::int64_t out_h,
                 std::int64_t out_w, float* plane, float* col) noexcept {
  const int stride = S != 0 ? S : stride_rt;
  const std::int64_t pw = width + 2 * pad;
  for (std::int64_t c = c0; c < c1; ++c) {
    const float* src = in + c * height * width;
    for (std::int64_t y = 0; y < height; ++y) {
      std::copy(src + y * width, src + (y + 1) * width,
                plane + (y + pad) * pw + pad);
    }
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        float* dst = col + ((c * kernel + ky) * kernel + kx) * out_h * out_w;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const float* srow = plane + (oy * stride + ky) * pw + kx;
          float* drow = dst + oy * out_w;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            drow[ox] = srow[ox * stride];
          }
        }
      }
    }
  }
}

// The [C*k*k x out_h*out_w] column matrix of one batch item, fanned out
// by channel; each chunk pads its channels in its own workspace slab.
void im2col(const float* src, const tensor::Shape& is, const ConvParams& p,
            std::int64_t oh, std::int64_t ow, float* col, Workspace& ws,
            const ExecCtx& ctx) {
  const auto rows = p.stride == 1   ? im2col_rows<1>
                    : p.stride == 2 ? im2col_rows<2>
                                    : im2col_rows<0>;
  const std::int64_t plane_len = (is.h + 2 * p.pad) * (is.w + 2 * p.pad);
  const int chunks = plan_chunks(ctx, is.c);
  float* planes = ws.slabs(chunks, plane_len);
  run_chunks(ctx, chunks, is.c, [&](int t, std::int64_t c0, std::int64_t c1) {
    float* plane = planes + t * plane_len;
    std::fill(plane, plane + plane_len, 0.0f);
    rows(src, c0, c1, is.h, is.w, p.kernel, p.stride, p.pad, oh, ow, plane,
         col);
  });
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
//
// The plane is copied into `padded` (g.rows x g.row_len, row_len a
// multiple of the stride) whose border the caller filled with -inf:
// -inf never wins a fold, so it stands in for the window clamping, and
// the horizontal pass is one flat loop over every padded row at once
// (`hmax`, g.rows x row_len / stride). K and S are the kernel and stride
// at compile time (0: at run time), so the common 3x3 windows unroll
// into one select chain per element.
struct PoolGeom {
  std::int64_t h, w, oh, ow, rows, row_len;
  int kernel, stride, pad;
};

template <int K, int S>
void max_pool_plane(const float* sf, const PoolGeom& g, float* padded,
                    float* hmax, float* out) noexcept {
  const int kernel = K != 0 ? K : g.kernel;
  const int stride = S != 0 ? S : g.stride;
  for (std::int64_t y = 0; y < g.h; ++y) {
    const float* src = sf + y * g.w;
    float* dst = padded + (y + g.pad) * g.row_len + g.pad;
    for (std::int64_t x = 0; x < g.w; ++x) dst[x] = src[x];
  }
  const std::int64_t hlen = g.row_len / stride;  // a row of hmax
  const std::int64_t n = (g.rows - 1) * hlen + g.ow;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* r = padded + i * stride;
    float m = -std::numeric_limits<float>::infinity();
    for (int kx = 0; kx < kernel; ++kx) m = m < r[kx] ? r[kx] : m;
    hmax[i] = m;
  }
  for (std::int64_t oy = 0; oy < g.oh; ++oy) {
    const float* hr = hmax + oy * stride * hlen;
    float* orow = out + oy * g.ow;
    for (std::int64_t ox = 0; ox < g.ow; ++ox) {
      float m = -std::numeric_limits<float>::infinity();
      for (int ky = 0; ky < kernel; ++ky) {
        const float v = hr[ky * hlen + ox];
        m = m < v ? v : m;
      }
      orow[ox] = m;
    }
  }
}

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

template <typename T>
void conv2d(const Tensor<T>& in, const LayerWeights& weights,
            const ConvParams& p, Tensor<T>& out, const ExecCtx& ctx) {
  const tensor::Shape& is = in.shape();
  const std::int64_t oh = conv_extent(is.h, p.kernel, p.stride, p.pad);
  const std::int64_t ow = conv_extent(is.w, p.kernel, p.stride, p.pad);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv2d: kernel does not fit");
  }
  if (weights.shape() !=
      tensor::Shape{p.out_channels, is.c, p.kernel, p.kernel}) {
    throw std::invalid_argument("conv2d: weight shape mismatch: " +
                                weights.shape().to_string());
  }
  out.resize(tensor::Shape{is.n, p.out_channels, oh, ow});

  const std::int64_t k_dim = is.c * p.kernel * p.kernel;
  const std::int64_t n_dim = oh * ow;
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const float* wf = weights.w();
  // A 1x1 stride-1 unpadded conv's im2col matrix is its input plane
  // itself ([C x H*W], same values, same layout), so the GEMM reads the
  // input directly: bit-identical, minus one copy per layer.
  const bool direct_1x1 = p.kernel == 1 && p.stride == 1 && p.pad == 0;
  float* col = direct_1x1 ? nullptr : ws.col(k_dim * n_dim);

  for (std::int64_t b = 0; b < is.n; ++b) {
    const float* src = batch_as_f32(in, b, ws, ctx);
    const float* bmat = src;
    if (!direct_1x1) {
      im2col(src, is, p, oh, ow, col, ws, ctx);
      bmat = col;
    }

    // out[b] = W[outC x k_dim] * B[k_dim x n_dim], split by column
    // range: each chunk owns a disjoint panel of B and of the output.
    float* cf;
    if constexpr (std::is_same_v<T, float>) {
      cf = out.batch_ptr(b);
    } else {
      cf = ws.out(p.out_channels * n_dim);
    }
    parallel_chunks(ctx, n_dim, [&](int, std::int64_t j0, std::int64_t j1) {
      tensor::gemm_f32(p.out_channels, j1 - j0, k_dim, 1.0f, wf, k_dim,
                       bmat + j0, n_dim, 0.0f, cf + j0, n_dim);
    });

    // Bias add. FP16 keeps the oracle's order: round the accumulator to
    // half first, then add the (widened) half bias with per-element
    // rounding.
    parallel_chunks(
        ctx, p.out_channels, [&](int, std::int64_t oc0, std::int64_t oc1) {
          if constexpr (std::is_same_v<T, float>) {
            for (std::int64_t oc = oc0; oc < oc1; ++oc) {
              const float bias = weights.b()[oc];
              float* dst = out.batch_ptr(b) + oc * n_dim;
              for (std::int64_t i = 0; i < n_dim; ++i) dst[i] += bias;
            }
          } else {
            const auto len = static_cast<std::size_t>(n_dim);
            for (std::int64_t oc = oc0; oc < oc1; ++oc) {
              const float bias = weights.b()[oc];
              float* row = cf + oc * n_dim;
              half* dst = out.batch_ptr(b) + oc * n_dim;
              ncsw::fp16::float_to_half_span(row, dst, len);
              ncsw::fp16::half_to_float_span(dst, row, len);
              for (std::int64_t i = 0; i < n_dim; ++i) row[i] += bias;
              ncsw::fp16::float_to_half_span(row, dst, len);
            }
          }
        });
  }
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
    // A half is < 0 exactly when its sign is set and its magnitude is
    // non-zero and at most infinity (0x7c00): bits in [0x8001, 0xfc00].
    // -0 and NaNs stay as they are, as in the float comparison.
    half* data = x.data();
    parallel_chunks(ctx, n, [&](int, std::int64_t e0, std::int64_t e1) {
      for (std::int64_t i = e0; i < e1; ++i) {
        const std::uint16_t bits = data[i].bits();
        const bool negative = bits > 0x8000u && bits <= 0xfc00u;
        data[i] = half::from_bits(negative ? std::uint16_t{0} : bits);
      }
    });
  }
}

template <typename T>
void max_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx) {
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
  auto pool_plane = max_pool_plane<0, 0>;
  if (kernel == 3 && stride == 1) pool_plane = max_pool_plane<3, 1>;
  if (kernel == 3 && stride == 2) pool_plane = max_pool_plane<3, 2>;
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
    for (std::int64_t s = s0; s < s1; ++s) {
      pool_plane(src + s * is.hw(), g, padded, hmax, dst + s * out_hw);
    }
    if constexpr (is_half) {
      ncsw::fp16::float_to_half_span(
          out_f + s0 * out_hw, out.data() + s0 * out_hw,
          static_cast<std::size_t>((s1 - s0) * out_hw));
    }
  });
}

template <typename T>
void avg_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx) {
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
  const int chunks = plan_chunks(ctx, planes);
  float* scratch = std::is_same_v<T, float>
                       ? nullptr
                       : ws.slabs(chunks, is.hw());
  run_chunks(
      ctx, chunks, planes, [&](int t, std::int64_t s0, std::int64_t s1) {
        for (std::int64_t s = s0; s < s1; ++s) {
          const T* src = in.data() + s * is.hw();
          T* dst = out.data() + s * oh * ow;
          const float* sf;
          if constexpr (std::is_same_v<T, float>) {
            sf = src;
          } else {
            float* buf = scratch + t * is.hw();
            ncsw::fp16::half_to_float_span(src, buf,
                                           static_cast<std::size_t>(is.hw()));
            sf = buf;
          }
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              std::int64_t y0, x0, y1, x1;
              double divisor;
              if (global) {
                y0 = 0;
                x0 = 0;
                y1 = is.h;
                x1 = is.w;
                divisor = static_cast<double>(is.hw());
              } else {
                y0 = std::max<std::int64_t>(oy * stride - pad, 0);
                x0 = std::max<std::int64_t>(ox * stride - pad, 0);
                y1 = std::min<std::int64_t>(oy * stride - pad + kernel, is.h);
                x1 = std::min<std::int64_t>(ox * stride - pad + kernel, is.w);
                // Caffe AVE pooling divides by the padded window size.
                const std::int64_t py1 = std::min<std::int64_t>(
                    oy * stride - pad + kernel, is.h + pad);
                const std::int64_t px1 = std::min<std::int64_t>(
                    ox * stride - pad + kernel, is.w + pad);
                const std::int64_t py0 = oy * stride - pad;
                const std::int64_t px0 = ox * stride - pad;
                divisor = static_cast<double>((py1 - py0) * (px1 - px0));
              }
              double sum = 0.0;
              for (std::int64_t y = y0; y < y1; ++y) {
                for (std::int64_t x = x0; x < x1; ++x) {
                  sum += sf[y * is.w + x];
                }
              }
              dst[oy * ow + ox] =
                  tensor::scalar_cast<T>(static_cast<float>(sum / divisor));
            }
          }
        }
      });
}

template <typename T>
void lrn(const Tensor<T>& in, const LRNParams& p, Tensor<T>& out,
         const ExecCtx& ctx) {
  const tensor::Shape& is = in.shape();
  out.resize(is);
  const int half_win = p.local_size / 2;
  const float alpha_over_n = p.alpha / static_cast<float>(p.local_size);
  const std::int64_t hw = is.hw();

  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const int chunks = plan_chunks(ctx, is.c);
  // Per-task scratch: a sum-of-squares plane plus (FP16 only) an FP32
  // result plane rounded in one span per channel.
  const std::int64_t per_task = std::is_same_v<T, float> ? hw : 2 * hw;
  float* scratch = ws.slabs(chunks, per_task);
  // Every channel's squares, computed once per batch item instead of
  // once per window that covers the channel.
  float* squares = ws.out(is.chw());

  for (std::int64_t b = 0; b < is.n; ++b) {
    // The whole batch item as FP32 planes: channel runs are contiguous,
    // so the window sum adds dense planes instead of strided at().
    const float* inf = batch_as_f32(in, b, ws, ctx);
    parallel_chunks(ctx, is.chw(), [&](int, std::int64_t e0, std::int64_t e1) {
      for (std::int64_t i = e0; i < e1; ++i) squares[i] = inf[i] * inf[i];
    });
    run_chunks(
        ctx, chunks, is.c, [&](int t, std::int64_t c0, std::int64_t c1) {
          float* sumsq = scratch + t * per_task;
          for (std::int64_t c = c0; c < c1; ++c) {
            const std::int64_t w0 = std::max<std::int64_t>(c - half_win, 0);
            const std::int64_t w1 =
                std::min<std::int64_t>(c + half_win, is.c - 1);
            // Ascending-channel accumulation: the same term order as the
            // oracle's per-element window loop (whose 0 + v*v start is
            // v*v exactly). Not a sliding sum: that would round
            // differently.
            const float* first = squares + w0 * hw;
            std::copy(first, first + hw, sumsq);
            for (std::int64_t cc = w0 + 1; cc <= w1; ++cc) {
              const float* sq = squares + cc * hw;
              for (std::int64_t i = 0; i < hw; ++i) sumsq[i] += sq[i];
            }
            const float* vc = inf + c * hw;
            // Fast tier, beta = 0.75 (every zoo LRN): scale^0.75 =
            // sqrt(scale)*sqrt(sqrt(scale)) — two sqrts instead of a
            // powf per element. Slightly different rounding, hence
            // fast-only.
            const bool fast_beta = ctx.fast && p.beta == 0.75f;
            if constexpr (std::is_same_v<T, float>) {
              float* dst = out.data() + (b * is.c + c) * hw;
              if (fast_beta) {
                for (std::int64_t i = 0; i < hw; ++i) {
                  const float scale = p.k + alpha_over_n * sumsq[i];
                  const float r = std::sqrt(scale);
                  dst[i] = vc[i] / (r * std::sqrt(r));
                }
              } else {
                for (std::int64_t i = 0; i < hw; ++i) {
                  const float scale = p.k + alpha_over_n * sumsq[i];
                  dst[i] = vc[i] / std::pow(scale, p.beta);
                }
              }
            } else {
              float* res = sumsq + hw;
              if (fast_beta) {
                for (std::int64_t i = 0; i < hw; ++i) {
                  const float scale = p.k + alpha_over_n * sumsq[i];
                  const float r = std::sqrt(scale);
                  res[i] = vc[i] / (r * std::sqrt(r));
                }
              } else {
                for (std::int64_t i = 0; i < hw; ++i) {
                  const float scale = p.k + alpha_over_n * sumsq[i];
                  res[i] = vc[i] / std::pow(scale, p.beta);
                }
              }
              ncsw::fp16::float_to_half_span(
                  res, out.data() + (b * is.c + c) * hw,
                  static_cast<std::size_t>(hw));
            }
          }
        });
  }
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
  const tensor::Shape& is = in.shape();
  const std::int64_t in_dim = is.chw();
  if (weights.shape() != tensor::Shape{p.out_features, in_dim, 1, 1}) {
    throw std::invalid_argument("fully_connected: weight shape mismatch: " +
                                weights.shape().to_string());
  }
  out.resize(tensor::Shape{is.n, p.out_features, 1, 1});
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  // out[b] = W[outF x in_dim] * in[b]: a GEMV per batch item,
  // bit-identical to the degenerate n = 1 GEMM it replaced.
  const float* bias = weights.b();
  for (std::int64_t b = 0; b < is.n; ++b) {
    T* dst = out.batch_ptr(b);
    if constexpr (std::is_same_v<T, float>) {
      tensor::gemv_f32(p.out_features, in_dim, weights.w(), in.batch_ptr(b),
                       0.0f, dst);
      for (std::int64_t f = 0; f < p.out_features; ++f) dst[f] += bias[f];
    } else {
      // The oracle's order, one span pass each: accumulate the widened
      // activation in FP32, round, widen, add the bias, round again.
      // Serial: an FC input is too short to repay a fan-out.
      float* x = ws.acts(in_dim);
      ncsw::fp16::half_to_float_span(in.batch_ptr(b), x,
                                     static_cast<std::size_t>(in_dim));
      float* y = ws.out(p.out_features);
      tensor::gemv_f32(p.out_features, in_dim, weights.w(), x, 0.0f, y);
      const auto len = static_cast<std::size_t>(p.out_features);
      ncsw::fp16::float_to_half_span(y, dst, len);
      ncsw::fp16::half_to_float_span(dst, y, len);
      for (std::int64_t f = 0; f < p.out_features; ++f) y[f] += bias[f];
      ncsw::fp16::float_to_half_span(y, dst, len);
    }
  }
}

template <typename T>
void softmax(const Tensor<T>& in, Tensor<T>& out, const ExecCtx& ctx) {
  const tensor::Shape& is = in.shape();
  out.resize(is);
  const std::int64_t dim = is.chw();
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  float* e = ws.out(dim);
  for (std::int64_t b = 0; b < is.n; ++b) {
    const T* src = in.batch_ptr(b);
    T* dst = out.batch_ptr(b);
    float max_v = -std::numeric_limits<float>::infinity();
    for (std::int64_t i = 0; i < dim; ++i) {
      max_v = std::max(max_v, static_cast<float>(src[i]));
    }
    double sum = 0.0;
    for (std::int64_t i = 0; i < dim; ++i) {
      e[i] = std::exp(static_cast<float>(src[i]) - max_v);
      sum += e[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t i = 0; i < dim; ++i) {
      dst[i] = tensor::scalar_cast<T>(e[i] * inv);
    }
  }
}

template <typename T>
void conv2d_fast(const Tensor<T>& in, const LayerWeights& weights,
                 const ConvParams& p, bool fuse_relu, Tensor<T>& out,
                 const ExecCtx& ctx) {
  const tensor::Shape& is = in.shape();
  const std::int64_t oh = conv_extent(is.h, p.kernel, p.stride, p.pad);
  const std::int64_t ow = conv_extent(is.w, p.kernel, p.stride, p.pad);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv2d: kernel does not fit");
  }
  if (weights.shape() !=
      tensor::Shape{p.out_channels, is.c, p.kernel, p.kernel}) {
    throw std::invalid_argument("conv2d: weight shape mismatch: " +
                                weights.shape().to_string());
  }
  out.resize(tensor::Shape{is.n, p.out_channels, oh, ow});

  const std::int64_t k_dim = is.c * p.kernel * p.kernel;
  const std::int64_t n_dim = oh * ow;
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const float* wf = weights.w();
  const float* bf = weights.b();

  const bool direct_1x1 = p.kernel == 1 && p.stride == 1 && p.pad == 0;
  // Direct 3x3 pays off when output rows are wide enough to fill its
  // 8-column register tiles; on narrow maps (the tiny nets' inception
  // towers) the im2col panel is small, stays in cache, and the blocked
  // GEMM wins, so those shapes keep the GEMM path.
  const std::int64_t x_lo_3 = std::min<std::int64_t>(
      ow, (static_cast<std::int64_t>(p.pad) + p.stride - 1) / p.stride);
  const std::int64_t x_hi_3 = std::max(
      x_lo_3,
      std::min<std::int64_t>(
          ow, is.w - 3 + p.pad >= 0 ? (is.w - 3 + p.pad) / p.stride + 1 : 0));
  // stride == 1 keeps the interior tap loads contiguous (the vector
  // kernel loads srow[kx..kx+7] directly); strided 3x3 shapes go
  // through im2col + GEMM like everything else.
  const bool direct_3x3 =
      p.kernel == 3 && p.stride == 1 && x_hi_3 - x_lo_3 >= 8;

  for (std::int64_t b = 0; b < is.n; ++b) {
    const float* src = batch_as_f32(in, b, ws, ctx);
    // FP32 result panel [outC x n_dim]: the output itself for float, a
    // workspace accumulator rounded once per element for half.
    float* cf;
    if constexpr (std::is_same_v<T, float>) {
      cf = out.batch_ptr(b);
    } else {
      cf = ws.out(p.out_channels * n_dim);
    }

    if (direct_3x3) {
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
      // GEMM path. Stride-1 unpadded 1x1 needs no patch matrix at all:
      // the input planes already are [k_dim x n_dim].
      const float* bmat;
      if (direct_1x1) {
        bmat = src;
      } else {
        float* col = ws.col(k_dim * n_dim);
        im2col(src, is, p, oh, ow, col, ws, ctx);
        bmat = col;
      }
      // Column chunks start on 16-column panel boundaries, so a column
      // lands in the same vector tile or scalar edge at any chunk count
      // (the two need not round alike once contraction is on).
      parallel_chunks(
          ctx, (n_dim + 15) / 16, [&](int, std::int64_t p0, std::int64_t p1) {
            const std::int64_t j0 = p0 * 16;
            const std::int64_t j1 = std::min(p1 * 16, n_dim);
            tensor::gemm_f32_fast(p.out_channels, j1 - j0, k_dim, wf, k_dim,
                                  bmat + j0, n_dim, cf + j0, n_dim);
          });
      // Fused epilogue: bias and ReLU in one FP32 pass, then (FP16 only)
      // one round per element — the conv -> round -> relu -> round
      // round-trip of the unfused path collapses to a single write-back.
      parallel_chunks(
          ctx, p.out_channels, [&](int, std::int64_t oc0, std::int64_t oc1) {
            for (std::int64_t oc = oc0; oc < oc1; ++oc) {
              const float bias = bf[oc];
              float* row = cf + oc * n_dim;
              if (fuse_relu) {
                for (std::int64_t i = 0; i < n_dim; ++i) {
                  const float v = row[i] + bias;
                  row[i] = v < 0.0f ? 0.0f : v;
                }
              } else {
                for (std::int64_t i = 0; i < n_dim; ++i) row[i] += bias;
              }
              if constexpr (!std::is_same_v<T, float>) {
                ncsw::fp16::float_to_half_span(
                    row, out.batch_ptr(b) + oc * n_dim,
                    static_cast<std::size_t>(n_dim));
              }
            }
          });
    }
  }
}

// Explicit instantiations for the two supported precisions.
#define NCSW_INSTANTIATE_KERNELS(T)                                          \
  template LayerWeights::LayerWeights(const LayerParams<T>&);                \
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
                               const ConvParams&, bool, Tensor<T>&,          \
                               const ExecCtx&);

NCSW_INSTANTIATE_KERNELS(float)
NCSW_INSTANTIATE_KERNELS(ncsw::fp16::half)

#undef NCSW_INSTANTIATE_KERNELS

}  // namespace ncsw::nn::kernels
