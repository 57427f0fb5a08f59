#include "nn/kernels.h"

#include "util/multiversion.h"

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
// Pre-PR reference kernels, kept verbatim (serial, per-layer allocation,
// per-MAC half<->float conversion). ExecCtx::reference routes here; the
// golden tests assert the optimised kernels below match them byte for
// byte, and bench/perf_forward records speedup against them.

namespace ref {

inline void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, const float* b, float beta,
                 float* c) noexcept {
  tensor::gemm_f32_ref(m, n, k, alpha, a, b, beta, c);
}
inline void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const half* a, const half* b, float beta, half* c) noexcept {
  tensor::gemm_f16_ref(m, n, k, alpha, a, b, beta, c);
}

// im2col: expand the input patch matrix so convolution becomes a GEMM.
// Column layout: rows = inC*k*k, cols = outH*outW (one batch item).
template <typename T>
void im2col(const T* in, std::int64_t channels, std::int64_t height,
            std::int64_t width, int kernel, int stride, int pad,
            std::int64_t out_h, std::int64_t out_w, T* col) noexcept {
  for (std::int64_t c = 0; c < channels; ++c) {
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        T* dst = col + ((c * kernel + ky) * kernel + kx) * out_h * out_w;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= height) {
            std::fill(dst + oy * out_w, dst + (oy + 1) * out_w, T{});
            continue;
          }
          const T* src_row = in + (c * height + iy) * width;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            dst[oy * out_w + ox] =
                (ix >= 0 && ix < width) ? src_row[ix] : T{};
          }
        }
      }
    }
  }
}

template <typename T>
void conv2d(const Tensor<T>& in, const LayerParams<T>& params,
            const ConvParams& p, Tensor<T>& out) {
  const tensor::Shape& is = in.shape();
  const std::int64_t oh = conv_extent(is.h, p.kernel, p.stride, p.pad);
  const std::int64_t ow = conv_extent(is.w, p.kernel, p.stride, p.pad);
  out.resize(tensor::Shape{is.n, p.out_channels, oh, ow});

  const std::int64_t k_dim = is.c * p.kernel * p.kernel;
  const std::int64_t n_dim = oh * ow;
  std::vector<T> col(static_cast<std::size_t>(k_dim * n_dim));

  for (std::int64_t b = 0; b < is.n; ++b) {
    im2col(in.batch_ptr(b), is.c, is.h, is.w, p.kernel, p.stride, p.pad, oh,
           ow, col.data());
    // out[b] = W[outC x k_dim] * col[k_dim x n_dim]
    gemm(p.out_channels, n_dim, k_dim, 1.0f, params.w.data(), col.data(),
         0.0f, out.batch_ptr(b));
    // Bias add (rounded per element in FP16 by operator+).
    for (std::int64_t oc = 0; oc < p.out_channels; ++oc) {
      const T bias = params.b[oc];
      T* dst = out.batch_ptr(b) + oc * n_dim;
      for (std::int64_t i = 0; i < n_dim; ++i) dst[i] += bias;
    }
  }
}

template <typename T>
void relu(Tensor<T>& x) {
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    if (static_cast<float>(x[i]) < 0.0f) x[i] = T{};
  }
}

template <typename T>
void lrn(const Tensor<T>& in, const LRNParams& p, Tensor<T>& out) {
  const tensor::Shape& is = in.shape();
  out.resize(is);
  const int half_win = p.local_size / 2;
  const float alpha_over_n = p.alpha / static_cast<float>(p.local_size);
  for (std::int64_t b = 0; b < is.n; ++b) {
    for (std::int64_t y = 0; y < is.h; ++y) {
      for (std::int64_t x = 0; x < is.w; ++x) {
        for (std::int64_t c = 0; c < is.c; ++c) {
          const std::int64_t c0 = std::max<std::int64_t>(c - half_win, 0);
          const std::int64_t c1 =
              std::min<std::int64_t>(c + half_win, is.c - 1);
          float sumsq = 0.0f;
          for (std::int64_t cc = c0; cc <= c1; ++cc) {
            const float v = static_cast<float>(in.at(b, cc, y, x));
            sumsq += v * v;
          }
          const float scale = p.k + alpha_over_n * sumsq;
          const float v = static_cast<float>(in.at(b, c, y, x)) /
                          std::pow(scale, p.beta);
          out.at(b, c, y, x) = tensor::scalar_cast<T>(v);
        }
      }
    }
  }
}

template <typename T>
void fully_connected(const Tensor<T>& in, const LayerParams<T>& params,
                     const FCParams& p, Tensor<T>& out) {
  const tensor::Shape& is = in.shape();
  const std::int64_t in_dim = is.chw();
  out.resize(tensor::Shape{is.n, p.out_features, 1, 1});
  for (std::int64_t b = 0; b < is.n; ++b) {
    gemm(p.out_features, 1, in_dim, 1.0f, params.w.data(), in.batch_ptr(b),
         0.0f, out.batch_ptr(b));
    T* dst = out.batch_ptr(b);
    for (std::int64_t f = 0; f < p.out_features; ++f) {
      dst[f] += params.b[f];
    }
  }
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Optimised kernels.

// im2col over channels [c0, c1) from an FP32 source plane; the column
// matrix layout matches ref::im2col exactly.
void im2col_rows(const float* in, std::int64_t c0, std::int64_t c1,
                 std::int64_t height, std::int64_t width, int kernel,
                 int stride, int pad, std::int64_t out_h, std::int64_t out_w,
                 float* col) noexcept {
  for (std::int64_t c = c0; c < c1; ++c) {
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        float* dst = col + ((c * kernel + ky) * kernel + kx) * out_h * out_w;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= height) {
            std::fill(dst + oy * out_w, dst + (oy + 1) * out_w, 0.0f);
            continue;
          }
          const float* src_row = in + (c * height + iy) * width;
          // The interior run [x_lo, x_hi) needs no bounds checks.
          const std::int64_t x_lo = std::max<std::int64_t>(
              0, (pad - kx + stride - 1) / stride);
          const std::int64_t x_hi = std::min<std::int64_t>(
              out_w, (width - 1 - kx + pad) / stride + 1);
          float* drow = dst + oy * out_w;
          for (std::int64_t ox = 0; ox < std::min(x_lo, out_w); ++ox) {
            drow[ox] = 0.0f;
          }
          for (std::int64_t ox = x_lo; ox < x_hi; ++ox) {
            drow[ox] = src_row[ox * stride - pad + kx];
          }
          for (std::int64_t ox = std::max(x_hi, x_lo); ox < out_w; ++ox) {
            drow[ox] = 0.0f;
          }
        }
      }
    }
  }
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

// ---------------------------------------------------------------------------
// Fast-tier separable 3x3 max pool over one plane. Phase 1 takes the
// vertical max of the (clamped) 3-row window into a row buffer whose
// 8-float slack borders hold -inf, phase 2 the horizontal 3-tap max of
// that buffer; the -inf borders stand in for the window clamping of the
// scalar kernel, so every output equals the scalar max exactly (max is
// order-independent — this path changes no values, only speed).
// `vbuf` points at the w-element interior of a (w + 16)-float buffer
// whose borders the caller pre-filled with -inf.
NCSW_FAST_INLINE void max_pool3_plane_impl(const float* sf, std::int64_t h,
                                           std::int64_t w, int stride, int pad,
                                           std::int64_t oh, std::int64_t ow,
                                           float* vbuf, float* outf) noexcept {
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const std::int64_t y0 = std::max<std::int64_t>(oy * stride - pad, 0);
    const std::int64_t y1 =
        std::min<std::int64_t>(oy * stride - pad + 3, h);
    // Phase 1: vertical max of rows [y0, y1) into vbuf[0..w).
    std::int64_t x = 0;
    for (; x + 8 <= w; x += 8) {
      NCSW_V8F m = *reinterpret_cast<const NCSW_V8F*>(sf + y0 * w + x);
      for (std::int64_t y = y0 + 1; y < y1; ++y) {
        const NCSW_V8F r = *reinterpret_cast<const NCSW_V8F*>(sf + y * w + x);
        m = m > r ? m : r;
      }
      *reinterpret_cast<NCSW_V8F*>(vbuf + x) = m;
    }
    for (; x < w; ++x) {
      float m = sf[y0 * w + x];
      for (std::int64_t y = y0 + 1; y < y1; ++y) {
        m = std::max(m, sf[y * w + x]);
      }
      vbuf[x] = m;
    }
    // Phase 2: horizontal 3-tap max. The unaligned loads reach at most
    // vbuf[ow - 1 - pad + 9], inside the slack border for pad <= 2 and
    // ow <= w (stride 1).
    float* orow = outf + oy * ow;
    if (stride == 1) {
      std::int64_t ox = 0;
      for (; ox + 8 <= ow; ox += 8) {
        const float* base = vbuf + ox - pad;
        NCSW_V8F m = *reinterpret_cast<const NCSW_V8F*>(base);
        const NCSW_V8F t1 = *reinterpret_cast<const NCSW_V8F*>(base + 1);
        m = m > t1 ? m : t1;
        const NCSW_V8F t2 = *reinterpret_cast<const NCSW_V8F*>(base + 2);
        m = m > t2 ? m : t2;
        *reinterpret_cast<NCSW_V8F*>(orow + ox) = m;
      }
      for (; ox < ow; ++ox) {
        const float* base = vbuf + ox - pad;
        orow[ox] = std::max(std::max(base[0], base[1]), base[2]);
      }
    } else {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float* base = vbuf + ox * stride - pad;
        orow[ox] = std::max(std::max(base[0], base[1]), base[2]);
      }
    }
  }
}

NCSW_TARGET_V3 void max_pool3_plane_v3(const float* sf, std::int64_t h,
                                       std::int64_t w, int stride, int pad,
                                       std::int64_t oh, std::int64_t ow,
                                       float* vbuf, float* outf) noexcept {
  max_pool3_plane_impl(sf, h, w, stride, pad, oh, ow, vbuf, outf);
}
NCSW_TARGET_V4 void max_pool3_plane_v4(const float* sf, std::int64_t h,
                                       std::int64_t w, int stride, int pad,
                                       std::int64_t oh, std::int64_t ow,
                                       float* vbuf, float* outf) noexcept {
  max_pool3_plane_impl(sf, h, w, stride, pad, oh, ow, vbuf, outf);
}

void max_pool3_plane(const float* sf, std::int64_t h, std::int64_t w,
                     int stride, int pad, std::int64_t oh, std::int64_t ow,
                     float* vbuf, float* outf) noexcept {
  switch (util::isa_level()) {
    case util::IsaLevel::kV4:
      max_pool3_plane_v4(sf, h, w, stride, pad, oh, ow, vbuf, outf);
      break;
    case util::IsaLevel::kV3:
      max_pool3_plane_v3(sf, h, w, stride, pad, oh, ow, vbuf, outf);
      break;
    default:
      max_pool3_plane_impl(sf, h, w, stride, pad, oh, ow, vbuf, outf);
      break;
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
void conv2d(const Tensor<T>& in, const LayerParams<T>& params,
            const ConvParams& p, Tensor<T>& out, const ExecCtx& ctx) {
  const tensor::Shape& is = in.shape();
  const std::int64_t oh = conv_extent(is.h, p.kernel, p.stride, p.pad);
  const std::int64_t ow = conv_extent(is.w, p.kernel, p.stride, p.pad);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv2d: kernel does not fit");
  }
  if (params.w.shape() !=
      tensor::Shape{p.out_channels, is.c, p.kernel, p.kernel}) {
    throw std::invalid_argument("conv2d: weight shape mismatch: " +
                                params.w.shape().to_string());
  }
  if (ctx.reference) {
    ref::conv2d(in, params, p, out);
    return;
  }
  out.resize(tensor::Shape{is.n, p.out_channels, oh, ow});

  const std::int64_t k_dim = is.c * p.kernel * p.kernel;
  const std::int64_t n_dim = oh * ow;
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  // A 1x1 stride-1 unpadded conv's im2col matrix is its input plane
  // itself ([C x H*W], same values, same layout), so the GEMM reads the
  // input directly: bit-identical, minus one copy per layer.
  const bool direct_1x1 = p.kernel == 1 && p.stride == 1 && p.pad == 0;
  float* col = direct_1x1 ? nullptr : ws.col(k_dim * n_dim);

  // Weights as FP32 (expanded once per call for FP16 — exact).
  const float* wf;
  if constexpr (std::is_same_v<T, float>) {
    wf = params.w.data();
  } else {
    auto& wpanel = ws.gemm().a;
    const auto wcount = static_cast<std::size_t>(p.out_channels * k_dim);
    if (wpanel.size() < wcount) wpanel.resize(wcount);
    ncsw::fp16::half_to_float_span(params.w.data(), wpanel.data(), wcount);
    wf = wpanel.data();
  }

  for (std::int64_t b = 0; b < is.n; ++b) {
    const float* src = batch_as_f32(in, b, ws, ctx);
    const float* bmat = src;
    if (!direct_1x1) {
      parallel_chunks(ctx, is.c, [&](int, std::int64_t c0, std::int64_t c1) {
        im2col_rows(src, c0, c1, is.h, is.w, p.kernel, p.stride, p.pad, oh,
                    ow, col);
      });
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

    // Bias add. FP16 keeps the pre-PR order: round the accumulator to
    // half first, then add the half bias with per-element rounding.
    parallel_chunks(
        ctx, p.out_channels, [&](int, std::int64_t oc0, std::int64_t oc1) {
          if constexpr (std::is_same_v<T, float>) {
            for (std::int64_t oc = oc0; oc < oc1; ++oc) {
              const float bias = params.b[oc];
              float* dst = out.batch_ptr(b) + oc * n_dim;
              for (std::int64_t i = 0; i < n_dim; ++i) dst[i] += bias;
            }
          } else {
            const auto len = static_cast<std::size_t>(n_dim);
            for (std::int64_t oc = oc0; oc < oc1; ++oc) {
              const float bias = static_cast<float>(params.b[oc]);
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
  if (ctx.reference) {
    ref::relu(x);
    return;
  }
  const std::int64_t n = x.numel();
  if constexpr (std::is_same_v<T, float>) {
    float* data = x.data();
    parallel_chunks(ctx, n, [&](int, std::int64_t e0, std::int64_t e1) {
      for (std::int64_t i = e0; i < e1; ++i) {
        if (data[i] < 0.0f) data[i] = 0.0f;
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

  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const std::int64_t planes = is.n * is.c;
  const int chunks = plan_chunks(ctx, planes);
  // Fast tier: separable vectorized 3x3 path (max_pool3_plane). Values
  // are exactly the scalar kernel's — max has no accumulation order —
  // but the path is gated on ctx.fast anyway so the default tier runs
  // only the code the golden digests were recorded against.
  const bool fast3 = ctx.fast && !p.global && kernel == 3 && pad <= 2;
  const std::int64_t scratch_len =
      std::is_same_v<T, float> ? 0 : is.hw();
  const std::int64_t fast_len =
      fast3 ? is.w + 16 + (std::is_same_v<T, float> ? 0 : oh * ow) : 0;
  const std::int64_t slab_len = scratch_len + fast_len;
  float* slab = slab_len != 0 ? ws.slabs(chunks, slab_len) : nullptr;
  run_chunks(ctx, chunks, planes,
             [&](int t, std::int64_t s0, std::int64_t s1) {
               float* base = slab != nullptr ? slab + t * slab_len : nullptr;
               float* vbuf = nullptr;
               float* fast_out = nullptr;
               if (fast3) {
                 // -inf slack borders around the w-element row buffer;
                 // phase 1 never writes them, so one fill serves every
                 // plane of the chunk.
                 float* vb0 = base + scratch_len;
                 std::fill(vb0, vb0 + 8,
                           -std::numeric_limits<float>::infinity());
                 std::fill(vb0 + 8 + is.w, vb0 + 16 + is.w,
                           -std::numeric_limits<float>::infinity());
                 vbuf = vb0 + 8;
                 if constexpr (!std::is_same_v<T, float>) {
                   fast_out = vb0 + 16 + is.w;
                 }
               }
               for (std::int64_t s = s0; s < s1; ++s) {
                 const T* src = in.data() + s * is.hw();
                 T* dst = out.data() + s * oh * ow;
                 const float* sf;
                 if constexpr (std::is_same_v<T, float>) {
                   sf = src;
                 } else {
                   ncsw::fp16::half_to_float_span(
                       src, base, static_cast<std::size_t>(is.hw()));
                   sf = base;
                 }
                 if (fast3) {
                   float* outf;
                   if constexpr (std::is_same_v<T, float>) {
                     outf = dst;
                   } else {
                     outf = fast_out;
                   }
                   max_pool3_plane(sf, is.h, is.w, stride, pad, oh, ow, vbuf,
                                   outf);
                   if constexpr (!std::is_same_v<T, float>) {
                     ncsw::fp16::float_to_half_span(
                         outf, dst, static_cast<std::size_t>(oh * ow));
                   }
                   continue;
                 }
                 for (std::int64_t oy = 0; oy < oh; ++oy) {
                   for (std::int64_t ox = 0; ox < ow; ++ox) {
                     const std::int64_t y0 =
                         std::max<std::int64_t>(oy * stride - pad, 0);
                     const std::int64_t x0 =
                         std::max<std::int64_t>(ox * stride - pad, 0);
                     const std::int64_t y1 = std::min<std::int64_t>(
                         oy * stride - pad + kernel, is.h);
                     const std::int64_t x1 = std::min<std::int64_t>(
                         ox * stride - pad + kernel, is.w);
                     float best = -std::numeric_limits<float>::infinity();
                     for (std::int64_t y = y0; y < y1; ++y) {
                       for (std::int64_t x = x0; x < x1; ++x) {
                         best = std::max(best, sf[y * is.w + x]);
                       }
                     }
                     dst[oy * ow + ox] = tensor::scalar_cast<T>(best);
                   }
                 }
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
  if (ctx.reference) {
    ref::lrn(in, p, out);
    return;
  }
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

  for (std::int64_t b = 0; b < is.n; ++b) {
    // The whole batch item as FP32 planes: channel runs are contiguous,
    // so the window sum slides over dense rows instead of strided at().
    const float* inf = batch_as_f32(in, b, ws, ctx);
    run_chunks(
        ctx, chunks, is.c, [&](int t, std::int64_t c0, std::int64_t c1) {
          float* sumsq = scratch + t * per_task;
          for (std::int64_t c = c0; c < c1; ++c) {
            const std::int64_t w0 = std::max<std::int64_t>(c - half_win, 0);
            const std::int64_t w1 =
                std::min<std::int64_t>(c + half_win, is.c - 1);
            std::fill(sumsq, sumsq + hw, 0.0f);
            // Ascending-channel accumulation: the same term order as the
            // reference's per-element window loop.
            for (std::int64_t cc = w0; cc <= w1; ++cc) {
              const float* v = inf + cc * hw;
              for (std::int64_t i = 0; i < hw; ++i) sumsq[i] += v[i] * v[i];
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
void fully_connected(const Tensor<T>& in, const LayerParams<T>& params,
                     const FCParams& p, Tensor<T>& out, const ExecCtx& ctx) {
  const tensor::Shape& is = in.shape();
  const std::int64_t in_dim = is.chw();
  if (params.w.shape() != tensor::Shape{p.out_features, in_dim, 1, 1}) {
    throw std::invalid_argument("fully_connected: weight shape mismatch: " +
                                params.w.shape().to_string());
  }
  if (ctx.reference) {
    ref::fully_connected(in, params, p, out);
    return;
  }
  out.resize(tensor::Shape{is.n, p.out_features, 1, 1});
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  // out[b] = W[outF x in_dim] * in[b]: a GEMV per batch item,
  // bit-identical to the degenerate n = 1 GEMM it replaced.
  for (std::int64_t b = 0; b < is.n; ++b) {
    if constexpr (std::is_same_v<T, float>) {
      tensor::gemv_f32(p.out_features, in_dim, params.w.data(),
                       in.batch_ptr(b), 0.0f, out.batch_ptr(b));
    } else {
      tensor::gemv_f16(p.out_features, in_dim, params.w.data(),
                       in.batch_ptr(b), 0.0f, out.batch_ptr(b), &ws.gemm());
    }
    T* dst = out.batch_ptr(b);
    for (std::int64_t f = 0; f < p.out_features; ++f) {
      dst[f] += params.b[f];
    }
  }
}

template <typename T>
void softmax(const Tensor<T>& in, Tensor<T>& out) {
  const tensor::Shape& is = in.shape();
  out.resize(is);
  const std::int64_t dim = is.chw();
  for (std::int64_t b = 0; b < is.n; ++b) {
    const T* src = in.batch_ptr(b);
    T* dst = out.batch_ptr(b);
    float max_v = -std::numeric_limits<float>::infinity();
    for (std::int64_t i = 0; i < dim; ++i) {
      max_v = std::max(max_v, static_cast<float>(src[i]));
    }
    double sum = 0.0;
    std::vector<float> e(static_cast<std::size_t>(dim));
    for (std::int64_t i = 0; i < dim; ++i) {
      e[static_cast<std::size_t>(i)] =
          std::exp(static_cast<float>(src[i]) - max_v);
      sum += e[static_cast<std::size_t>(i)];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t i = 0; i < dim; ++i) {
      dst[i] = tensor::scalar_cast<T>(e[static_cast<std::size_t>(i)] * inv);
    }
  }
}

template <typename T>
void conv2d_fast(const Tensor<T>& in, const LayerParams<T>& params,
                 const FastLayer* fl, const ConvParams& p, bool fuse_relu,
                 Tensor<T>& out, const ExecCtx& ctx) {
  const tensor::Shape& is = in.shape();
  const std::int64_t oh = conv_extent(is.h, p.kernel, p.stride, p.pad);
  const std::int64_t ow = conv_extent(is.w, p.kernel, p.stride, p.pad);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv2d: kernel does not fit");
  }
  if (params.w.shape() !=
      tensor::Shape{p.out_channels, is.c, p.kernel, p.kernel}) {
    throw std::invalid_argument("conv2d: weight shape mismatch: " +
                                params.w.shape().to_string());
  }
  out.resize(tensor::Shape{is.n, p.out_channels, oh, ow});

  const std::int64_t k_dim = is.c * p.kernel * p.kernel;
  const std::int64_t n_dim = oh * ow;
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;

  // FP32 weights/bias: the graph-load-time panels when available, a
  // per-call expansion otherwise.
  const float* wf = nullptr;
  const float* bf = nullptr;
  if (fl && fl->rows == p.out_channels && fl->cols == k_dim) {
    wf = fl->w_f32.data();
    bf = fl->b_f32.data();
  } else {
    if constexpr (std::is_same_v<T, float>) {
      wf = params.w.data();
      bf = params.b.data();
    } else {
      auto& wpanel = ws.gemm().a;
      const auto wcount = static_cast<std::size_t>(p.out_channels * k_dim);
      if (wpanel.size() < wcount) wpanel.resize(wcount);
      ncsw::fp16::half_to_float_span(params.w.data(), wpanel.data(),
                                     wcount);
      wf = wpanel.data();
      float* bpanel = ws.bias(p.out_channels);
      ncsw::fp16::half_to_float_span(
          params.b.data(), bpanel, static_cast<std::size_t>(p.out_channels));
      bf = bpanel;
    }
  }

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
        parallel_chunks(ctx, is.c,
                        [&](int, std::int64_t c0, std::int64_t c1) {
                          im2col_rows(src, c0, c1, is.h, is.w, p.kernel,
                                      p.stride, p.pad, oh, ow, col);
                        });
        bmat = col;
      }
      parallel_chunks(ctx, n_dim, [&](int, std::int64_t j0, std::int64_t j1) {
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

template <typename T>
void fully_connected_fast(const Tensor<T>& in, const LayerParams<T>& params,
                          const FastLayer* fl, const FCParams& p,
                          bool fuse_relu, Tensor<T>& out, const ExecCtx& ctx) {
  const tensor::Shape& is = in.shape();
  const std::int64_t in_dim = is.chw();
  if (params.w.shape() != tensor::Shape{p.out_features, in_dim, 1, 1}) {
    throw std::invalid_argument("fully_connected: weight shape mismatch: " +
                                params.w.shape().to_string());
  }
  if (!fl || fl->rows != p.out_features || fl->cols != in_dim) {
    fully_connected(in, params, p, out, ctx);
    if (fuse_relu) relu(out, ctx);
    return;
  }
  out.resize(tensor::Shape{is.n, p.out_features, 1, 1});
  Workspace local;
  Workspace& ws = ctx.ws ? *ctx.ws : local;
  const std::int8_t* wq = fl->w_q.data();
  const float* wscale = fl->scale.data();
  const float* bias = fl->b_f32.data();
  for (std::int64_t b = 0; b < is.n; ++b) {
    // Dynamic per-tensor activation quantization; an all-zero input gets
    // scale 1 and a zero accumulator, so the output is exactly the bias.
    const float* xf = batch_as_f32(in, b, ws, ctx);
    std::int8_t* xq = ws.qbuf(in_dim);
    const float sx = quantize_symmetric(xf, in_dim, xq);
    std::int32_t* acc = ws.ibuf(p.out_features);
    T* dst = out.batch_ptr(b);
    parallel_chunks(
        ctx, p.out_features, [&](int, std::int64_t f0, std::int64_t f1) {
          tensor::gemv_s8(f1 - f0, in_dim, wq + f0 * in_dim, xq, acc + f0);
          for (std::int64_t f = f0; f < f1; ++f) {
            float v = sx * wscale[f] * static_cast<float>(acc[f]) + bias[f];
            if (fuse_relu && v < 0.0f) v = 0.0f;
            dst[f] = tensor::scalar_cast<T>(v);
          }
        });
  }
}

// Explicit instantiations for the two supported precisions.
#define NCSW_INSTANTIATE_KERNELS(T)                                          \
  template void conv2d<T>(const Tensor<T>&, const LayerParams<T>&,           \
                          const ConvParams&, Tensor<T>&, const ExecCtx&);    \
  template void relu<T>(Tensor<T>&, const ExecCtx&);                         \
  template void max_pool<T>(const Tensor<T>&, const PoolParams&, Tensor<T>&, \
                            const ExecCtx&);                                 \
  template void avg_pool<T>(const Tensor<T>&, const PoolParams&, Tensor<T>&, \
                            const ExecCtx&);                                 \
  template void lrn<T>(const Tensor<T>&, const LRNParams&, Tensor<T>&,       \
                       const ExecCtx&);                                      \
  template void concat<T>(const std::vector<const Tensor<T>*>&, Tensor<T>&); \
  template void fully_connected<T>(const Tensor<T>&, const LayerParams<T>&,  \
                                   const FCParams&, Tensor<T>&,              \
                                   const ExecCtx&);                          \
  template void softmax<T>(const Tensor<T>&, Tensor<T>&);                    \
  template void conv2d_fast<T>(const Tensor<T>&, const LayerParams<T>&,      \
                               const FastLayer*, const ConvParams&, bool,    \
                               Tensor<T>&, const ExecCtx&);                  \
  template void fully_connected_fast<T>(                                     \
      const Tensor<T>&, const LayerParams<T>&, const FastLayer*,             \
      const FCParams&, bool, Tensor<T>&, const ExecCtx&);

NCSW_INSTANTIATE_KERNELS(float)
NCSW_INSTANTIATE_KERNELS(ncsw::fp16::half)

#undef NCSW_INSTANTIATE_KERNELS

}  // namespace ncsw::nn::kernels
