#include "oracle/oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "nn/kernels.h"

// Built with -ffp-contract=off like the library (tests/oracle/
// CMakeLists.txt): under an FMA-capable -march a contracted oracle would
// round differently from the exact tier it specifies.

namespace ncsw::oracle {

namespace {

using ncsw::fp16::half;
using tensor::Tensor;

// The reference GEMM's cache blocking; results do not depend on it.
constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kBlockN = 128;
constexpr std::int64_t kBlockK = 256;

inline void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, const float* b, float beta,
                 float* c) noexcept {
  gemm_f32_ref(m, n, k, alpha, a, b, beta, c);
}
inline void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const half* a, const half* b, float beta, half* c) noexcept {
  gemm_f16_ref(m, n, k, alpha, a, b, beta, c);
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

}  // namespace

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

template <typename T>
void conv2d(const Tensor<T>& in, const nn::LayerParams<T>& params,
            const nn::ConvParams& p, Tensor<T>& out) {
  const tensor::Shape& is = in.shape();
  const std::int64_t oh = nn::conv_extent(is.h, p.kernel, p.stride, p.pad);
  const std::int64_t ow = nn::conv_extent(is.w, p.kernel, p.stride, p.pad);
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
void max_pool(const Tensor<T>& in, const nn::PoolParams& p, Tensor<T>& out) {
  const tensor::Shape& is = in.shape();
  const int kernel =
      p.global ? static_cast<int>(std::max(is.h, is.w)) : p.kernel;
  const int stride = p.global ? 1 : p.stride;
  const int pad = p.global ? 0 : p.pad;
  const std::int64_t oh =
      p.global ? 1 : nn::pooled_extent(is.h, kernel, stride, pad, p.ceil_mode);
  const std::int64_t ow =
      p.global ? 1 : nn::pooled_extent(is.w, kernel, stride, pad, p.ceil_mode);
  out.resize(tensor::Shape{is.n, is.c, oh, ow});
  std::vector<float> scratch(static_cast<std::size_t>(is.hw()));
  for (std::int64_t s = 0; s < is.n * is.c; ++s) {
    const T* src = in.data() + s * is.hw();
    T* dst = out.data() + s * oh * ow;
    const float* sf;
    if constexpr (std::is_same_v<T, float>) {
      sf = src;
    } else {
      ncsw::fp16::half_to_float_span(src, scratch.data(),
                                     static_cast<std::size_t>(is.hw()));
      sf = scratch.data();
    }
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const std::int64_t y0 = std::max<std::int64_t>(oy * stride - pad, 0);
        const std::int64_t x0 = std::max<std::int64_t>(ox * stride - pad, 0);
        const std::int64_t y1 =
            std::min<std::int64_t>(oy * stride - pad + kernel, is.h);
        const std::int64_t x1 =
            std::min<std::int64_t>(ox * stride - pad + kernel, is.w);
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
}

template <typename T>
void lrn(const Tensor<T>& in, const nn::LRNParams& p, Tensor<T>& out) {
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
void fully_connected(const Tensor<T>& in, const nn::LayerParams<T>& params,
                     const nn::FCParams& p, Tensor<T>& out) {
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

template <typename T>
std::vector<Tensor<T>> run_forward(const nn::Graph& graph,
                                   const nn::Weights<T>& weights,
                                   const Tensor<T>& input) {
  graph.validate();
  nn::check_weights(graph, weights);
  if (input.shape() != graph.layer(graph.input_id())
                           .out_shape.with_batch(input.shape().n)) {
    throw std::invalid_argument("oracle::run_forward: input shape " +
                                input.shape().to_string());
  }
  std::vector<Tensor<T>> acts(static_cast<std::size_t>(graph.size()));
  acts[0] = input;
  for (int id = 1; id < graph.size(); ++id) {
    const nn::Layer& l = graph.layer(id);
    const Tensor<T>& src = acts[static_cast<std::size_t>(l.inputs[0])];
    Tensor<T>& dst = acts[static_cast<std::size_t>(id)];
    switch (l.kind) {
      case nn::LayerKind::kInput:
        throw std::logic_error("oracle::run_forward: unexpected input layer");
      case nn::LayerKind::kConv:
        conv2d(src, weights.at(l.name), l.conv, dst);
        break;
      case nn::LayerKind::kReLU:
        dst = src;
        relu(dst);
        break;
      case nn::LayerKind::kMaxPool:
        max_pool(src, l.pool, dst);
        break;
      case nn::LayerKind::kAvgPool:
        nn::kernels::avg_pool(src, l.pool, dst);
        break;
      case nn::LayerKind::kLRN:
        lrn(src, l.lrn, dst);
        break;
      case nn::LayerKind::kConcat: {
        std::vector<const Tensor<T>*> ins;
        ins.reserve(l.inputs.size());
        for (int in : l.inputs) {
          ins.push_back(&acts[static_cast<std::size_t>(in)]);
        }
        nn::kernels::concat(ins, dst);
        break;
      }
      case nn::LayerKind::kFC:
        fully_connected(src, weights.at(l.name), l.fc, dst);
        break;
      case nn::LayerKind::kSoftmax:
        nn::kernels::softmax(src, dst);
        break;
      case nn::LayerKind::kDropout:
        dst = src;  // inference-time dropout is the identity
        break;
    }
  }
  return acts;
}

#define NCSW_INSTANTIATE_ORACLE(T)                                            \
  template void conv2d<T>(const Tensor<T>&, const nn::LayerParams<T>&,        \
                          const nn::ConvParams&, Tensor<T>&);                 \
  template void relu<T>(Tensor<T>&);                                          \
  template void max_pool<T>(const Tensor<T>&, const nn::PoolParams&,         \
                            Tensor<T>&);                                      \
  template void lrn<T>(const Tensor<T>&, const nn::LRNParams&, Tensor<T>&);   \
  template void fully_connected<T>(const Tensor<T>&,                          \
                                   const nn::LayerParams<T>&,                 \
                                   const nn::FCParams&, Tensor<T>&);          \
  template std::vector<Tensor<T>> run_forward<T>(                             \
      const nn::Graph&, const nn::Weights<T>&, const Tensor<T>&);

NCSW_INSTANTIATE_ORACLE(float)
NCSW_INSTANTIATE_ORACLE(ncsw::fp16::half)

#undef NCSW_INSTANTIATE_ORACLE

}  // namespace ncsw::oracle
