// Digest-tolerance tests for the opt-in fast host tier
// (docs/performance.md): the fast kernels forfeit bit-identity with the
// default path, so these tests pin down what the tier still guarantees —
// bounded per-element drift against the reference kernels, exact
// equality where the math is order-independent (3x3 max pool), byte
// determinism across thread counts, and a default-off switch that leaves
// the bit-identical path untouched.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "half/half.h"
#include "nn/executor.h"
#include "nn/kernels.h"
#include "nn/quant.h"
#include "util/rng.h"

namespace {

using namespace ncsw::nn;
using ncsw::fp16::half;
using ncsw::tensor::Shape;
using ncsw::tensor::Tensor;
using ncsw::tensor::TensorF;

TensorF random_tensor(const Shape& s, std::uint64_t seed) {
  ncsw::util::Xoshiro256 rng(seed);
  TensorF t(s);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

Tensor<half> to_half(const TensorF& t) {
  Tensor<half> h(t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) h[i] = half(t[i]);
  return h;
}

template <typename T>
double max_abs_diff_t(const Tensor<T>& a, const Tensor<T>& b) {
  EXPECT_EQ(a.shape(), b.shape());
  double m = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(static_cast<float>(a[i])) -
                              static_cast<double>(static_cast<float>(b[i]))));
  }
  return m;
}

struct FastConvCase {
  int in_c, h, w, out_c, kernel, stride, pad;
  const char* what;
};

class FastConvTest : public ::testing::TestWithParam<FastConvCase> {};

TEST_P(FastConvTest, FusedMatchesConvPlusReluBothPrecisions) {
  const FastConvCase c = GetParam();
  const TensorF in = random_tensor(Shape{2, c.in_c, c.h, c.w}, 101);
  LayerParams<float> p;
  p.w = random_tensor(Shape{c.out_c, c.in_c, c.kernel, c.kernel}, 102);
  p.b = random_tensor(Shape{1, c.out_c, 1, 1}, 103);
  const ConvParams cp{c.out_c, c.kernel, c.stride, c.pad};
  kernels::ExecCtx fast_ctx;
  fast_ctx.fast = true;

  // FP32: unfused reference then ReLU vs the fused fast kernel.
  TensorF ref;
  kernels::conv2d(in, p, cp, ref);
  kernels::relu(ref);
  TensorF out;
  kernels::conv2d_fast(in, p, nullptr, cp, /*fuse_relu=*/true, out, fast_ctx);
  ASSERT_EQ(out.shape(), ref.shape()) << c.what;
  EXPECT_LT(max_abs_diff_t(out, ref), 1e-4) << c.what;

  // FP16: one rounding step of drift allowed on top of the FP32 bound.
  const Tensor<half> hin = to_half(in);
  LayerParams<half> hp;
  hp.w = to_half(p.w);
  hp.b = to_half(p.b);
  Tensor<half> href;
  kernels::conv2d(hin, hp, cp, href);
  kernels::relu(href);
  Tensor<half> hout;
  kernels::conv2d_fast(hin, hp, nullptr, cp, true, hout, fast_ctx);
  ASSERT_EQ(hout.shape(), href.shape()) << c.what;
  EXPECT_LT(max_abs_diff_t(hout, href), 0.05) << c.what;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FastConvTest,
    ::testing::Values(
        // Wide stride-1 3x3 map: the direct (im2col-free) specialisation.
        FastConvCase{3, 14, 14, 8, 3, 1, 1, "direct 3x3"},
        // Stride-2 3x3: falls back to im2col + fast GEMM.
        FastConvCase{3, 14, 14, 8, 3, 2, 1, "3x3 stride 2"},
        // Narrow stride-1 3x3 (output width < one vector): GEMM fallback.
        FastConvCase{4, 6, 6, 4, 3, 1, 1, "narrow 3x3"},
        // Pointwise 1x1 direct path.
        FastConvCase{8, 10, 10, 16, 1, 1, 0, "1x1"},
        // Generic im2col shapes.
        FastConvCase{2, 12, 12, 6, 5, 1, 2, "5x5"},
        FastConvCase{3, 23, 23, 8, 7, 2, 3, "7x7 stride 2"}));

TEST(FastConv, PreparedPanelMatchesPerCallExpansion) {
  // The graph-load-time FP32 panel (quantize_weights) must reproduce the
  // nullptr path exactly: same layout, no re-rounding.
  Graph g("one-conv");
  const int in_id = g.add_input("data", 3, 12, 12);
  g.add_conv("conv", in_id, ConvParams{8, 3, 1, 1});
  const WeightsF w = init_msra(g, 42);
  const QuantizedWeights qw = quantize_weights(g, w);
  const FastLayer* fl = qw.find("conv");
  ASSERT_NE(fl, nullptr);

  const TensorF in = random_tensor(Shape{1, 3, 12, 12}, 43);
  const ConvParams cp{8, 3, 1, 1};
  kernels::ExecCtx fast_ctx;
  fast_ctx.fast = true;
  TensorF a, b;
  kernels::conv2d_fast(in, w.at("conv"), nullptr, cp, true, a, fast_ctx);
  kernels::conv2d_fast(in, w.at("conv"), fl, cp, true, b, fast_ctx);
  EXPECT_EQ(max_abs_diff_t(a, b), 0.0);
}

TEST(FastMaxPool3, ExactlyMatchesScalarPath) {
  // Max is order-independent, so the separable fast pool must agree with
  // the scalar kernel to the bit, padding included.
  for (const int pad : {0, 1}) {
    for (const int stride : {1, 2}) {
      const TensorF in = random_tensor(Shape{2, 3, 13, 11}, 201);
      const PoolParams pp{3, stride, pad, true, false};
      TensorF ref, out;
      kernels::max_pool(in, pp, ref);
      kernels::ExecCtx fast_ctx;
      fast_ctx.fast = true;
      kernels::max_pool(in, pp, out, fast_ctx);
      ASSERT_EQ(out.shape(), ref.shape());
      EXPECT_EQ(max_abs_diff_t(out, ref), 0.0)
          << "pad " << pad << " stride " << stride;

      const Tensor<half> hin = to_half(in);
      Tensor<half> href, hout;
      kernels::max_pool(hin, pp, href);
      kernels::max_pool(hin, pp, hout, fast_ctx);
      EXPECT_EQ(max_abs_diff_t(hout, href), 0.0)
          << "fp16 pad " << pad << " stride " << stride;
    }
  }
}

TEST(FastFc, Int8PerChannelCloseToFp32) {
  Graph g("one-fc");
  const int in_id = g.add_input("data", 32, 1, 1);
  g.add_fc("fc", in_id, FCParams{10});
  const WeightsF w = init_msra(g, 51);
  const QuantizedWeights qw = quantize_weights(g, w);
  const FastLayer* fl = qw.find("fc");
  ASSERT_NE(fl, nullptr);

  const TensorF in = random_tensor(Shape{3, 32, 1, 1}, 52);
  const FCParams fp{10};
  TensorF ref, out;
  kernels::fully_connected(in, w.at("fc"), fp, ref);
  kernels::ExecCtx fast_ctx;
  fast_ctx.fast = true;
  kernels::fully_connected_fast(in, w.at("fc"), fl, fp, /*fuse_relu=*/false,
                                out, fast_ctx);
  ASSERT_EQ(out.shape(), ref.shape());
  // Weight and activation quantization each contribute <= half a step per
  // term; with k = 32 unit-range terms the drift stays well under 0.1.
  EXPECT_LT(max_abs_diff_t(out, ref), 0.1);

  // nullptr FastLayer falls back to FP32 — tight bound.
  TensorF fb;
  kernels::fully_connected_fast(in, w.at("fc"), nullptr, fp, false, fb,
                                fast_ctx);
  EXPECT_LT(max_abs_diff_t(fb, ref), 1e-5);
}

Graph small_graph() {
  Graph g("small");
  const int in = g.add_input("data", 3, 16, 16);
  const int c1 = g.add_conv("conv1", in, ConvParams{8, 3, 1, 1});
  const int r1 = g.add_relu("relu1", c1);
  const int p1 = g.add_max_pool("pool1", r1, PoolParams{3, 2, 1, true, false});
  const int c2 = g.add_conv("conv2", p1, ConvParams{4, 1, 1, 0});
  const int r2 = g.add_relu("relu2", c2);
  PoolParams gp;
  gp.global = true;
  const int pool = g.add_avg_pool("gap", r2, gp);
  const int fc = g.add_fc("fc", pool, FCParams{10});
  g.add_softmax("prob", fc);
  return g;
}

TEST(FastTier, ExecutorDigestToleranceVsDefaultPath) {
  const Graph g = small_graph();
  const WeightsF w = init_msra(g, 61);
  const QuantizedWeights qw = quantize_weights(g, w);
  const TensorF in = random_tensor(Shape{4, 3, 16, 16}, 62);

  ExecOptions base;
  base.threads = 1;
  ExecOptions fast = base;
  fast.fast = true;
  fast.quant = &qw;

  const auto pb = run_probabilities(g, w, in, base);
  const auto pf = run_probabilities(g, w, in, fast);
  ASSERT_EQ(pb.size(), pf.size());
  // Same top-1 on every item and bounded confidence drift — the fig7
  // acceptance style, applied per item on a model small enough that the
  // int8 FC cannot flip a prediction.
  for (std::size_t b = 0; b < pb.size(); ++b) {
    EXPECT_EQ(top_k(pb[b], 1)[0].first, top_k(pf[b], 1)[0].first)
        << "item " << b;
    double drift = 0;
    for (std::size_t c = 0; c < pb[b].size(); ++c) {
      drift = std::max(drift,
                       std::fabs(static_cast<double>(pb[b][c]) - pf[b][c]));
    }
    EXPECT_LT(drift, 0.02) << "item " << b;
  }
}

TEST(FastTier, DeterministicAcrossThreadCounts) {
  const Graph g = small_graph();
  const WeightsF w = init_msra(g, 71);
  const QuantizedWeights qw = quantize_weights(g, w);
  const TensorF in = random_tensor(Shape{4, 3, 16, 16}, 72);

  ExecOptions t1;
  t1.threads = 1;
  t1.fast = true;
  t1.quant = &qw;
  ExecOptions t3 = t1;
  t3.threads = 3;

  const auto a = run_forward(g, w, in, t1);
  const auto b = run_forward(g, w, in, t3);
  // Fast forfeits bit-identity with the default path, NOT determinism:
  // any thread count produces byte-identical output.
  EXPECT_EQ(max_abs_diff_t(a.output, b.output), 0.0);
}

TEST(FastTier, OffByDefaultIsBitIdenticalToDefaultPath) {
  const Graph g = small_graph();
  const WeightsF w = init_msra(g, 81);
  const TensorF in = random_tensor(Shape{2, 3, 16, 16}, 82);
  ExecOptions opts;  // fast not set, no env
  const auto a = run_forward(g, w, in, ExecOptions{});
  const auto b = run_forward(g, w, in, opts);
  EXPECT_EQ(max_abs_diff_t(a.output, b.output), 0.0);
}

TEST(ResolveFast, ExplicitRequestAlwaysWins) {
  ::unsetenv("NCSW_FAST");
  EXPECT_TRUE(resolve_fast(true));
  EXPECT_FALSE(resolve_fast(false));
}

TEST(ResolveFast, EnvSpellings) {
  for (const char* on : {"1", "true", "on"}) {
    ::setenv("NCSW_FAST", on, 1);
    EXPECT_TRUE(resolve_fast(false)) << on;
  }
  for (const char* off : {"0", "false", "off", "", "yes-please"}) {
    ::setenv("NCSW_FAST", off, 1);
    EXPECT_FALSE(resolve_fast(false)) << off;
  }
  ::unsetenv("NCSW_FAST");
  EXPECT_FALSE(resolve_fast(false));
}

}  // namespace
