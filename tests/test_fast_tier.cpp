// Digest-tolerance tests for the opt-in fast host tier
// (docs/performance.md): the fast kernels forfeit bit-identity with the
// default path, so these tests pin down what the tier still guarantees —
// bounded per-element drift against the exact-tier kernels, exact
// equality where both tiers share a kernel (max pool), byte
// determinism across thread counts, and a default-off switch that leaves
// the bit-identical path untouched.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <ostream>

#include "core/host_target.h"
#include "core/model.h"
#include "half/half.h"
#include "nn/executor.h"
#include "nn/kernels.h"
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

// gtest (and the ctest ids built from its listing) print a case by its
// description; the default would print the struct's raw bytes, padding
// and string address included, which change from build to build.
void PrintTo(const FastConvCase& c, std::ostream* os) { *os << c.what; }

class FastConvTest : public ::testing::TestWithParam<FastConvCase> {};

TEST_P(FastConvTest, FusedMatchesConvPlusReluBothPrecisions) {
  const FastConvCase c = GetParam();
  const TensorF in = random_tensor(Shape{2, c.in_c, c.h, c.w}, 101);
  LayerParams<float> p;
  p.w = random_tensor(Shape{c.out_c, c.in_c, c.kernel, c.kernel}, 102);
  p.b = random_tensor(Shape{1, c.out_c, 1, 1}, 103);
  const ConvParams cp{c.out_c, c.kernel, c.stride, c.pad};
  const kernels::ConvOperand op(in.shape(), cp);
  kernels::ExecCtx fast_ctx;
  fast_ctx.fast = true;

  // FP32: unfused exact conv then ReLU vs the fused fast conv.
  TensorF ref;
  kernels::conv2d(in, p, cp, ref);
  kernels::relu(ref);
  TensorF out;
  kernels::conv2d(in, p, op, /*fuse_relu=*/true, out, fast_ctx);
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
  kernels::conv2d(hin, hp, op, true, hout, fast_ctx);
  ASSERT_EQ(hout.shape(), href.shape()) << c.what;
  EXPECT_LT(max_abs_diff_t(hout, href), 0.05) << c.what;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FastConvTest,
    ::testing::Values(
        // Wide stride-1 3x3 map: 196 columns, 12 full 16-column panels
        // and a 4-column edge.
        FastConvCase{3, 14, 14, 8, 3, 1, 1, "wide 3x3"},
        // 576 columns: two of the fast GEMM's 256-column panels and a
        // third of 64, read through the row table.
        FastConvCase{3, 24, 24, 8, 3, 1, 1, "3x3 over three panels"},
        FastConvCase{3, 14, 14, 8, 3, 2, 1, "3x3 stride 2"},
        // Narrow stride-1 3x3: 36 columns.
        FastConvCase{4, 6, 6, 4, 3, 1, 1, "narrow 3x3"},
        // Pointwise 1x1: B is the input itself.
        FastConvCase{8, 10, 10, 16, 1, 1, 0, "1x1"},
        // Larger kernels and strides.
        FastConvCase{2, 12, 12, 6, 5, 1, 2, "5x5"},
        FastConvCase{3, 23, 23, 8, 7, 2, 3, "7x7 stride 2"}));

template <typename T>
void prepared_panel_case(const Graph& g, const Weights<T>& w,
                         const Tensor<T>& in) {
  const Plan<T> plan(g, w, /*fast=*/true);
  const kernels::LayerWeights* lw = plan.layer_weights(1);
  ASSERT_NE(lw, nullptr);
  const kernels::ConvOperand op(in.shape(), ConvParams{8, 3, 1, 1});
  kernels::ExecCtx fast_ctx;
  fast_ctx.fast = true;
  Tensor<T> a, b;
  kernels::conv2d(in, w.at("conv"), op, true, a, fast_ctx);
  kernels::conv2d(in, *lw, op, true, b, fast_ctx);
  EXPECT_EQ(max_abs_diff_t(a, b), 0.0);
}

TEST(FastConv, PreparedPanelMatchesPerCallExpansion) {
  // The plan's graph-load-time FP32 panel must reproduce the per-call
  // conversion of the layer's own parameters exactly: same layout, no
  // re-rounding.
  Graph g("one-conv");
  const int in_id = g.add_input("data", 3, 12, 12);
  g.add_conv("conv", in_id, ConvParams{8, 3, 1, 1});
  const WeightsF w = init_msra(g, 42);
  const TensorF in = random_tensor(Shape{1, 3, 12, 12}, 43);
  prepared_panel_case<float>(g, w, in);
  prepared_panel_case<half>(g, to_fp16(w), to_half(in));
}

TEST(FastMaxPool3, ExactlyMatchesScalarPath) {
  // Both tiers run the same row-first max pool, so the fast tier must
  // agree with the exact one to the bit, padding included. The fold
  // order is what makes that hold: +-0 ties (and NaNs) make max
  // order-dependent, and a column-first fold keeps a different tie
  // (KernelBitIdentity.MaxPoolTiesNanAndInfBothTiersBothPrecisions).
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
  const TensorF in = random_tensor(Shape{4, 3, 16, 16}, 62);

  ExecOptions base;
  base.threads = 1;
  ExecOptions fast = base;
  fast.fast = true;

  const auto pb = run_probabilities(g, w, in, base);
  const auto pf = run_probabilities(g, w, in, fast);
  ASSERT_EQ(pb.size(), pf.size());
  // Same top-1 on every item and bounded confidence drift — the fig7
  // acceptance style, applied per item.
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
  const TensorF in = random_tensor(Shape{4, 3, 16, 16}, 72);

  ExecOptions t1;
  t1.threads = 1;
  t1.fast = true;
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

TEST(FastTier, HostTargetSetFastClassifiesThroughAFastPlan) {
  // set_fast builds the target's fast plan once; classify() then returns
  // exactly that plan's probabilities, and set_fast(false) goes back to
  // the exact plan's.
  ncsw::dataset::DatasetConfig dc;
  dc.images_per_subset = 4;
  const ncsw::dataset::SyntheticImageNet data(dc);
  const auto bundle = ncsw::core::ModelBundle::tiny_functional(data);
  const Graph& g = bundle->graph;
  const Shape item = g.layer(g.input_id()).out_shape;
  std::vector<TensorF> inputs;
  TensorF batch(item.with_batch(3));
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(random_tensor(item, 90 + static_cast<std::uint64_t>(i)));
    std::copy(inputs.back().data(), inputs.back().data() + item.numel(),
              batch.batch_ptr(i));
  }
  auto cpu = ncsw::core::make_cpu_target(bundle);
  for (const bool fast : {true, false}) {
    cpu->set_fast(fast);
    const auto got = cpu->classify(inputs);
    const auto want = run_probabilities(
        Plan<float>(g, bundle->weights_f32, fast), batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].probs, want[i]) << "fast " << fast << " item " << i;
    }
  }
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
