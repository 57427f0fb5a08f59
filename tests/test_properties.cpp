// Property-based tests: algebraic invariants of the kernels, executor and
// compiler, swept over random seeds with TEST_P. These catch whole
// classes of bugs (wrong padding arithmetic, accumulation-order breakage,
// precision-dependent cost accounting) that example-based tests miss.
#include <gtest/gtest.h>

#include <cmath>

#include "conv_unfused.h"
#include "graphc/compiler.h"
#include "nn/executor.h"
#include "nn/googlenet.h"
#include "nn/kernels.h"
#include "util/rng.h"

namespace {

using namespace ncsw::nn;
using ncsw::tensor::Shape;
using ncsw::tensor::TensorF;

TensorF random_tensor(const Shape& s, std::uint64_t seed, double lo = -1,
                      double hi = 1) {
  ncsw::util::Xoshiro256 rng(seed);
  TensorF t(s);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

class SeedParam : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SeedParam,
                         ::testing::Values(1u, 17u, 101u, 999u, 31337u));

TEST_P(SeedParam, ConvIsLinearInItsInput) {
  const std::uint64_t seed = GetParam();
  LayerParams<float> p;
  p.w = random_tensor(Shape{4, 3, 3, 3}, seed);
  p.b = TensorF(Shape{1, 4, 1, 1});  // zero bias for pure linearity
  const ConvParams cp{4, 3, 1, 1};

  const TensorF x = random_tensor(Shape{1, 3, 7, 7}, seed + 1);
  const TensorF y = random_tensor(Shape{1, 3, 7, 7}, seed + 2);
  TensorF cx, cy, cxy, csx;

  conv2d_unfused(x, p, cp, cx);
  conv2d_unfused(y, p, cp, cy);
  TensorF xy(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) xy[i] = x[i] + y[i];
  conv2d_unfused(xy, p, cp, cxy);
  // conv(x + y) == conv(x) + conv(y)
  for (std::int64_t i = 0; i < cxy.numel(); ++i) {
    EXPECT_NEAR(cxy[i], cx[i] + cy[i], 1e-4f);
  }
  // conv(a * x) == a * conv(x)
  TensorF sx(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) sx[i] = 2.5f * x[i];
  conv2d_unfused(sx, p, cp, csx);
  for (std::int64_t i = 0; i < csx.numel(); ++i) {
    EXPECT_NEAR(csx[i], 2.5f * cx[i], 1e-4f);
  }
}

TEST_P(SeedParam, SoftmaxIsShiftInvariant) {
  const TensorF x = random_tensor(Shape{2, 9, 1, 1}, GetParam());
  TensorF shifted(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) shifted[i] = x[i] + 37.5f;
  TensorF sx, ss;
  kernels::softmax(x, sx);
  kernels::softmax(shifted, ss);
  for (std::int64_t i = 0; i < sx.numel(); ++i) {
    EXPECT_NEAR(sx[i], ss[i], 1e-5f);
  }
}

TEST_P(SeedParam, ReluIsIdempotentAndMonotone) {
  const TensorF x = random_tensor(Shape{1, 4, 5, 5}, GetParam(), -2, 2);
  TensorF once = x;
  kernels::relu(once);
  TensorF twice = once;
  kernels::relu(twice);
  EXPECT_EQ(ncsw::tensor::max_abs_diff(once, twice), 0.0);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_GE(once[i], 0.0f);
    EXPECT_LE(once[i], std::max(x[i], 0.0f) + 1e-7f);
  }
}

TEST_P(SeedParam, MaxPoolCommutesWithPositiveScaling) {
  const TensorF x = random_tensor(Shape{1, 3, 9, 9}, GetParam());
  const PoolParams pp{3, 2, 0, true, false};
  TensorF px, psx;
  kernels::max_pool(x, pp, px);
  TensorF sx(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) sx[i] = 3.0f * x[i];
  kernels::max_pool(sx, pp, psx);
  for (std::int64_t i = 0; i < px.numel(); ++i) {
    EXPECT_NEAR(psx[i], 3.0f * px[i], 1e-5f);
  }
}

TEST_P(SeedParam, MaxPoolDominatesAvgPool) {
  const TensorF x = random_tensor(Shape{1, 2, 8, 8}, GetParam());
  const PoolParams pp{2, 2, 0, true, false};  // no padding: max >= avg
  TensorF mx, ax;
  kernels::max_pool(x, pp, mx);
  kernels::avg_pool(x, pp, ax);
  for (std::int64_t i = 0; i < mx.numel(); ++i) {
    EXPECT_GE(mx[i], ax[i] - 1e-6f);
  }
}

TEST_P(SeedParam, AvgPoolIsLinear) {
  const TensorF x = random_tensor(Shape{1, 2, 6, 6}, GetParam());
  const TensorF y = random_tensor(Shape{1, 2, 6, 6}, GetParam() + 7);
  const PoolParams pp{2, 2, 0, true, false};
  TensorF ax, ay, axy;
  kernels::avg_pool(x, pp, ax);
  kernels::avg_pool(y, pp, ay);
  TensorF xy(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) xy[i] = x[i] + y[i];
  kernels::avg_pool(xy, pp, axy);
  for (std::int64_t i = 0; i < axy.numel(); ++i) {
    EXPECT_NEAR(axy[i], ax[i] + ay[i], 1e-5f);
  }
}

TEST_P(SeedParam, LrnNeverAmplifiesWithUnitK) {
  // scale = k + a/n * sumsq >= 1 when k = 1, so |out| <= |in|.
  const TensorF x = random_tensor(Shape{1, 8, 4, 4}, GetParam(), -3, 3);
  TensorF out;
  kernels::lrn(x, LRNParams{5, 1e-2f, 0.75f, 1.0f}, out);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::abs(out[i]), std::abs(x[i]) + 1e-6f);
  }
}

TEST_P(SeedParam, ConcatPreservesEveryElement) {
  const TensorF a = random_tensor(Shape{2, 3, 4, 4}, GetParam());
  const TensorF b = random_tensor(Shape{2, 5, 4, 4}, GetParam() + 1);
  TensorF cat;
  kernels::concat({&a, &b}, cat);
  double sum_in = 0, sum_out = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) sum_in += a[i];
  for (std::int64_t i = 0; i < b.numel(); ++i) sum_in += b[i];
  for (std::int64_t i = 0; i < cat.numel(); ++i) sum_out += cat[i];
  EXPECT_NEAR(sum_in, sum_out, 1e-3);
  // Channel slices are verbatim copies.
  EXPECT_EQ(cat.at(1, 2, 3, 3), a.at(1, 2, 3, 3));
  EXPECT_EQ(cat.at(1, 3 + 4, 0, 1), b.at(1, 4, 0, 1));
}

TEST_P(SeedParam, ExecutorIsPermutationEquivariantOverBatch) {
  const Graph g = build_tiny_googlenet({32, 6});
  const WeightsF w = init_msra(g, GetParam());
  const TensorF x0 = random_tensor(Shape{1, 3, 32, 32}, GetParam() + 1);
  const TensorF x1 = random_tensor(Shape{1, 3, 32, 32}, GetParam() + 2);

  TensorF fwd(Shape{2, 3, 32, 32}), rev(Shape{2, 3, 32, 32});
  std::copy(x0.data(), x0.data() + x0.numel(), fwd.batch_ptr(0));
  std::copy(x1.data(), x1.data() + x1.numel(), fwd.batch_ptr(1));
  std::copy(x1.data(), x1.data() + x1.numel(), rev.batch_ptr(0));
  std::copy(x0.data(), x0.data() + x0.numel(), rev.batch_ptr(1));

  const auto pf = run_probabilities(g, w, fwd);
  const auto pr = run_probabilities(g, w, rev);
  for (std::size_t c = 0; c < pf[0].size(); ++c) {
    EXPECT_NEAR(pf[0][c], pr[1][c], 1e-6f);
    EXPECT_NEAR(pf[1][c], pr[0][c], 1e-6f);
  }
}

TEST_P(SeedParam, CompilerCostsInvariantToWeights) {
  // Costs depend on structure only — two graphs with identical topology
  // compile identically regardless of which seed initialised anything.
  const auto a = ncsw::graphc::compile(build_tiny_googlenet({32, 10}),
                                       ncsw::graphc::Precision::kFP16);
  const auto b = ncsw::graphc::compile(build_tiny_googlenet({32, 10}),
                                       ncsw::graphc::Precision::kFP16);
  EXPECT_EQ(a.total_macs(), b.total_macs());
  EXPECT_EQ(ncsw::graphc::serialize(a), ncsw::graphc::serialize(b));
  (void)GetParam();
}

TEST(CompilerProperty, TileCountMonotoneInQuantumSize) {
  const Graph g = build_googlenet();
  std::int64_t prev_tiles = std::numeric_limits<std::int64_t>::max();
  for (std::int64_t quantum : {50'000, 100'000, 200'000, 800'000}) {
    ncsw::graphc::CompileOptions opts;
    opts.macs_per_tile = quantum;
    const auto c = ncsw::graphc::compile(g, ncsw::graphc::Precision::kFP16,
                                         opts);
    std::int64_t tiles = 0;
    for (const auto& l : c.layers) tiles += l.tiles;
    EXPECT_LE(tiles, prev_tiles);
    prev_tiles = tiles;
  }
}

TEST(PoolExtentProperty, CeilNeverBelowFloor) {
  for (int in = 4; in <= 64; ++in) {
    for (int k = 1; k <= 5; ++k) {
      for (int s = 1; s <= 4; ++s) {
        for (int pad = 0; pad < k; ++pad) {
          if (in + 2 * pad < k) continue;
          const auto ceil_v = pooled_extent(in, k, s, pad, true);
          const auto floor_v = pooled_extent(in, k, s, pad, false);
          EXPECT_GE(ceil_v, floor_v);
          EXPECT_LE(ceil_v, floor_v + 1);
          EXPECT_GE(floor_v, 1);
        }
      }
    }
  }
}

TEST(ConvExtentProperty, StrideOneWithSamePaddingPreservesSize) {
  for (int in = 3; in <= 64; ++in) {
    for (int k : {1, 3, 5, 7}) {
      EXPECT_EQ(conv_extent(in, k, 1, k / 2), in) << in << " " << k;
    }
  }
}

}  // namespace
