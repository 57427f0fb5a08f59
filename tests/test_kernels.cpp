#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "oracle/oracle.h"
#include "util/multiversion.h"
#include "util/rng.h"

namespace {

using namespace ncsw::nn;
using ncsw::fp16::half;
using ncsw::tensor::Shape;
using ncsw::tensor::Tensor;
using ncsw::tensor::TensorF;
using ncsw::tensor::TensorH;

TensorF random_tensor(const Shape& s, std::uint64_t seed) {
  ncsw::util::Xoshiro256 rng(seed);
  TensorF t(s);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// Direct (non-im2col) convolution reference.
TensorF conv_ref(const TensorF& in, const LayerParams<float>& p,
                 const ConvParams& cp) {
  const Shape& is = in.shape();
  const std::int64_t oh = conv_extent(is.h, cp.kernel, cp.stride, cp.pad);
  const std::int64_t ow = conv_extent(is.w, cp.kernel, cp.stride, cp.pad);
  TensorF out(Shape{is.n, cp.out_channels, oh, ow});
  for (std::int64_t b = 0; b < is.n; ++b) {
    for (std::int64_t oc = 0; oc < cp.out_channels; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = p.b[oc];
          for (std::int64_t ic = 0; ic < is.c; ++ic) {
            for (int ky = 0; ky < cp.kernel; ++ky) {
              for (int kx = 0; kx < cp.kernel; ++kx) {
                const std::int64_t iy = oy * cp.stride - cp.pad + ky;
                const std::int64_t ix = ox * cp.stride - cp.pad + kx;
                if (iy < 0 || iy >= is.h || ix < 0 || ix >= is.w) continue;
                acc += static_cast<double>(in.at(b, ic, iy, ix)) *
                       p.w.at(oc, ic, ky, kx);
              }
            }
          }
          out.at(b, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  int in_c, h, w, out_c, kernel, stride, pad, batch;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, Im2colMatchesDirectConvolution) {
  const ConvCase c = GetParam();
  const TensorF in = random_tensor(Shape{c.batch, c.in_c, c.h, c.w}, 11);
  LayerParams<float> p;
  p.w = random_tensor(Shape{c.out_c, c.in_c, c.kernel, c.kernel}, 12);
  p.b = random_tensor(Shape{1, c.out_c, 1, 1}, 13);
  const ConvParams cp{c.out_c, c.kernel, c.stride, c.pad};
  TensorF out;
  kernels::conv2d(in, p, cp, out);
  const TensorF ref = conv_ref(in, p, cp);
  ASSERT_EQ(out.shape(), ref.shape());
  EXPECT_LT(ncsw::tensor::max_abs_diff(out, ref), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvParamTest,
    ::testing::Values(ConvCase{1, 5, 5, 1, 3, 1, 0, 1},
                      ConvCase{3, 8, 8, 4, 3, 1, 1, 1},
                      ConvCase{2, 9, 7, 5, 5, 2, 2, 1},
                      ConvCase{4, 6, 6, 8, 1, 1, 0, 2},
                      ConvCase{3, 12, 12, 6, 7, 2, 3, 2},
                      ConvCase{1, 4, 4, 2, 4, 4, 0, 1}));

TEST(Conv, RejectsWrongWeightShape) {
  const TensorF in = random_tensor(Shape{1, 3, 8, 8}, 1);
  LayerParams<float> p;
  p.w = TensorF(Shape{4, 3, 5, 5});
  p.b = TensorF(Shape{1, 4, 1, 1});
  TensorF out;
  EXPECT_THROW(kernels::conv2d(in, p, ConvParams{4, 3, 1, 1}, out),
               std::invalid_argument);
}

TEST(Conv, Fp16PathCloseToFp32) {
  const TensorF in = random_tensor(Shape{1, 3, 10, 10}, 21);
  LayerParams<float> pf;
  pf.w = random_tensor(Shape{4, 3, 3, 3}, 22);
  pf.b = random_tensor(Shape{1, 4, 1, 1}, 23);
  LayerParams<half> ph;
  ph.w = ncsw::tensor::tensor_cast<half>(pf.w);
  ph.b = ncsw::tensor::tensor_cast<half>(pf.b);
  const ConvParams cp{4, 3, 1, 1};
  TensorF out_f;
  kernels::conv2d(in, pf, cp, out_f);
  Tensor<half> out_h;
  kernels::conv2d(ncsw::tensor::tensor_cast<half>(in), ph, cp, out_h);
  EXPECT_LT(ncsw::tensor::max_abs_diff(out_f, out_h), 0.02);
}

TEST(Relu, ClampsNegatives) {
  TensorF t(Shape{1, 1, 1, 4});
  t[0] = -1.0f;
  t[1] = 0.0f;
  t[2] = 2.5f;
  t[3] = -0.0001f;
  kernels::relu(t);
  EXPECT_EQ(t[0], 0.0f);
  EXPECT_EQ(t[1], 0.0f);
  EXPECT_EQ(t[2], 2.5f);
  EXPECT_EQ(t[3], 0.0f);
}

TEST(MaxPool, HandComputedCase) {
  // 4x4 single channel, 2x2/2 pooling.
  TensorF in(Shape{1, 1, 4, 4});
  for (int i = 0; i < 16; ++i) in[i] = static_cast<float>(i);
  TensorF out;
  kernels::max_pool(in, PoolParams{2, 2, 0, true, false}, out);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(out[0], 5.0f);
  EXPECT_EQ(out[1], 7.0f);
  EXPECT_EQ(out[2], 13.0f);
  EXPECT_EQ(out[3], 15.0f);
}

TEST(MaxPool, PaddingNeverWins) {
  // All-negative input with padding: padded zeros must not appear.
  TensorF in(Shape{1, 1, 3, 3}, -5.0f);
  TensorF out;
  kernels::max_pool(in, PoolParams{3, 2, 1, true, false}, out);
  for (std::int64_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out[i], -5.0f);
}

TEST(MaxPool, CeilModeProducesExtraWindow) {
  TensorF in(Shape{1, 1, 5, 5}, 1.0f);
  TensorF out_ceil, out_floor;
  kernels::max_pool(in, PoolParams{2, 2, 0, true, false}, out_ceil);
  kernels::max_pool(in, PoolParams{2, 2, 0, false, false}, out_floor);
  EXPECT_EQ(out_ceil.shape().h, 3);
  EXPECT_EQ(out_floor.shape().h, 2);
}

TEST(MaxPool, GlobalReducesToOnePixel) {
  TensorF in = random_tensor(Shape{2, 3, 5, 7}, 31);
  PoolParams p;
  p.global = true;
  TensorF out;
  kernels::max_pool(in, p, out);
  ASSERT_EQ(out.shape(), (Shape{2, 3, 1, 1}));
  // Verify channel 1 of batch 1.
  float best = -1e30f;
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 7; ++x) best = std::max(best, in.at(1, 1, y, x));
  }
  EXPECT_FLOAT_EQ(out.at(1, 1, 0, 0), best);
}

TEST(AvgPool, SimpleAverage) {
  TensorF in(Shape{1, 1, 2, 2});
  in[0] = 1;
  in[1] = 2;
  in[2] = 3;
  in[3] = 4;
  TensorF out;
  kernels::avg_pool(in, PoolParams{2, 2, 0, true, false}, out);
  ASSERT_EQ(out.numel(), 1);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
}

TEST(AvgPool, GlobalAverage) {
  TensorF in = random_tensor(Shape{1, 2, 4, 4}, 5);
  PoolParams p;
  p.global = true;
  TensorF out;
  kernels::avg_pool(in, p, out);
  double sum = 0;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) sum += in.at(0, 1, y, x);
  }
  EXPECT_NEAR(out.at(0, 1, 0, 0), sum / 16.0, 1e-5);
}

TEST(AvgPool, CaffePaddedDivisorCountsPadCells) {
  // 2x2 input, 2x2 kernel, stride 2, pad 1 (ceil) -> 2x2 output. The
  // corner window covers 1 real cell + 3 padded cells; Caffe divides by 4.
  TensorF in(Shape{1, 1, 2, 2}, 8.0f);
  TensorF out;
  kernels::avg_pool(in, PoolParams{2, 2, 1, true, false}, out);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 2.0f);  // 8 / 4
}

TEST(Lrn, MatchesClosedForm) {
  TensorF in(Shape{1, 3, 1, 1});
  in[0] = 1.0f;
  in[1] = 2.0f;
  in[2] = 3.0f;
  const LRNParams p{3, 0.5f, 0.75f, 2.0f};
  TensorF out;
  kernels::lrn(in, p, out);
  // Channel 1 window covers all three channels: sumsq = 14.
  const float scale = 2.0f + 0.5f / 3.0f * 14.0f;
  EXPECT_NEAR(out[1], 2.0f / std::pow(scale, 0.75f), 1e-5);
  // Channel 0 window covers channels 0..1: sumsq = 5.
  const float scale0 = 2.0f + 0.5f / 3.0f * 5.0f;
  EXPECT_NEAR(out[0], 1.0f / std::pow(scale0, 0.75f), 1e-5);
}

TEST(Lrn, UnitParamsNearIdentityForSmallInputs) {
  TensorF in(Shape{1, 4, 2, 2}, 1e-3f);
  TensorF out;
  kernels::lrn(in, LRNParams{5, 1e-4f, 0.75f, 1.0f}, out);
  for (std::int64_t i = 0; i < in.numel(); ++i) {
    EXPECT_NEAR(out[i], in[i], 1e-6);
  }
}

TEST(Concat, OrderedChannelStacking) {
  TensorF a(Shape{1, 1, 2, 2}, 1.0f);
  TensorF b(Shape{1, 2, 2, 2}, 2.0f);
  TensorF out;
  kernels::concat({&a, &b}, out);
  ASSERT_EQ(out.shape(), (Shape{1, 3, 2, 2}));
  EXPECT_EQ(out.at(0, 0, 0, 0), 1.0f);
  EXPECT_EQ(out.at(0, 1, 1, 1), 2.0f);
  EXPECT_EQ(out.at(0, 2, 0, 1), 2.0f);
}

TEST(Concat, BatchedCopiesPerItem) {
  TensorF a(Shape{2, 1, 1, 1});
  a[0] = 1;
  a[1] = 2;
  TensorF b(Shape{2, 1, 1, 1});
  b[0] = 3;
  b[1] = 4;
  TensorF out;
  kernels::concat({&a, &b}, out);
  EXPECT_EQ(out.at(0, 0, 0, 0), 1);
  EXPECT_EQ(out.at(0, 1, 0, 0), 3);
  EXPECT_EQ(out.at(1, 0, 0, 0), 2);
  EXPECT_EQ(out.at(1, 1, 0, 0), 4);
}

TEST(Concat, MismatchThrows) {
  TensorF a(Shape{1, 1, 2, 2});
  TensorF b(Shape{1, 1, 3, 2});
  TensorF out;
  EXPECT_THROW(kernels::concat({&a, &b}, out), std::invalid_argument);
  EXPECT_THROW(kernels::concat(std::vector<const TensorF*>{}, out),
               std::invalid_argument);
}

TEST(Fc, MatchesManualDotProduct) {
  TensorF in(Shape{1, 1, 1, 3});
  in[0] = 1;
  in[1] = 2;
  in[2] = 3;
  LayerParams<float> p;
  p.w = TensorF(Shape{2, 3, 1, 1});
  // Row 0: [1,0,0]; row 1: [0.5, 0.5, 0.5]
  p.w[0] = 1;
  p.w[3] = 0.5f;
  p.w[4] = 0.5f;
  p.w[5] = 0.5f;
  p.b = TensorF(Shape{1, 2, 1, 1});
  p.b[1] = 10.0f;
  TensorF out;
  kernels::fully_connected(in, p, FCParams{2}, out);
  ASSERT_EQ(out.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 13.0f);
}

TEST(Fc, WrongWeightShapeThrows) {
  TensorF in(Shape{1, 1, 1, 3});
  LayerParams<float> p;
  p.w = TensorF(Shape{2, 4, 1, 1});
  p.b = TensorF(Shape{1, 2, 1, 1});
  TensorF out;
  EXPECT_THROW(kernels::fully_connected(in, p, FCParams{2}, out),
               std::invalid_argument);
}

TEST(Softmax, SumsToOneAndOrdersPreserved) {
  TensorF in(Shape{2, 4, 1, 1});
  in[0] = 1;
  in[1] = 2;
  in[2] = 3;
  in[3] = 0;
  in[4] = -1;
  in[5] = -1;
  in[6] = -1;
  in[7] = 5;
  TensorF out;
  kernels::softmax(in, out);
  for (std::int64_t b = 0; b < 2; ++b) {
    double sum = 0;
    for (std::int64_t c = 0; c < 4; ++c) sum += out.at(b, c, 0, 0);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  EXPECT_GT(out[2], out[1]);
  EXPECT_GT(out[1], out[0]);
  EXPECT_GT(out.at(1, 3, 0, 0), 0.9f);
}

TEST(Softmax, StableForLargeLogits) {
  TensorF in(Shape{1, 2, 1, 1});
  in[0] = 10000.0f;
  in[1] = 9999.0f;
  TensorF out;
  kernels::softmax(in, out);
  EXPECT_NEAR(out[0], 1.0f / (1.0f + std::exp(-1.0f)), 1e-5);
  EXPECT_FALSE(std::isnan(out[0]));
}

TEST(Softmax, Fp16OutputStillNormalised) {
  Tensor<half> in(Shape{1, 8, 1, 1});
  for (int i = 0; i < 8; ++i) in[i] = half(static_cast<float>(i) * 0.25f);
  Tensor<half> out;
  kernels::softmax(in, out);
  double sum = 0;
  for (int i = 0; i < 8; ++i) sum += static_cast<float>(out[i]);
  EXPECT_NEAR(sum, 1.0, 5e-3);  // FP16 rounding tolerance
}

// --- bit-identity: oracle vs optimised vs threaded ------------------------
// The cache-tuned / threaded kernels claim byte-equal outputs with the
// pre-rewrite scalar kernels (the test-only oracle) for any thread count.
// Each case runs the oracle and two configurations of the production
// kernel on the same input and compares raw bytes.

template <typename T>
void expect_bytes_equal(const Tensor<T>& a, const Tensor<T>& b,
                        const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(T)))
      << what;
}

kernels::ExecCtx threaded_ctx(kernels::Workspace& ws, int threads) {
  kernels::ExecCtx ctx;
  ctx.ws = &ws;
  ctx.threads = threads;
  return ctx;
}

// Run `oracle(out)`, then `op(out, ctx)` serial and threaded, and
// require byte-equal outputs.
template <typename T, typename Oracle, typename Op>
void expect_all_configs_bitwise_equal(const Oracle& oracle, const Op& op,
                                      const char* what) {
  Tensor<T> out_ref, out_opt, out_thr;
  kernels::Workspace ws;
  oracle(out_ref);
  op(out_opt, kernels::ExecCtx{});
  op(out_thr, threaded_ctx(ws, 4));
  expect_bytes_equal(out_opt, out_ref, what);
  expect_bytes_equal(out_thr, out_ref, what);
}

template <typename T>
struct ConvFixture {
  Tensor<T> in;
  LayerParams<T> p;
  ConvParams cp;
};

template <typename T>
ConvFixture<T> make_conv(const ConvCase& c, std::uint64_t seed) {
  const TensorF in_f = random_tensor(Shape{c.batch, c.in_c, c.h, c.w}, seed);
  LayerParams<float> pf;
  pf.w = random_tensor(Shape{c.out_c, c.in_c, c.kernel, c.kernel}, seed + 1);
  pf.b = random_tensor(Shape{1, c.out_c, 1, 1}, seed + 2);
  ConvFixture<T> f;
  f.in = ncsw::tensor::tensor_cast<T>(in_f);
  f.p.w = ncsw::tensor::tensor_cast<T>(pf.w);
  f.p.b = ncsw::tensor::tensor_cast<T>(pf.b);
  f.cp = ConvParams{c.out_c, c.kernel, c.stride, c.pad};
  return f;
}

template <typename T>
void conv_bit_identity_case(const ConvCase& c, std::uint64_t seed,
                            bool signed_zeros = false) {
  ConvFixture<T> f = make_conv<T>(c, seed);
  if (signed_zeros) {
    // Exact +0 and -0 inside the map, next to the +0 padding border.
    for (std::int64_t i = 0; i < f.in.numel(); i += 3) {
      f.in[i] = ncsw::tensor::scalar_cast<T>(i % 2 == 0 ? 0.0f : -0.0f);
    }
  }
  expect_all_configs_bitwise_equal<T>(
      [&](Tensor<T>& out) { ncsw::oracle::conv2d(f.in, f.p, f.cp, out); },
      [&](Tensor<T>& out, const kernels::ExecCtx& ctx) {
        kernels::conv2d(f.in, f.p, f.cp, out, ctx);
      },
      "conv2d");
}

TEST(KernelBitIdentity, Conv2dAllConfigsBothPrecisions) {
  const ConvCase cases[] = {{3, 11, 9, 5, 3, 2, 1, 2},
                            {4, 6, 6, 8, 1, 1, 0, 1},
                            {2, 9, 7, 5, 5, 2, 2, 3},
                            {1, 5, 5, 1, 3, 1, 0, 1},
                            {3, 10, 11, 4, 4, 3, 1, 2}};
  std::uint64_t seed = 1000;
  for (const auto& c : cases) {
    conv_bit_identity_case<float>(c, seed);
    conv_bit_identity_case<half>(c, seed);
    seed += 10;
  }
  // TinyGoogLeNet's padded spatial convs: the 7x7/s2 stem, a 5x5/p2
  // window wider than its 4x4 map, and a 3x3/p1 on 4x4.
  const ConvCase tiny_googlenet[] = {{3, 32, 32, 16, 7, 2, 3, 1},
                                     {8, 4, 4, 16, 5, 1, 2, 2},
                                     {24, 4, 4, 32, 3, 1, 1, 1}};
  for (const auto& c : tiny_googlenet) {
    conv_bit_identity_case<float>(c, seed, true);
    conv_bit_identity_case<half>(c, seed, true);
    seed += 10;
  }
}

// The exact tier feeds a 1x1 stride-1 unpadded conv's input straight to
// the GEMM; strided or padded 1x1s and larger kernels build shifted
// planes. Run a sequence of both through one workspace, so a conv after
// the direct path sees a plane arena it never grew, and compare each
// result with the oracle kernel byte for byte.
template <typename T>
void pointwise_sequence_case(int batch, int threads) {
  const ConvCase seq[] = {
      {6, 7, 9, 5, 1, 1, 0, batch},  // direct
      {5, 7, 9, 4, 3, 1, 1, batch},  // 3x3 right after the direct 1x1
      {6, 7, 9, 5, 1, 2, 0, batch},  // strided 1x1: planes
      {6, 7, 9, 5, 1, 1, 1, batch},  // padded 1x1: planes
      {8, 5, 6, 3, 1, 1, 0, batch},  // direct again, over grown planes
  };
  kernels::Workspace ws;
  std::uint64_t seed = 7000;
  for (const auto& c : seq) {
    const ConvFixture<T> f = make_conv<T>(c, seed += 10);
    Tensor<T> ref, got;
    ncsw::oracle::conv2d(f.in, f.p, f.cp, ref);
    kernels::conv2d(f.in, f.p, f.cp, got, threaded_ctx(ws, threads));
    SCOPED_TRACE(::testing::Message()
                 << "k" << c.kernel << " s" << c.stride << " p" << c.pad
                 << " batch " << batch << " threads " << threads);
    expect_bytes_equal(got, ref, "conv2d");
  }
}

TEST(KernelBitIdentity, Conv2dPointwiseDirectAndIm2colPaths) {
  for (const int batch : {1, 3}) {
    for (const int threads : {1, 4}) {
      pointwise_sequence_case<float>(batch, threads);
      pointwise_sequence_case<half>(batch, threads);
    }
  }
}

// --- conv geometry sweep ---------------------------------------------------
// The shifted planes and their row table (kernels::ConvOperand) against
// the oracle's im2col conv, byte for byte: kernels 1..5 and 7, strides
// 1..3 (so 1, 2 or 3 stride phases, and more phases than kernel columns
// for small kernels), every pad below the kernel, on odd, non-square,
// narrow (ow < 4) and wide (ow = 19) maps, a 5x5/p2 window on a 4x4
// map, and GoogLeNet's 7x7 map. Each geometry runs unfused and with a
// fused ReLU, in both precisions, at 1, 3 and 4 threads and batch 1 and
// 3, all through one workspace, so a plane or padding border left by an
// earlier geometry would show. The threaded runs split the columns on
// 16-column panel boundaries: at stride 1 the 7x7 map's 49 columns are
// 4 panels, the last a 1-column edge, so 3 threads put the edge in a
// chunk with a full panel and 4 threads give it a chunk of its own.

// make_conv() plus special values. Input channel 0 holds NaNs, +-inf
// (`with_inf`) and +-0 at every third position; the even output channels
// have exact-zero weights on channel 0 (one of them -0), so their outputs
// stay finite only if the GEMM still skips those terms (0 * inf and
// 0 * NaN are NaN). Every seventh value of the other channels is +-0.
//
// Each fixture holds one NaN pattern: `nan` itself, and with infinities
// only x86's default NaN (-qNaN), the one inf - inf produces. When two
// NaNs of different sign meet in one sum, which one survives depends on
// the operand order the compiler gave each add, and the oracle's scalar
// loop and the GEMM's vector tiles do not agree on it (CHANGES.md).
template <typename T>
ConvFixture<T> special_conv(const ConvCase& c, std::uint64_t seed, float nan,
                            bool with_inf) {
  ConvFixture<T> f = make_conv<T>(c, seed);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan, with_inf ? inf : nan, 0.0f,
                            nan, with_inf ? -inf : nan, -0.0f};
  const std::int64_t hw = static_cast<std::int64_t>(c.h) * c.w;
  for (std::int64_t b = 0; b < c.batch; ++b) {
    T* item = f.in.batch_ptr(b);
    for (std::int64_t i = 0; i < hw; i += 3) {
      item[i] = ncsw::tensor::scalar_cast<T>(specials[(i / 3 + b) % 6]);
    }
    for (std::int64_t i = hw; i < c.in_c * hw; i += 7) {
      item[i] = ncsw::tensor::scalar_cast<T>(i % 2 == 0 ? 0.0f : -0.0f);
    }
  }
  const std::int64_t kk = static_cast<std::int64_t>(c.kernel) * c.kernel;
  for (std::int64_t oc = 0; oc < c.out_c; oc += 2) {
    T* w = f.p.w.data() + oc * c.in_c * kk;
    for (std::int64_t i = 0; i < kk; ++i) {
      w[i] = ncsw::tensor::scalar_cast<T>(i == 1 ? -0.0f : 0.0f);
    }
  }
  return f;
}

template <typename T>
void conv_sweep_case(const ConvFixture<T>& f, kernels::Workspace& ws) {
  Tensor<T> ref, ref_relu;
  ncsw::oracle::conv2d(f.in, f.p, f.cp, ref);
  ref_relu = ref;
  ncsw::oracle::relu(ref_relu);
  const kernels::LayerWeights lw(f.p);
  const kernels::ConvOperand op(f.in.shape(), f.cp);
  for (const int threads : {1, 3, 4}) {
    for (const bool fuse : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (std::is_same_v<T, float> ? "fp32" : "fp16")
                   << " threads " << threads << " relu " << fuse);
      Tensor<T> got;
      kernels::conv2d(f.in, lw, op, fuse, got, threaded_ctx(ws, threads));
      expect_bytes_equal(got, fuse ? ref_relu : ref, "conv2d");
    }
  }
}

TEST(KernelBitIdentity, Conv2dGeometrySweep) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  struct Map {
    int h, w;
  };
  // Odd, non-square, narrow and wide maps, TinyGoogLeNet's 4x4 and
  // GoogLeNet's 7x7.
  const Map maps[] = {{9, 7}, {5, 11}, {4, 4}, {3, 2}, {6, 19}, {7, 7}};
  kernels::Workspace ws;
  std::uint64_t seed = 11000;
  int geometries = 0;
  for (const int k : {1, 2, 3, 4, 5, 7}) {
    for (const int s : {1, 2, 3}) {
      for (int pad = 0; pad < k; ++pad) {
        for (const Map& m : maps) {
          if (m.h + 2 * pad < k || m.w + 2 * pad < k) continue;
          ++geometries;
          for (const int batch : {1, 3}) {
            const ConvCase c{3, m.h, m.w, 5, k, s, pad, batch};
            SCOPED_TRACE(::testing::Message()
                         << m.h << "x" << m.w << " k" << k << " s" << s
                         << " p" << pad << " batch " << batch);
            for (const bool with_inf : {true, false}) {
              const float nan = with_inf ? -kNaN : kNaN;
              conv_sweep_case(special_conv<float>(c, seed, nan, with_inf), ws);
              conv_sweep_case(special_conv<half>(c, seed, nan, with_inf), ws);
            }
            seed += 10;
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_GT(geometries, 250);
}

TEST(Conv, PointwiseConvSkipsThePlaneArena) {
  // An FP32 1x1/s1/p0 conv reads its input in place, so it leaves every
  // workspace arena empty; the same conv at stride 2 builds planes.
  const ConvFixture<float> f = make_conv<float>({6, 7, 9, 5, 1, 1, 0, 2}, 9000);
  kernels::Workspace ws;
  TensorF out;
  kernels::conv2d(f.in, f.p, f.cp, out, threaded_ctx(ws, 1));
  EXPECT_EQ(ws.capacity_bytes(), 0u);
  kernels::conv2d(f.in, f.p, ConvParams{5, 1, 2, 0}, out,
                  threaded_ctx(ws, 1));
  EXPECT_GT(ws.capacity_bytes(), 0u);
}

template <typename T>
void relu_bit_identity_case() {
  TensorF src_f = random_tensor(Shape{2, 3, 7, 5}, 2000);
  // -0 and NaN pass through unchanged; -inf becomes +0.
  const float specials[] = {-0.0f, 0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (std::size_t i = 0; i < std::size(specials); ++i) {
    src_f[static_cast<std::int64_t>(i * 17)] = specials[i];
  }
  const Tensor<T> src = ncsw::tensor::tensor_cast<T>(src_f);
  Tensor<T> ref = src, opt = src, thr = src;
  kernels::Workspace ws;
  ncsw::oracle::relu(ref);
  kernels::relu(opt, kernels::ExecCtx{});
  kernels::relu(thr, threaded_ctx(ws, 4));
  expect_bytes_equal(opt, ref, "relu");
  expect_bytes_equal(thr, ref, "relu");
}

TEST(KernelBitIdentity, ReluAllConfigsBothPrecisions) {
  relu_bit_identity_case<float>();
  relu_bit_identity_case<half>();
}

TEST(KernelBitIdentity, HalfReluMatchesReferenceOnEveryBitPattern) {
  // The FP16 ReLU tests bits instead of comparing the widened float;
  // every pattern (±0, subnormals, ±inf, NaNs of both signs) must come
  // out as the oracle's float comparison leaves it.
  Tensor<half> ref(Shape{1, 1, 256, 256});
  for (std::uint32_t b = 0; b < 65536; ++b) {
    ref.data()[b] = half::from_bits(static_cast<std::uint16_t>(b));
  }
  Tensor<half> opt = ref;
  ncsw::oracle::relu(ref);
  kernels::relu(opt, kernels::ExecCtx{});
  expect_bytes_equal(opt, ref, "relu");
}

// Max pool is specified by the oracle's scalar window loop. Average
// pool has no oracle kernel of its own: the serial production kernel
// with a call-local workspace is the spec (oracle::run_forward runs it
// too), and the threaded configurations must match it.
template <typename T>
void pool_bit_identity_case(const PoolParams& pp, const Shape& shape,
                            std::uint64_t seed) {
  const Tensor<T> in =
      ncsw::tensor::tensor_cast<T>(random_tensor(shape, seed));
  expect_all_configs_bitwise_equal<T>(
      [&](Tensor<T>& out) { ncsw::oracle::max_pool(in, pp, out); },
      [&](Tensor<T>& out, const kernels::ExecCtx& ctx) {
        kernels::max_pool(in, pp, out, ctx);
      },
      "max_pool");
  expect_all_configs_bitwise_equal<T>(
      [&](Tensor<T>& out) { kernels::avg_pool(in, pp, out); },
      [&](Tensor<T>& out, const kernels::ExecCtx& ctx) {
        kernels::avg_pool(in, pp, out, ctx);
      },
      "avg_pool");
}

TEST(KernelBitIdentity, PoolsAllConfigsBothPrecisions) {
  const PoolParams padded{3, 2, 1, true, false};
  const PoolParams global = [] {
    PoolParams p;
    p.global = true;
    return p;
  }();
  pool_bit_identity_case<float>(padded, Shape{2, 5, 9, 7}, 3000);
  pool_bit_identity_case<half>(padded, Shape{2, 5, 9, 7}, 3000);
  pool_bit_identity_case<float>(global, Shape{3, 4, 5, 6}, 3100);
  pool_bit_identity_case<half>(global, Shape{3, 4, 5, 6}, 3100);
}

// Planes built to expose a wrong fold order: values drawn from
// {+0, -0, NaN, +inf, -inf, 1, -1} with the zeros most likely, so most
// windows hold a +-0 tie and many hold NaNs or infinities. Plane 0 is
// all NaN (every window's max is the -inf seed). Plane 1 is a checker of
// -1 and zeros whose sign follows the row: in a window whose corner is
// -1, the first zero in row-major order (top row) and the first in
// column-major order (left column, one row down) differ in sign.
TensorF adversarial_planes(const Shape& s, std::uint64_t seed) {
  constexpr float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float alphabet[] = {0.0f, -0.0f, 0.0f, -0.0f, nan, inf, -inf,
                            1.0f, -1.0f};
  ncsw::util::Xoshiro256 rng(seed);
  TensorF t(s);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = alphabet[rng.next() % std::size(alphabet)];
  }
  for (std::int64_t i = 0; i < s.hw(); ++i) {
    t[i] = nan;
    const std::int64_t y = i / s.w, x = i % s.w;
    t[s.hw() + i] = (y + x) % 2 == 0 ? -1.0f : (y % 2 == 0 ? 0.0f : -0.0f);
  }
  return t;
}

// Both tiers, serial and threaded.
std::vector<kernels::ExecCtx> exact_and_fast_ctxs(kernels::Workspace& ws) {
  std::vector<kernels::ExecCtx> ctxs;
  for (const bool fast : {false, true}) {
    for (const int threads : {1, 3}) {
      kernels::ExecCtx ctx = threaded_ctx(ws, threads);
      ctx.fast = fast;
      ctxs.push_back(ctx);
    }
  }
  return ctxs;
}

std::vector<std::pair<const char*, PoolParams>> adversarial_pool_configs() {
  PoolParams global;
  global.global = true;
  return {{"3/s1/p1", PoolParams{3, 1, 1, true, false}},
          {"3/s2/p0 ceil", PoolParams{3, 2, 0, true, false}},
          {"3/s2/p1 floor", PoolParams{3, 2, 1, false, false}},
          {"2/s2/p0 ceil", PoolParams{2, 2, 0, true, false}},
          {"global", global}};
}

template <typename T>
void adversarial_pool_case(const Shape& shape, std::uint64_t seed) {
  const Tensor<T> in =
      ncsw::tensor::tensor_cast<T>(adversarial_planes(shape, seed));
  kernels::Workspace ws;
  for (const auto& [name, pp] : adversarial_pool_configs()) {
    Tensor<T> ref;
    ncsw::oracle::max_pool(in, pp, ref);
    for (const kernels::ExecCtx& ctx : exact_and_fast_ctxs(ws)) {
      SCOPED_TRACE(::testing::Message()
                   << name << " fast " << ctx.fast << " threads "
                   << ctx.threads << " shape " << shape.to_string());
      Tensor<T> got;
      kernels::max_pool(in, pp, got, ctx);
      expect_bytes_equal(got, ref, "max_pool");
    }
  }
}

TEST(KernelBitIdentity, MaxPoolTiesNanAndInfBothTiersBothPrecisions) {
  for (const Shape& shape : {Shape{2, 4, 9, 7}, Shape{1, 3, 8, 8},
                             Shape{1, 2, 4, 4}, Shape{1, 2, 16, 16}}) {
    adversarial_pool_case<float>(shape, 3500);
    adversarial_pool_case<half>(shape, 3500);
  }
}

// Negative control for the test above: a column-first fold (vertical
// maxima first, then horizontal, each `m < v ? v : m` from -inf) keeps
// the first tie of the first *column*, so on the signed-zero checker it
// must disagree with the row-major oracle.
TEST(KernelBitIdentity, ColumnFirstMaxPoolFailsTheSignedZeroPlanes) {
  const TensorF in = adversarial_planes(Shape{1, 2, 8, 8}, 3500);
  const PoolParams pp{3, 1, 1, true, false};
  TensorF ref;
  ncsw::oracle::max_pool(in, pp, ref);
  TensorF col_first(ref.shape());
  const float* plane = in.data() + in.shape().hw();  // the checker
  for (std::int64_t oy = 0; oy < 8; ++oy) {
    for (std::int64_t ox = 0; ox < 8; ++ox) {
      float m = -std::numeric_limits<float>::infinity();
      for (std::int64_t x = std::max<std::int64_t>(ox - 1, 0);
           x < std::min<std::int64_t>(ox + 2, 8); ++x) {
        float c = -std::numeric_limits<float>::infinity();
        for (std::int64_t y = std::max<std::int64_t>(oy - 1, 0);
             y < std::min<std::int64_t>(oy + 2, 8); ++y) {
          c = c < plane[y * 8 + x] ? plane[y * 8 + x] : c;
        }
        m = m < c ? c : m;
      }
      col_first[64 + oy * 8 + ox] = m;
    }
  }
  EXPECT_NE(0, std::memcmp(col_first.data() + 64, ref.data() + 64,
                           64 * sizeof(float)));
}

template <typename T>
void lrn_bit_identity_case(std::uint64_t seed) {
  const Tensor<T> in =
      ncsw::tensor::tensor_cast<T>(random_tensor(Shape{2, 7, 5, 3}, seed));
  const LRNParams p{5, 1e-4f, 0.75f, 2.0f};
  expect_all_configs_bitwise_equal<T>(
      [&](Tensor<T>& out) { ncsw::oracle::lrn(in, p, out); },
      [&](Tensor<T>& out, const kernels::ExecCtx& ctx) {
        kernels::lrn(in, p, out, ctx);
      },
      "lrn");
}

TEST(KernelBitIdentity, LrnAllConfigsBothPrecisions) {
  lrn_bit_identity_case<float>(4000);
  lrn_bit_identity_case<half>(4000);
}

template <typename T>
void fc_bit_identity_case(std::uint64_t seed) {
  const Tensor<T> in =
      ncsw::tensor::tensor_cast<T>(random_tensor(Shape{3, 4, 3, 3}, seed));
  LayerParams<T> p;
  p.w = ncsw::tensor::tensor_cast<T>(
      random_tensor(Shape{11, 4 * 3 * 3, 1, 1}, seed + 1));
  p.b =
      ncsw::tensor::tensor_cast<T>(random_tensor(Shape{1, 11, 1, 1}, seed + 2));
  expect_all_configs_bitwise_equal<T>(
      [&](Tensor<T>& out) {
        ncsw::oracle::fully_connected(in, p, FCParams{11}, out);
      },
      [&](Tensor<T>& out, const kernels::ExecCtx& ctx) {
        kernels::fully_connected(in, p, FCParams{11}, out, ctx);
      },
      "fully_connected");
}

TEST(KernelBitIdentity, FullyConnectedAllConfigsBothPrecisions) {
  fc_bit_identity_case<float>(5000);
  fc_bit_identity_case<half>(5000);
}

// --- Per-ISA variants ------------------------------------------------------
// The multiversioned loops of the exact kernels (util/multiversion.h) at
// every level this host can run, each against the oracle bit for bit:
// TinyGoogLeNet's compile-time shapes and widths that are not a multiple
// of 8 or 16 lanes, +-0 ties, infinities and NaNs. Where sums are
// involved, a fixture holds one NaN sign only (two NaNs of different
// sign meeting in one add keep whichever operand order the compiler
// picked).

using ncsw::util::IsaLevel;

std::vector<IsaLevel> runnable_isas() {
  std::vector<IsaLevel> out{IsaLevel::kBase};
  for (const IsaLevel l : {IsaLevel::kV3, IsaLevel::kV4}) {
    if (l <= ncsw::util::isa_level()) out.push_back(l);
  }
  return out;
}

const char* isa_name(IsaLevel l) {
  return l == IsaLevel::kBase ? "base" : l == IsaLevel::kV3 ? "v3" : "v4";
}

template <typename T>
void max_pool_isa_case(const Shape& shape, std::uint64_t seed) {
  const Tensor<T> in =
      ncsw::tensor::tensor_cast<T>(adversarial_planes(shape, seed));
  kernels::Workspace ws;
  for (const auto& [name, pp] : adversarial_pool_configs()) {
    Tensor<T> ref;
    ncsw::oracle::max_pool(in, pp, ref);
    for (const IsaLevel isa : runnable_isas()) {
      for (const int threads : {1, 3}) {
        SCOPED_TRACE(::testing::Message()
                     << name << " " << isa_name(isa) << " threads " << threads
                     << " shape " << shape.to_string());
        Tensor<T> got;
        kernels::detail::max_pool(in, pp, got, threaded_ctx(ws, threads), isa);
        expect_bytes_equal(got, ref, "max_pool");
      }
    }
  }
}

TEST(KernelIsa, MaxPoolTiesNanAndInfEveryVariant) {
  // TinyGoogLeNet's maps (16x16, 8x8, 4x4: the compile-time widths) and
  // odd ones.
  for (const Shape& shape :
       {Shape{1, 16, 16, 16}, Shape{2, 5, 8, 8}, Shape{1, 7, 4, 4},
        Shape{2, 4, 9, 7}, Shape{1, 3, 13, 11}, Shape{1, 3, 17, 17},
        Shape{1, 2, 5, 5}}) {
    max_pool_isa_case<float>(shape, 3600);
    max_pool_isa_case<half>(shape, 3600);
  }
}

// A plane of random values with +-0, and, by `nan`, either NaN (one
// sign) and +inf, or both infinities (whose sum is x86's one default
// NaN) and no NaN input.
TensorF special_planes(const Shape& s, std::uint64_t seed, bool nan) {
  constexpr float inf = std::numeric_limits<float>::infinity();
  TensorF t = random_tensor(s, seed);
  const float specials[] = {0.0f, -0.0f,
                            nan ? std::numeric_limits<float>::quiet_NaN()
                                : -inf,
                            inf};
  for (std::int64_t i = 0; i < t.numel(); i += 5) {
    t[i] = specials[static_cast<std::size_t>(i / 5 + i / 7) % 4];
  }
  return t;
}

// The average pool's spec, the scalar window loop it replaced: each
// output sums its window in double, rows then columns, and divides by
// the padded window size; the global pool by h*w.
TensorF avg_pool_scalar(const TensorF& in, const PoolParams& p) {
  const Shape& is = in.shape();
  const int k = p.global ? 0 : p.kernel;
  const std::int64_t oh =
      p.global ? 1 : pooled_extent(is.h, k, p.stride, p.pad, p.ceil_mode);
  const std::int64_t ow =
      p.global ? 1 : pooled_extent(is.w, k, p.stride, p.pad, p.ceil_mode);
  TensorF out(Shape{is.n, is.c, oh, ow});
  for (std::int64_t b = 0; b < is.n; ++b) {
    for (std::int64_t c = 0; c < is.c; ++c) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const std::int64_t y0 = p.global ? 0 : oy * p.stride - p.pad;
          const std::int64_t x0 = p.global ? 0 : ox * p.stride - p.pad;
          const std::int64_t y1 = p.global ? is.h : y0 + k;
          const std::int64_t x1 = p.global ? is.w : x0 + k;
          const auto divisor = static_cast<double>(
              (std::min(y1, is.h + p.pad) - y0) *
              (std::min(x1, is.w + p.pad) - x0));
          double sum = 0.0;
          for (std::int64_t y = std::max<std::int64_t>(y0, 0);
               y < std::min(y1, is.h); ++y) {
            for (std::int64_t x = std::max<std::int64_t>(x0, 0);
                 x < std::min(x1, is.w); ++x) {
              sum += in.at(b, c, y, x);
            }
          }
          out.at(b, c, oy, ox) = static_cast<float>(sum / divisor);
        }
      }
    }
  }
  return out;
}

TEST(KernelIsa, AvgPoolEveryVariantMatchesScalarLoop) {
  PoolParams global;
  global.global = true;
  const std::pair<const char*, PoolParams> configs[] = {
      {"global", global},
      {"3/s1/p1", PoolParams{3, 1, 1, true, false}},
      {"3/s2/p1 floor", PoolParams{3, 2, 1, false, false}}};
  kernels::Workspace ws;
  // 88 x 4x4 is TinyGoogLeNet's pool5; 13 and 3 channels leave a partial
  // group of 8 planes in the global pool.
  for (const Shape& shape :
       {Shape{1, 88, 4, 4}, Shape{2, 13, 5, 7}, Shape{1, 3, 9, 9}}) {
    for (const bool nan : {false, true}) {
      const TensorF in_f = special_planes(shape, 3700, nan);
      for (const auto& [name, pp] : configs) {
        const TensorF ref = avg_pool_scalar(in_f, pp);
        const TensorH in_h = ncsw::tensor::tensor_cast<half>(in_f);
        const TensorH ref_h =
            ncsw::tensor::tensor_cast<half>(avg_pool_scalar(
                ncsw::tensor::tensor_cast<float>(in_h), pp));
        for (const IsaLevel isa : runnable_isas()) {
          for (const int threads : {1, 3}) {
            SCOPED_TRACE(::testing::Message()
                         << name << " " << isa_name(isa) << " threads "
                         << threads << " nan " << nan << " shape "
                         << shape.to_string());
            TensorF got;
            kernels::detail::avg_pool(in_f, pp, got, threaded_ctx(ws, threads),
                                      isa);
            expect_bytes_equal(got, ref, "avg_pool fp32");
            TensorH got_h;
            kernels::detail::avg_pool(in_h, pp, got_h,
                                      threaded_ctx(ws, threads), isa);
            expect_bytes_equal(got_h, ref_h, "avg_pool fp16");
          }
        }
      }
    }
  }
}

template <typename T>
void lrn_isa_case(const Shape& shape, bool nan, kernels::Workspace& ws) {
  const Tensor<T> in =
      ncsw::tensor::tensor_cast<T>(special_planes(shape, 4100, nan));
  const LRNParams p{5, 1e-4f, 0.75f, 2.0f};
  Tensor<T> ref;
  ncsw::oracle::lrn(in, p, ref);
  for (const IsaLevel isa : runnable_isas()) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << isa_name(isa) << " threads " << threads << " nan "
                   << nan << " shape " << shape.to_string());
      Tensor<T> got;
      kernels::detail::lrn(in, p, got, threaded_ctx(ws, threads), isa);
      expect_bytes_equal(got, ref, "lrn");
    }
  }
}

TEST(KernelIsa, LrnEveryVariantMatchesOracle) {
  kernels::Workspace ws;
  // TinyGoogLeNet's norms (16 and 32 x 8x8) and planes of 15, 16 and 63
  // values.
  for (const Shape& shape : {Shape{1, 16, 8, 8}, Shape{1, 32, 8, 8},
                             Shape{2, 7, 5, 3}, Shape{1, 9, 4, 4},
                             Shape{1, 6, 7, 9}}) {
    for (const bool nan : {false, true}) {
      lrn_isa_case<float>(shape, nan, ws);
      lrn_isa_case<half>(shape, nan, ws);
    }
  }
}

template <typename T>
void conv_isa_case(const ConvFixture<T>& f, kernels::Workspace& ws) {
  Tensor<T> ref, ref_relu;
  ncsw::oracle::conv2d(f.in, f.p, f.cp, ref);
  ref_relu = ref;
  ncsw::oracle::relu(ref_relu);
  const kernels::LayerWeights lw(f.p);
  const kernels::ConvOperand op(f.in.shape(), f.cp);
  for (const IsaLevel isa : runnable_isas()) {
    for (const int threads : {1, 3}) {
      for (const bool fuse : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << (std::is_same_v<T, float> ? "fp32 " : "fp16 ")
                     << isa_name(isa) << " threads " << threads << " relu "
                     << fuse);
        Tensor<T> got;
        kernels::detail::conv2d(f.in, lw, op, fuse, got,
                                threaded_ctx(ws, threads), isa);
        expect_bytes_equal(got, fuse ? ref_relu : ref, "conv2d");
      }
    }
  }
}

TEST(KernelIsa, Conv2dEveryVariantMatchesOracle) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  // TinyGoogLeNet's stem (7x7/s2/p3 on 32x32: 16-wide stride-2 planes),
  // its 3x3 and 5x5 towers on 8x8 and 4x4 maps, a 1x1, and odd maps at
  // strides 1, 2 and 3 (the run-time widths).
  const ConvCase cases[] = {
      {3, 32, 32, 6, 7, 2, 3, 1}, {5, 8, 8, 4, 3, 1, 1, 2},
      {4, 4, 4, 5, 5, 1, 2, 1},   {6, 4, 4, 3, 3, 1, 1, 1},
      {5, 9, 7, 3, 1, 1, 0, 2},   {3, 9, 7, 5, 3, 1, 1, 1},
      {3, 11, 9, 4, 3, 2, 1, 2},  {2, 13, 11, 3, 4, 3, 2, 1}};
  kernels::Workspace ws;
  std::uint64_t seed = 12000;
  for (const ConvCase& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << c.h << "x" << c.w << " k" << c.kernel << " s" << c.stride
                 << " p" << c.pad << " batch " << c.batch);
    for (const bool with_inf : {true, false}) {
      const float nan = with_inf ? -kNaN : kNaN;
      conv_isa_case(special_conv<float>(c, seed, nan, with_inf), ws);
      conv_isa_case(special_conv<half>(c, seed, nan, with_inf), ws);
    }
    seed += 10;
  }
}

template <typename T>
void fc_isa_case(std::int64_t batch, std::int64_t in_dim, std::int64_t out,
                 bool nan, std::uint64_t seed) {
  const Tensor<T> in = ncsw::tensor::tensor_cast<T>(
      special_planes(Shape{batch, in_dim, 1, 1}, seed, nan));
  LayerParams<T> p;
  TensorF w = random_tensor(Shape{out, in_dim, 1, 1}, seed + 1);
  for (std::int64_t i = 0; i < w.numel(); i += 4) {
    w[i] = i % 8 == 0 ? 0.0f : -0.0f;  // skipped terms
  }
  p.w = ncsw::tensor::tensor_cast<T>(w);
  p.b = ncsw::tensor::tensor_cast<T>(
      special_planes(Shape{1, out, 1, 1}, seed + 2, false));
  const FCParams fp{static_cast<int>(out)};
  Tensor<T> ref;
  ncsw::oracle::fully_connected(in, p, fp, ref);
  const kernels::LayerWeights lw(p);
  for (const IsaLevel isa : runnable_isas()) {
    SCOPED_TRACE(::testing::Message()
                 << (std::is_same_v<T, float> ? "fp32 " : "fp16 ")
                 << isa_name(isa) << " " << in_dim << " -> " << out
                 << " nan " << nan);
    Tensor<T> got;
    kernels::detail::fully_connected(in, lw, fp, got, kernels::ExecCtx{},
                                     isa);
    expect_bytes_equal(got, ref, "fully_connected");
  }
}

TEST(KernelIsa, FullyConnectedEveryVariantMatchesOracle) {
  // TinyGoogLeNet's classifier (88 -> 50) and ragged row blocks and
  // lengths around the GEMV's 8 rows and the vector widths.
  const std::pair<std::int64_t, std::int64_t> dims[] = {
      {88, 50}, {37, 11}, {16, 8}, {9, 17}, {1, 3}};
  std::uint64_t seed = 5100;
  for (const auto& [in_dim, out] : dims) {
    for (const bool nan : {false, true}) {
      fc_isa_case<float>(2, in_dim, out, nan, seed);
      fc_isa_case<half>(2, in_dim, out, nan, seed);
      seed += 10;
    }
  }
}

}  // namespace
