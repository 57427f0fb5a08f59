#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

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

// --- bit-identity: reference vs optimised vs threaded ---------------------
// The cache-tuned / threaded kernels claim byte-equal outputs with the
// pre-PR scalar kernels for any thread count. Each case runs the three
// configurations on the same input and compares raw bytes.

template <typename T>
void expect_bytes_equal(const Tensor<T>& a, const Tensor<T>& b,
                        const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(T)))
      << what;
}

kernels::ExecCtx reference_ctx() {
  kernels::ExecCtx ctx;
  ctx.reference = true;
  return ctx;
}

kernels::ExecCtx threaded_ctx(kernels::Workspace& ws, int threads) {
  kernels::ExecCtx ctx;
  ctx.ws = &ws;
  ctx.threads = threads;
  ctx.pool = threads > 1 ? &kernels::compute_pool() : nullptr;
  return ctx;
}

// Run `op(out, ctx)` under the three configurations and require
// byte-equal outputs.
template <typename T, typename Op>
void expect_all_configs_bitwise_equal(const Op& op, const char* what) {
  Tensor<T> out_ref, out_opt, out_thr;
  kernels::Workspace ws;
  op(out_ref, reference_ctx());
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
void conv_bit_identity_case(const ConvCase& c, std::uint64_t seed) {
  const ConvFixture<T> f = make_conv<T>(c, seed);
  expect_all_configs_bitwise_equal<T>(
      [&](Tensor<T>& out, const kernels::ExecCtx& ctx) {
        kernels::conv2d(f.in, f.p, f.cp, out, ctx);
      },
      "conv2d");
}

TEST(KernelBitIdentity, Conv2dAllConfigsBothPrecisions) {
  const ConvCase cases[] = {{3, 11, 9, 5, 3, 2, 1, 2},
                            {4, 6, 6, 8, 1, 1, 0, 1},
                            {2, 9, 7, 5, 5, 2, 2, 3},
                            {1, 5, 5, 1, 3, 1, 0, 1}};
  std::uint64_t seed = 1000;
  for (const auto& c : cases) {
    conv_bit_identity_case<float>(c, seed);
    conv_bit_identity_case<half>(c, seed);
    seed += 10;
  }
}

// The exact tier feeds a 1x1 stride-1 unpadded conv's input straight to
// the GEMM; strided or padded 1x1s and larger kernels go through im2col.
// Run a sequence of both through one workspace, so a conv after the
// direct path sees an im2col panel it never grew, and compare each
// result with the reference kernel byte for byte.
template <typename T>
void pointwise_sequence_case(int batch, int threads) {
  const ConvCase seq[] = {
      {6, 7, 9, 5, 1, 1, 0, batch},  // direct
      {5, 7, 9, 4, 3, 1, 1, batch},  // 3x3 right after the direct 1x1
      {6, 7, 9, 5, 1, 2, 0, batch},  // strided 1x1: im2col
      {6, 7, 9, 5, 1, 1, 1, batch},  // padded 1x1: im2col
      {8, 5, 6, 3, 1, 1, 0, batch},  // direct again, over a grown panel
  };
  kernels::Workspace ws;
  std::uint64_t seed = 7000;
  for (const auto& c : seq) {
    const ConvFixture<T> f = make_conv<T>(c, seed += 10);
    Tensor<T> ref, got;
    kernels::conv2d(f.in, f.p, f.cp, ref, reference_ctx());
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

TEST(Conv, PointwiseConvSkipsTheIm2colPanel) {
  // An FP32 1x1/s1/p0 conv reads its input in place, so it leaves every
  // workspace arena empty; the same conv at stride 2 needs the panel.
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
  const TensorF src_f = random_tensor(Shape{2, 3, 7, 5}, 2000);
  const Tensor<T> src = ncsw::tensor::tensor_cast<T>(src_f);
  Tensor<T> ref = src, opt = src, thr = src;
  kernels::Workspace ws;
  kernels::relu(ref, reference_ctx());
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
  // out as the reference's float comparison leaves it.
  Tensor<half> ref(Shape{1, 1, 256, 256});
  for (std::uint32_t b = 0; b < 65536; ++b) {
    ref.data()[b] = half::from_bits(static_cast<std::uint16_t>(b));
  }
  Tensor<half> opt = ref;
  kernels::relu(ref, reference_ctx());
  kernels::relu(opt, kernels::ExecCtx{});
  expect_bytes_equal(opt, ref, "relu");
}

template <typename T>
void pool_bit_identity_case(const PoolParams& pp, const Shape& shape,
                            std::uint64_t seed) {
  const Tensor<T> in =
      ncsw::tensor::tensor_cast<T>(random_tensor(shape, seed));
  expect_all_configs_bitwise_equal<T>(
      [&](Tensor<T>& out, const kernels::ExecCtx& ctx) {
        kernels::max_pool(in, pp, out, ctx);
      },
      "max_pool");
  expect_all_configs_bitwise_equal<T>(
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

template <typename T>
void lrn_bit_identity_case(std::uint64_t seed) {
  const Tensor<T> in =
      ncsw::tensor::tensor_cast<T>(random_tensor(Shape{2, 7, 5, 3}, seed));
  const LRNParams p{5, 1e-4f, 0.75f, 2.0f};
  expect_all_configs_bitwise_equal<T>(
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
      [&](Tensor<T>& out, const kernels::ExecCtx& ctx) {
        kernels::fully_connected(in, p, FCParams{11}, out, ctx);
      },
      "fully_connected");
}

TEST(KernelBitIdentity, FullyConnectedAllConfigsBothPrecisions) {
  fc_bit_identity_case<float>(5000);
  fc_bit_identity_case<half>(5000);
}

}  // namespace
