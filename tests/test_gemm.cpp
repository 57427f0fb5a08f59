#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "oracle/oracle.h"
#include "tensor/gemm_detail.h"
#include "util/multiversion.h"
#include "util/rng.h"

namespace {

using ncsw::fp16::half;
using ncsw::tensor::gemm_f16;
using ncsw::tensor::gemm_f32;
using ncsw::tensor::gemv_f32;

// Naive triple loop as the reference.
void gemm_ref(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = beta == 0.0f ? 0.0 : beta * c[i * n + j];
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(alpha) * a[i * k + kk] * b[kk * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

std::vector<float> random_matrix(std::int64_t elems, std::uint64_t seed) {
  ncsw::util::Xoshiro256 rng(seed);
  std::vector<float> v(static_cast<std::size_t>(elems));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

TEST(GemmF32, IdentityTimesMatrix) {
  const std::int64_t n = 4;
  std::vector<float> eye(n * n, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) eye[i * n + i] = 1.0f;
  const auto b = random_matrix(n * n, 1);
  std::vector<float> c(n * n, 0.0f);
  gemm_f32(n, n, n, 1.0f, eye.data(), b.data(), 0.0f, c.data());
  for (std::int64_t i = 0; i < n * n; ++i) EXPECT_FLOAT_EQ(c[i], b[i]);
}

TEST(GemmF32, KnownSmallProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[4] = {};
  gemm_f32(2, 2, 2, 1.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(GemmF32, AlphaScales) {
  const float a[] = {1, 0, 0, 1};
  const float b[] = {2, 0, 0, 2};
  float c[4] = {};
  gemm_f32(2, 2, 2, 3.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c[0], 6);
  EXPECT_FLOAT_EQ(c[3], 6);
}

TEST(GemmF32, BetaAccumulates) {
  const float a[] = {1};
  const float b[] = {1};
  float c[1] = {10};
  gemm_f32(1, 1, 1, 1.0f, a, b, 1.0f, c);
  EXPECT_FLOAT_EQ(c[0], 11);
  gemm_f32(1, 1, 1, 1.0f, a, b, 0.5f, c);
  EXPECT_FLOAT_EQ(c[0], 6.5f);
}

struct GemmShape {
  std::int64_t m, n, k;
};

class GemmShapeParam
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeParam, MatchesNaiveReference) {
  const auto [m, n, k] = GetParam();
  const auto a = random_matrix(m * k, 100 + m);
  const auto b = random_matrix(k * n, 200 + n);
  auto c_fast = random_matrix(m * n, 300 + k);
  auto c_ref = c_fast;
  gemm_f32(m, n, k, 0.75f, a.data(), b.data(), 0.25f, c_fast.data());
  gemm_ref(m, n, k, 0.75f, a.data(), b.data(), 0.25f, c_ref.data());
  for (std::int64_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c_fast[i], c_ref[i], 1e-4f) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeParam,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(1, 64, 300),
                      std::make_tuple(65, 129, 257),
                      std::make_tuple(70, 70, 70),
                      std::make_tuple(128, 1, 64)));

TEST(GemmF16, MatchesF32WithinHalfPrecision) {
  const std::int64_t m = 8, n = 12, k = 40;
  const auto af = random_matrix(m * k, 9);
  const auto bf = random_matrix(k * n, 10);
  std::vector<half> ah, bh;
  for (float x : af) ah.emplace_back(x);
  for (float x : bf) bh.emplace_back(x);
  std::vector<half> ch(static_cast<std::size_t>(m * n));
  gemm_f16(m, n, k, 1.0f, ah.data(), bh.data(), 0.0f, ch.data());
  std::vector<float> cf(static_cast<std::size_t>(m * n), 0.0f);
  gemm_f32(m, n, k, 1.0f, af.data(), bf.data(), 0.0f, cf.data());
  for (std::int64_t i = 0; i < m * n; ++i) {
    // FP16 inputs alone already carry ~1e-3 relative error; the FP32
    // accumulation keeps the sum error bounded near that.
    EXPECT_NEAR(static_cast<float>(ch[i]), cf[i], 0.05f) << i;
  }
}

TEST(GemmF16, AccumulatesInFp32NotFp16) {
  // Summing 4096 copies of 0.25 = 1024. A pure-FP16 accumulator would
  // stall once the sum exceeds 2048*0.25 resolution; FP32 accumulation
  // with one final rounding stays exact (1024 is representable).
  const std::int64_t k = 4096;
  std::vector<half> a(static_cast<std::size_t>(k), half(0.25f));
  std::vector<half> b(static_cast<std::size_t>(k), half(1.0f));
  half c;
  gemm_f16(1, 1, k, 1.0f, a.data(), b.data(), 0.0f, &c);
  EXPECT_FLOAT_EQ(static_cast<float>(c), 1024.0f);
}

TEST(GemmF16, BetaPath) {
  half a(2.0f), b(3.0f), c(10.0f);
  gemm_f16(1, 1, 1, 1.0f, &a, &b, 1.0f, &c);
  EXPECT_FLOAT_EQ(static_cast<float>(c), 16.0f);
}

TEST(GemvF32, MatchesGemmColumnCase) {
  const std::int64_t m = 17, k = 33;
  const auto a = random_matrix(m * k, 4);
  const auto x = random_matrix(k, 5);
  std::vector<float> y1(static_cast<std::size_t>(m), 0.0f);
  std::vector<float> y2(static_cast<std::size_t>(m), 0.0f);
  gemv_f32(m, k, a.data(), x.data(), 0.0f, y1.data());
  gemm_f32(m, 1, k, 1.0f, a.data(), x.data(), 0.0f, y2.data());
  for (std::int64_t i = 0; i < m; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-5f);
}

TEST(GemvF32, BetaRetainsPrevious) {
  const float a[] = {1, 1};
  const float x[] = {2, 3};
  float y[] = {100};
  gemv_f32(1, 2, a, x, 1.0f, y);
  EXPECT_FLOAT_EQ(y[0], 105.0f);
}

// --- bit-identity of the blocked/tiled kernels vs the oracle kernels -----
// The perf rewrite must not move a single bit: every figure error rate
// was calibrated against the original kernels. These tests compare raw
// bit patterns, not values-within-tolerance.

std::vector<float> random_matrix_with_zeros(std::int64_t elems,
                                            std::uint64_t seed) {
  ncsw::util::Xoshiro256 rng(seed);
  std::vector<float> v(static_cast<std::size_t>(elems));
  for (auto& x : v) {
    // ~1 in 8 exact zeros: the kernels skip zero A terms, so the skip
    // path must agree between implementations too.
    x = rng.uniform(0.0, 1.0) < 0.125
            ? 0.0f
            : static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return v;
}

std::vector<half> to_half(const std::vector<float>& v) {
  std::vector<half> h(v.size());
  ncsw::fp16::float_to_half_span(v.data(), h.data(), v.size());
  return h;
}

class GemmBitIdentity
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmBitIdentity, F32MatchesReferenceBitwise) {
  const auto [m, n, k] = GetParam();
  const auto a = random_matrix_with_zeros(m * k, 11 + m);
  const auto b = random_matrix_with_zeros(k * n, 22 + n);
  for (float beta : {0.0f, 1.0f, 0.5f}) {
    auto c_opt = random_matrix(m * n, 33 + k);
    auto c_ref = c_opt;
    gemm_f32(m, n, k, 0.75f, a.data(), b.data(), beta, c_opt.data());
    ncsw::oracle::gemm_f32_ref(m, n, k, 0.75f, a.data(), b.data(), beta,
                               c_ref.data());
    ASSERT_EQ(0, std::memcmp(c_opt.data(), c_ref.data(),
                             c_opt.size() * sizeof(float)))
        << "m=" << m << " n=" << n << " k=" << k << " beta=" << beta;
  }
}

TEST_P(GemmBitIdentity, F16MatchesReferenceBitwise) {
  const auto [m, n, k] = GetParam();
  const auto ah = to_half(random_matrix_with_zeros(m * k, 44 + m));
  const auto bh = to_half(random_matrix_with_zeros(k * n, 55 + n));
  ncsw::tensor::GemmScratch scratch;
  for (float beta : {0.0f, 1.0f, 0.5f}) {
    auto c_opt = to_half(random_matrix(m * n, 66 + k));
    auto c_ref = c_opt;
    gemm_f16(m, n, k, 0.75f, ah.data(), bh.data(), beta, c_opt.data(),
             &scratch);
    ncsw::oracle::gemm_f16_ref(m, n, k, 0.75f, ah.data(), bh.data(), beta,
                               c_ref.data());
    ASSERT_EQ(0, std::memcmp(c_opt.data(), c_ref.data(),
                             c_opt.size() * sizeof(half)))
        << "m=" << m << " n=" << n << " k=" << k << " beta=" << beta;
  }
}

TEST_P(GemmBitIdentity, StridedColumnSplitMatchesDense) {
  // Splitting C by column ranges (how conv2d threads its GEMM) must
  // reproduce the dense call bit for bit.
  const auto [m, n, k] = GetParam();
  const auto a = random_matrix_with_zeros(m * k, 77 + m);
  const auto b = random_matrix_with_zeros(k * n, 88 + n);
  std::vector<float> c_dense(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> c_split(static_cast<std::size_t>(m * n), 0.0f);
  gemm_f32(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_dense.data());
  for (int pieces : {2, 3}) {
    std::fill(c_split.begin(), c_split.end(), 0.0f);
    for (int p = 0; p < pieces; ++p) {
      const std::int64_t j0 = n * p / pieces;
      const std::int64_t j1 = n * (p + 1) / pieces;
      if (j0 == j1) continue;
      gemm_f32(m, j1 - j0, k, 1.0f, a.data(), k, b.data() + j0, n, 0.0f,
               c_split.data() + j0, n);
    }
    ASSERT_EQ(0, std::memcmp(c_dense.data(), c_split.data(),
                             c_dense.size() * sizeof(float)))
        << "pieces=" << pieces;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBitIdentity,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(4, 8, 16), std::make_tuple(5, 9, 300),
                      std::make_tuple(65, 129, 257),
                      std::make_tuple(70, 70, 70), std::make_tuple(2, 200, 31),
                      std::make_tuple(128, 1, 64)));

TEST(GemvBitIdentity, F32MatchesGemmColumnCaseBitwise) {
  const std::int64_t m = 37, k = 301;
  const auto a = random_matrix_with_zeros(m * k, 7);
  const auto x = random_matrix_with_zeros(k, 8);
  std::vector<float> y_gemv(static_cast<std::size_t>(m), 0.0f);
  std::vector<float> y_gemm(static_cast<std::size_t>(m), 0.0f);
  gemv_f32(m, k, a.data(), x.data(), 0.0f, y_gemv.data());
  ncsw::oracle::gemm_f32_ref(m, 1, k, 1.0f, a.data(), x.data(), 0.0f,
                             y_gemm.data());
  ASSERT_EQ(0, std::memcmp(y_gemv.data(), y_gemm.data(),
                           y_gemv.size() * sizeof(float)));
}

TEST(GemvBitIdentity, F16MatchesGemmColumnCaseBitwise) {
  const std::int64_t m = 37, k = 301;
  const auto ah = to_half(random_matrix_with_zeros(m * k, 9));
  const auto xh = to_half(random_matrix_with_zeros(k, 10));
  std::vector<half> y_gemv(static_cast<std::size_t>(m));
  std::vector<half> y_gemm(static_cast<std::size_t>(m));
  ncsw::tensor::GemmScratch scratch;
  ncsw::tensor::gemv_f16(m, k, ah.data(), xh.data(), 0.0f, y_gemv.data(),
                         &scratch);
  ncsw::oracle::gemm_f16_ref(m, 1, k, 1.0f, ah.data(), xh.data(), 0.0f,
                             y_gemm.data());
  ASSERT_EQ(0, std::memcmp(y_gemv.data(), y_gemm.data(),
                           y_gemv.size() * sizeof(half)));
}

TEST(GemmScratchReuse, ResultsUnaffectedAndCapacityMonotonic) {
  // One scratch across heterogeneous shapes: results must match
  // scratch-free calls (no stale-data bleed) and capacity never shrinks.
  ncsw::tensor::GemmScratch scratch;
  std::size_t last_cap = 0;
  const std::tuple<int, int, int> shapes[] = {
      {65, 129, 257}, {3, 5, 7}, {1, 1, 1}, {70, 70, 70}};
  for (const auto& [m, n, k] : shapes) {
    const auto ah = to_half(random_matrix_with_zeros(m * k, 100 + m));
    const auto bh = to_half(random_matrix_with_zeros(k * n, 200 + n));
    std::vector<half> c_shared(static_cast<std::size_t>(m * n));
    std::vector<half> c_fresh(static_cast<std::size_t>(m * n));
    gemm_f16(m, n, k, 1.0f, ah.data(), bh.data(), 0.0f, c_shared.data(),
             &scratch);
    gemm_f16(m, n, k, 1.0f, ah.data(), bh.data(), 0.0f, c_fresh.data(),
             nullptr);
    ASSERT_EQ(0, std::memcmp(c_shared.data(), c_fresh.data(),
                             c_shared.size() * sizeof(half)))
        << "m=" << m << " n=" << n << " k=" << k;
    EXPECT_GE(scratch.capacity_bytes(), last_cap);
    last_cap = scratch.capacity_bytes();
  }
  EXPECT_GT(last_cap, 0u);
}

// --- the exact GEMM's per-ISA instantiations ------------------------------
// gemm_f32 dispatches to a baseline, an x86-64-v3 or an x86-64-v4 build
// of one body. Each is pinned here directly against the oracle kernel,
// so a host that dispatches to one still checks the others it can run.

using ExactGemm = void (*)(std::int64_t, std::int64_t, std::int64_t, float,
                           const float*, std::int64_t, const float*,
                           std::int64_t, float, float*, std::int64_t) noexcept;

struct Instantiation {
  const char* name;
  ExactGemm fn;
  bool runnable;
};

std::vector<Instantiation> exact_instantiations() {
  const auto isa = ncsw::util::isa_level();
  return {{"base", ncsw::tensor::detail::gemm_f32_base, true},
          {"v3", ncsw::tensor::detail::gemm_f32_v3,
           isa != ncsw::util::IsaLevel::kBase},
          {"v4", ncsw::tensor::detail::gemm_f32_v4,
           isa == ncsw::util::IsaLevel::kV4}};
}

// A with exact zeros and -0 entries (skipped terms), C seeded with -0 in
// places (an all-skipped element must keep it), B with -0 too.
std::vector<float> signed_zero_mix(std::int64_t elems, std::uint64_t seed) {
  auto v = random_matrix_with_zeros(elems, seed);
  for (std::size_t i = 0; i < v.size(); i += 5) v[i] = -0.0f;
  return v;
}

TEST(GemmExactIsa, EachInstantiationMatchesReferenceBitwise) {
  // Ragged shapes around the 4x16 tile and the 256-deep k block: m % 4,
  // n % 16 and n % 8 all non-zero somewhere, k crossing kBlockK.
  const std::tuple<int, int, int> shapes[] = {
      {4, 16, 16}, {5, 17, 300}, {7, 23, 257}, {3, 9, 513},
      {16, 256, 147}, {32, 64, 144}, {13, 40, 600}, {1, 7, 5}};
  for (const auto& inst : exact_instantiations()) {
    if (!inst.runnable) continue;
    for (const auto& [m, n, k] : shapes) {
      const auto a = signed_zero_mix(m * k, 300 + m);
      const auto b = signed_zero_mix(k * n, 400 + n);
      for (float alpha : {1.0f, 0.75f, -1.5f}) {
        for (float beta : {0.0f, 1.0f, 0.5f}) {
          auto c_ref = signed_zero_mix(m * n, 500 + k);
          auto c_opt = c_ref;
          inst.fn(m, n, k, alpha, a.data(), k, b.data(), n, beta,
                  c_opt.data(), n);
          ncsw::oracle::gemm_f32_ref(m, n, k, alpha, a.data(), b.data(), beta,
                                     c_ref.data());
          ASSERT_EQ(0, std::memcmp(c_opt.data(), c_ref.data(),
                                   c_opt.size() * sizeof(float)))
              << inst.name << " m=" << m << " n=" << n << " k=" << k
              << " alpha=" << alpha << " beta=" << beta;
        }
      }
    }
  }
}

TEST(GemmExactIsa, AllZeroRowKeepsNegativeZeroAccumulator) {
  // A zero row of A skips every term, so beta = 1 leaves C exactly as it
  // was, -0 included (adding +0 products would turn -0 into +0).
  const std::int64_t m = 5, n = 19, k = 260;
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
  std::fill(a.begin(), a.begin() + k, -0.0f);  // row 0 is -0, the rest +0
  const auto b = random_matrix(k * n, 7);
  for (const auto& inst : exact_instantiations()) {
    if (!inst.runnable) continue;
    std::vector<float> c(static_cast<std::size_t>(m * n), -0.0f);
    inst.fn(m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f, c.data(), n);
    for (const float v : c) {
      ASSERT_TRUE(v == 0.0f && std::signbit(v)) << inst.name;
    }
  }
}

TEST(GemmExactIsa, NeverFusesMultiplyAdd) {
  // Negative control for FP contraction. With a = b = 1 + 2^-12 and
  // C = -1, the product rounds to 1 + 2^-11 (the 2^-24 term is a tie,
  // rounded to even), so mul-then-add gives 2^-11 while a fused
  // multiply-add keeps the 2^-24 term. Every element of a full 4x16 tile
  // and of the ragged edge takes exactly that one term.
  const float x = 1.0f + 0x1.0p-12f;
  const float fused = std::fma(x, x, -1.0f);
  const std::int64_t m = 5, n = 21, k = 1;
  const std::vector<float> a(static_cast<std::size_t>(m * k), x);
  const std::vector<float> b(static_cast<std::size_t>(k * n), x);
  std::vector<float> c_ref(static_cast<std::size_t>(m * n), -1.0f);
  ncsw::oracle::gemm_f32_ref(m, n, k, 1.0f, a.data(), b.data(), 1.0f,
                             c_ref.data());
  ASSERT_NE(fused, c_ref[0]) << "operands do not separate fma from mul+add";
  EXPECT_EQ(0x1.0p-11f, c_ref[0]);
  std::vector<float> c(static_cast<std::size_t>(m * n), -1.0f);
  gemm_f32(m, n, k, 1.0f, a.data(), b.data(), 1.0f, c.data());
  EXPECT_EQ(0, std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(float)));
  for (const auto& inst : exact_instantiations()) {
    if (!inst.runnable) continue;
    std::vector<float> ci(static_cast<std::size_t>(m * n), -1.0f);
    inst.fn(m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f, ci.data(), n);
    EXPECT_EQ(0, std::memcmp(ci.data(), c_ref.data(),
                             ci.size() * sizeof(float)))
        << inst.name;
  }
}

// Every tile width and edge of every variant: n covers the scalar edge
// alone, the 8-, 16- and 32-wide tiles and their mixes, k crosses
// kBlockK, m leaves ragged rows. A holds exact zeros (the any_zero
// branch), -0, NaN and +-inf; inf * 0 terms make NaNs of their own.
//
// Every non-NaN result must match bit for bit. A NaN need only be a
// NaN: when an add meets two NaNs, x86 returns its first operand's, and
// which operand of a commutative add comes first is the compiler's
// choice, in the oracle as in the tile, so the sign and payload of a
// NaN are not part of the contract.
bool same_bits_or_both_nan(const float* x, const float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::isnan(x[i]) && std::isnan(y[i])) continue;
    if (std::memcmp(x + i, y + i, sizeof(float)) != 0) return false;
  }
  return true;
}

// A's rows 0, 3, 6, ... carry a NaN, +inf and -inf every 37 entries;
// every row carries -0 there too. The other rows stay finite, so most
// outputs are compared bit for bit.
std::vector<float> special_values(std::int64_t rows, std::int64_t cols,
                                  std::uint64_t seed) {
  auto v = random_matrix_with_zeros(rows * cols, seed);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = r % 5; j < cols; j += 37) {
      v[static_cast<std::size_t>(r * cols + j)] =
          r % 3 == 0 ? specials[(j / 37) % 3] : -0.0f;
    }
  }
  return v;
}

void check_every_tile_width(const Instantiation& inst) {
  std::int64_t outputs = 0, finite = 0;
  for (const int n : {1, 7, 8, 15, 16, 17, 31, 32, 33, 48, 64, 256}) {
    for (const int k : {1, 255, 256, 257, 600}) {
      for (const int m : {1, 3, 6}) {
        const auto a = special_values(m, k, 600 + k);
        const auto b = random_matrix_with_zeros(k * n, 700 + n);
        auto c_ref = random_matrix(m * n, 800 + m);
        auto c_opt = c_ref;
        inst.fn(m, n, k, 0.75f, a.data(), k, b.data(), n, 1.0f,
                c_opt.data(), n);
        ncsw::oracle::gemm_f32_ref(m, n, k, 0.75f, a.data(), b.data(), 1.0f,
                                   c_ref.data());
        ASSERT_TRUE(same_bits_or_both_nan(c_opt.data(), c_ref.data(), m * n))
            << inst.name << " m=" << m << " n=" << n << " k=" << k;
        outputs += m * n;
        finite += std::count_if(c_ref.begin(), c_ref.end(),
                                [](float x) { return std::isfinite(x); });
      }
    }
  }
  // The NaN allowance must not make the check vacuous.
  EXPECT_GT(finite, outputs / 2) << inst.name;
}

// B and C one float past a 64-byte boundary with odd ldb/ldc, so no
// vector row is aligned: a tile that assumed alignment faults here.
void check_unaligned_odd_strides(const Instantiation& inst) {
  const std::int64_t m = 7, n = 53, k = 300, ldb = 61, ldc = 57;
  const auto a = special_values(m, k, 900);
  const auto b_dense = random_matrix_with_zeros(k * n, 901);
  const auto c_dense = random_matrix(m * n, 902);
  struct alignas(64) Line {
    float f[16];
  };
  std::vector<Line> b_store(static_cast<std::size_t>((k * ldb + 32) / 16));
  std::vector<Line> c_store(static_cast<std::size_t>((m * ldc + 32) / 16));
  float* b = b_store.data()->f + 1;
  float* c = c_store.data()->f + 1;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    std::copy_n(b_dense.data() + kk * n, n, b + kk * ldb);
  }
  for (std::int64_t i = 0; i < m; ++i) {
    std::copy_n(c_dense.data() + i * n, n, c + i * ldc);
  }
  auto c_ref = c_dense;
  inst.fn(m, n, k, 1.0f, a.data(), k, b, ldb, 1.0f, c, ldc);
  ncsw::oracle::gemm_f32_ref(m, n, k, 1.0f, a.data(), b_dense.data(), 1.0f,
                             c_ref.data());
  for (std::int64_t i = 0; i < m; ++i) {
    ASSERT_TRUE(same_bits_or_both_nan(c + i * ldc, c_ref.data() + i * n, n))
        << inst.name << " row " << i;
  }
}

void check_variant(std::size_t index) {
  const Instantiation inst = exact_instantiations()[index];
  if (!inst.runnable) {
    GTEST_SKIP() << "this host's isa_level cannot run the " << inst.name
                 << " variant";
  }
  check_every_tile_width(inst);
  check_unaligned_odd_strides(inst);
}

TEST(GemmExactIsa, BaseEveryTileWidthSpecialValuesUnalignedRows) {
  check_variant(0);
}

TEST(GemmExactIsa, V3EveryTileWidthSpecialValuesUnalignedRows) {
  check_variant(1);
}

TEST(GemmExactIsa, V4EveryTileWidthSpecialValuesUnalignedRows) {
  check_variant(2);
}

TEST(GemvExactIsa, EachInstantiationMatchesReferenceBitwise) {
  // Rows around the 8-row block (m % 8 != 0), lengths that are not a
  // multiple of the vector widths, -0 and zero terms (skipped), an
  // infinity in x (its zero-weight terms stay skipped) and beta 0 and 1
  // over a y holding -0.
  using ncsw::util::IsaLevel;
  struct Variant {
    const char* name;
    void (*fn)(std::int64_t, std::int64_t, const float*, const float*, float,
               float*) noexcept;
    IsaLevel level;
  };
  const Variant variants[] = {
      {"base", ncsw::tensor::detail::gemv_f32_base, IsaLevel::kBase},
      {"v3", ncsw::tensor::detail::gemv_f32_v3, IsaLevel::kV3},
      {"v4", ncsw::tensor::detail::gemv_f32_v4, IsaLevel::kV4}};
  const std::pair<std::int64_t, std::int64_t> shapes[] = {
      {50, 88}, {37, 301}, {8, 16}, {17, 9}, {1, 1}, {3, 33}};
  for (const Variant& v : variants) {
    if (v.level > ncsw::util::isa_level()) continue;
    for (const auto& [m, k] : shapes) {
      auto a = random_matrix_with_zeros(m * k, 600 + m);
      for (std::size_t i = 0; i < a.size(); i += 7) a[i] = -0.0f;
      auto x = random_matrix_with_zeros(k, 700 + k);
      x[static_cast<std::size_t>(k / 2)] =
          std::numeric_limits<float>::infinity();
      for (std::int64_t r = 0; r < m; ++r) {
        a[static_cast<std::size_t>(r * k + k / 2)] = 0.0f;
      }
      for (const float beta : {0.0f, 1.0f}) {
        std::vector<float> y_ref(static_cast<std::size_t>(m), -0.0f);
        for (std::size_t i = 0; i < y_ref.size(); i += 2) y_ref[i] = 0.25f;
        auto y = y_ref;
        v.fn(m, k, a.data(), x.data(), beta, y.data());
        ncsw::oracle::gemm_f32_ref(m, 1, k, 1.0f, a.data(), x.data(), beta,
                                   y_ref.data());
        ASSERT_EQ(0, std::memcmp(y.data(), y_ref.data(),
                                 y.size() * sizeof(float)))
            << v.name << " m=" << m << " k=" << k << " beta=" << beta;
      }
    }
  }
}

}  // namespace
