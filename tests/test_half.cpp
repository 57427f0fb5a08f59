#include "half/half.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace {

using ncsw::fp16::float_to_half_bits;
using ncsw::fp16::half;
using ncsw::fp16::half_bits_to_float;

TEST(Half, ZeroDefault) {
  half h;
  EXPECT_EQ(h.bits(), 0);
  EXPECT_TRUE(h.is_zero());
  EXPECT_EQ(h.to_float(), 0.0f);
}

TEST(Half, KnownEncodings) {
  EXPECT_EQ(half(1.0f).bits(), 0x3c00);
  EXPECT_EQ(half(-1.0f).bits(), 0xbc00);
  EXPECT_EQ(half(2.0f).bits(), 0x4000);
  EXPECT_EQ(half(0.5f).bits(), 0x3800);
  EXPECT_EQ(half(65504.0f).bits(), 0x7bff);  // max finite
  EXPECT_EQ(half(-0.0f).bits(), 0x8000);
}

TEST(Half, RoundTripExhaustiveOverAllBitPatterns) {
  // Every finite half value must survive half -> float -> half exactly;
  // NaNs must stay NaN.
  for (std::uint32_t b = 0; b <= 0xffff; ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    const half h = half::from_bits(bits);
    if (h.is_nan()) {
      EXPECT_TRUE(half(h.to_float()).is_nan());
      continue;
    }
    EXPECT_EQ(float_to_half_bits(h.to_float()), bits) << "bits=" << b;
  }
}

TEST(Half, RoundToNearestEvenAtMidpoints) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even
  // keep 1.0 (mantissa even).
  EXPECT_EQ(float_to_half_bits(1.0f + 0x1.0p-11f), 0x3c00);
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: rounds to even
  // (mantissa 2).
  EXPECT_EQ(float_to_half_bits(1.0f + 3 * 0x1.0p-11f), 0x3c02);
  // Slightly above the midpoint rounds up.
  EXPECT_EQ(float_to_half_bits(1.0f + 0x1.1p-11f), 0x3c01);
}

TEST(Half, OverflowGoesToInfinity) {
  EXPECT_TRUE(half(65520.0f).is_inf());  // rounds past max finite
  EXPECT_TRUE(half(1e30f).is_inf());
  EXPECT_TRUE(half(-1e30f).is_inf());
  EXPECT_TRUE(half(-1e30f).signbit());
}

TEST(Half, LargestValueBelowOverflowThreshold) {
  // 65519.996 rounds down to 65504, not infinity.
  EXPECT_EQ(half(65519.0f).bits(), 0x7bff);
}

TEST(Half, SubnormalsRepresentable) {
  // Smallest positive subnormal = 2^-24.
  const float tiny = 0x1.0p-24f;
  EXPECT_EQ(half(tiny).bits(), 0x0001);
  EXPECT_FLOAT_EQ(half::from_bits(0x0001).to_float(), tiny);
  EXPECT_TRUE(half::from_bits(0x0001).is_subnormal());
}

TEST(Half, SubnormalRounding) {
  // 1.5 * 2^-24 is halfway between 2^-24 and 2^-23: ties-to-even -> 2^-23.
  EXPECT_EQ(float_to_half_bits(1.5f * 0x1.0p-24f), 0x0002);
  // 0.5 * 2^-24 is halfway between 0 and 2^-24 -> even -> zero.
  EXPECT_EQ(float_to_half_bits(0.5f * 0x1.0p-24f), 0x0000);
}

TEST(Half, UnderflowToSignedZero) {
  EXPECT_EQ(half(1e-10f).bits(), 0x0000);
  EXPECT_EQ(half(-1e-10f).bits(), 0x8000);
}

TEST(Half, SubnormalToNormalRoundingCarry) {
  // Just below the smallest normal: rounds up into the normal range.
  const float near_normal = 0x1.ffcp-15f;  // close to 2^-14
  const half h(near_normal);
  EXPECT_FALSE(h.is_nan());
  EXPECT_NEAR(h.to_float(), 0x1.0p-14f, 0x1.0p-24f);
}

TEST(Half, InfinityAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(half(inf).is_inf());
  EXPECT_FALSE(half(inf).signbit());
  EXPECT_TRUE(half(-inf).is_inf());
  EXPECT_TRUE(half(-inf).signbit());
  EXPECT_TRUE(half(std::numeric_limits<float>::quiet_NaN()).is_nan());
  EXPECT_TRUE(std::isnan(ncsw::fp16::kHalfQuietNaN.to_float()));
  EXPECT_TRUE(std::isinf(ncsw::fp16::kHalfInfinity.to_float()));
}

TEST(Half, ArithmeticBasics) {
  const half a(1.5f), b(2.25f);
  EXPECT_FLOAT_EQ((a + b).to_float(), 3.75f);
  EXPECT_FLOAT_EQ((b - a).to_float(), 0.75f);
  EXPECT_FLOAT_EQ((a * b).to_float(), 3.375f);
  EXPECT_FLOAT_EQ((b / half(0.5f)).to_float(), 4.5f);
  EXPECT_FLOAT_EQ((-a).to_float(), -1.5f);
}

TEST(Half, ArithmeticRoundsResult) {
  // 1 + 2^-11 is not representable: the sum rounds back to 1.
  const half one(1.0f);
  const half eps_small(0x1.0p-11f);
  EXPECT_EQ((one + eps_small).bits(), 0x3c00);
  // But 1 + 2^-10 is representable.
  EXPECT_EQ((one + half(0x1.0p-10f)).bits(), 0x3c01);
}

TEST(Half, CompoundAssignment) {
  half h(1.0f);
  h += half(2.0f);
  EXPECT_FLOAT_EQ(h.to_float(), 3.0f);
  h *= half(2.0f);
  EXPECT_FLOAT_EQ(h.to_float(), 6.0f);
  h -= half(1.0f);
  EXPECT_FLOAT_EQ(h.to_float(), 5.0f);
  h /= half(2.0f);
  EXPECT_FLOAT_EQ(h.to_float(), 2.5f);
}

TEST(Half, ComparisonSemantics) {
  EXPECT_TRUE(half(1.0f) < half(2.0f));
  EXPECT_TRUE(half(2.0f) > half(1.0f));
  EXPECT_TRUE(half(1.0f) <= half(1.0f));
  EXPECT_TRUE(half(1.0f) == half(1.0f));
  EXPECT_TRUE(half(1.0f) != half(2.0f));
  // IEEE: +0 == -0.
  EXPECT_TRUE(half(0.0f) == half(-0.0f));
  // NaN compares false with everything, including itself.
  const half nan = ncsw::fp16::kHalfQuietNaN;
  EXPECT_FALSE(nan == nan);
  EXPECT_TRUE(nan != nan);
  EXPECT_FALSE(nan < half(1.0f));
}

TEST(Half, NumericLimits) {
  using lim = std::numeric_limits<half>;
  EXPECT_TRUE(lim::is_specialized);
  EXPECT_FLOAT_EQ(lim::max().to_float(), 65504.0f);
  EXPECT_FLOAT_EQ(lim::lowest().to_float(), -65504.0f);
  EXPECT_FLOAT_EQ(lim::min().to_float(), 0x1.0p-14f);
  EXPECT_FLOAT_EQ(lim::denorm_min().to_float(), 0x1.0p-24f);
  EXPECT_FLOAT_EQ(lim::epsilon().to_float(), 0x1.0p-10f);
  EXPECT_EQ(lim::digits, 11);
}

TEST(Half, RoundToHalfHelper) {
  EXPECT_FLOAT_EQ(ncsw::fp16::round_to_half(1.0f), 1.0f);
  // pi loses precision.
  const float pi = 3.14159265f;
  const float rounded = ncsw::fp16::round_to_half(pi);
  EXPECT_NE(rounded, pi);
  EXPECT_NEAR(rounded, pi, 0.002f);
}

TEST(Half, RelativeErrorBoundedForNormalRange) {
  // For values in the normal range, |x - half(x)| / |x| <= 2^-11.
  for (float x : {0.001f, 0.37f, 1.7f, 42.0f, 999.0f, 60000.0f}) {
    const float r = ncsw::fp16::round_to_half(x);
    EXPECT_LE(std::abs(r - x) / x, 0x1.0p-11f) << x;
  }
}

class HalfMonotonicParam : public ::testing::TestWithParam<int> {};

TEST_P(HalfMonotonicParam, ConversionIsMonotonic) {
  // float -> half must be monotonic: larger floats never map to smaller
  // halves. Sweep a band of the positive range.
  const int band = GetParam();
  float prev_val = -std::numeric_limits<float>::infinity();
  for (int i = 0; i <= 1000; ++i) {
    const float x = std::ldexp(1.0f + static_cast<float>(i) / 1000.0f, band);
    const float h = ncsw::fp16::round_to_half(x);
    EXPECT_GE(h, prev_val);
    prev_val = h;
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, HalfMonotonicParam,
                         ::testing::Values(-20, -14, -10, -1, 0, 1, 7, 14));

// --- bulk span converters --------------------------------------------------
// The table decoder and the branch-reduced RTNE encoder must agree with
// the scalar conversions on every input — the kernels rely on them being
// interchangeable bit for bit.

TEST(HalfSpan, TableDecodeMatchesScalarExhaustively) {
  const float* table = ncsw::fp16::half_to_float_table();
  for (std::uint32_t b = 0; b <= 0xffff; ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    const float scalar = half_bits_to_float(bits);
    std::uint32_t sb, tb;
    std::memcpy(&sb, &scalar, sizeof(sb));
    std::memcpy(&tb, &table[b], sizeof(tb));
    ASSERT_EQ(sb, tb) << "half bits=" << b;
  }
}

TEST(HalfSpan, DecodeSpanMatchesScalarOverAllBitPatterns) {
  std::vector<half> src(65536);
  for (std::uint32_t b = 0; b <= 0xffff; ++b) {
    src[b] = half::from_bits(static_cast<std::uint16_t>(b));
  }
  std::vector<float> dst(65536);
  ncsw::fp16::half_to_float_span(src.data(), dst.data(), src.size());
  for (std::uint32_t b = 0; b <= 0xffff; ++b) {
    const float scalar = src[b].to_float();
    std::uint32_t sb, db;
    std::memcpy(&sb, &scalar, sizeof(sb));
    std::memcpy(&db, &dst[b], sizeof(db));
    ASSERT_EQ(sb, db) << "half bits=" << b;
  }
}

// Encode a batch through the span API and require bit-equality with the
// scalar encoder for each element.
void expect_encode_matches(const std::vector<float>& values) {
  std::vector<half> spanned(values.size());
  ncsw::fp16::float_to_half_span(values.data(), spanned.data(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(float_to_half_bits(values[i]), spanned[i].bits())
        << "i=" << i << " value=" << values[i];
  }
}

TEST(HalfSpan, EncodeMatchesScalarOnHalfExactValues) {
  std::vector<float> vals;
  for (std::uint32_t b = 0; b <= 0xffff; ++b) {
    const half h = half::from_bits(static_cast<std::uint16_t>(b));
    if (!h.is_nan()) vals.push_back(h.to_float());
  }
  expect_encode_matches(vals);
}

TEST(HalfSpan, EncodeMatchesScalarOnTiesBoundariesAndSpecials) {
  std::vector<float> vals;
  // Every representable-half midpoint and its nearest float neighbours,
  // both signs: the hardest RTNE cases.
  for (std::uint32_t b = 0; b < 0x7bff; ++b) {
    const float lo = half_bits_to_float(static_cast<std::uint16_t>(b));
    const float hi = half_bits_to_float(static_cast<std::uint16_t>(b + 1));
    const float mid = lo + (hi - lo) / 2.0f;
    for (float v : {mid, std::nextafterf(mid, lo), std::nextafterf(mid, hi)}) {
      vals.push_back(v);
      vals.push_back(-v);
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (float v : {0.0f, -0.0f, 65504.0f, 65519.0f, 65520.0f, 1e30f, -1e30f,
                  inf, -inf, 0x1.0p-24f, 0.5f * 0x1.0p-24f, 1e-10f, -1e-10f,
                  0x1.ffcp-15f}) {
    vals.push_back(v);
  }
  expect_encode_matches(vals);
  // NaN payloads collapse to the same quiet NaN in both encoders.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(float_to_half_bits(nan), [&] {
    half h;
    ncsw::fp16::float_to_half_span(&nan, &h, 1);
    return h.bits();
  }());
}

TEST(HalfSpan, EncodeMatchesScalarOnRandomBitPatterns) {
  // Uniform random float bit patterns (mostly non-finite-half inputs):
  // a cheap fuzz over the whole encode domain.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::vector<float> vals;
  vals.reserve(200000);
  for (int i = 0; i < 200000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const auto bits = static_cast<std::uint32_t>(state);
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isnan(v)) continue;  // NaN payload behaviour covered above
    vals.push_back(v);
  }
  expect_encode_matches(vals);
}

TEST(HalfSpan, RoundTripThroughSpansIsIdentityForFinite) {
  std::vector<half> src, back(65536);
  std::vector<float> mid(65536);
  for (std::uint32_t b = 0; b <= 0xffff; ++b) {
    src.push_back(half::from_bits(static_cast<std::uint16_t>(b)));
  }
  ncsw::fp16::half_to_float_span(src.data(), mid.data(), src.size());
  ncsw::fp16::float_to_half_span(mid.data(), back.data(), mid.size());
  for (std::uint32_t b = 0; b <= 0xffff; ++b) {
    if (src[b].is_nan()) {
      EXPECT_TRUE(back[b].is_nan());
      continue;
    }
    ASSERT_EQ(src[b].bits(), back[b].bits()) << "half bits=" << b;
  }
}

// --- F16C blocks and their NaN fallback ----------------------------------
// On machines with F16C the spans convert 8 lanes at a time in hardware
// and send any 8-lane block holding a NaN, and the n % 8 tail, through
// the software path. These tests place NaNs in every lane position and
// convert from several start offsets, so blocks straddle different
// elements and the tail length varies.

std::uint32_t bits_of(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float float_of(std::uint32_t u) {
  float f = 0.0f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Decode `src` through the span from several start offsets (so 8-lane
// blocks straddle different elements and the tail length varies) and
// require the scalar decoder's bits for every element.
void expect_decode_matches(const std::vector<half>& src) {
  std::vector<float> dst(src.size());
  for (std::size_t start : {0, 1, 3, 7}) {
    const std::size_t n = src.size() - start;
    ncsw::fp16::half_to_float_span(src.data() + start, dst.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint16_t b = src[start + i].bits();
      ASSERT_EQ(bits_of(half_bits_to_float(b)), bits_of(dst[i]))
          << "start=" << start << " i=" << i << " half bits=0x" << std::hex
          << b;
    }
  }
}

// The encode counterpart: every element must get float_to_half_bits.
void expect_encode_matches_at_offsets(const std::vector<float>& src) {
  std::vector<half> dst(src.size());
  for (std::size_t start : {0, 1, 3, 7}) {
    const std::size_t n = src.size() - start;
    ncsw::fp16::float_to_half_span(src.data() + start, dst.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(float_to_half_bits(src[start + i]), dst[i].bits())
          << "start=" << start << " i=" << i << " float bits=0x" << std::hex
          << bits_of(src[start + i]);
    }
  }
}

constexpr std::uint16_t kHalfNaNs[] = {0x7c01, 0x7d55, 0x7dff, 0x7e00,
                                       0x7e01, 0x7fff, 0xfc01, 0xfdff,
                                       0xfe00, 0xffff};
constexpr std::uint32_t kFloatNaNs[] = {0x7f800001u, 0x7f8aaaaau, 0x7fbfffffu,
                                        0x7fc00000u, 0x7fc00001u, 0x7fffffffu,
                                        0xff800001u, 0xffc00000u, 0xffffffffu};

TEST(HalfSpan, DecodeMatchesTableOnEveryPatternIncludingNaN) {
  // All 65536 patterns through the span against the table: numbers take
  // the hardware conversion, and blocks holding signalling or quiet NaNs
  // keep their payload bit for bit.
  std::vector<half> src(65536);
  for (std::uint32_t b = 0; b < 65536; ++b) {
    src[b] = half::from_bits(static_cast<std::uint16_t>(b));
  }
  std::vector<float> spanned(65536);
  ncsw::fp16::half_to_float_span(src.data(), spanned.data(), src.size());
  const float* table = ncsw::fp16::half_to_float_table();
  for (std::uint32_t b = 0; b < 65536; ++b) {
    ASSERT_EQ(bits_of(table[b]), bits_of(spanned[b]))
        << "half bits 0x" << std::hex << b;
  }
}

TEST(HalfSpan, DecodeMatchesScalarWithNaNsMixedIntoEveryBlock) {
  // All 65536 patterns in an order that scatters the 2046 NaNs across
  // blocks of numbers (40503 is odd, so i * 40503 mod 2^16 is a
  // permutation).
  std::vector<half> src(65536);
  for (std::uint32_t i = 0; i < 65536; ++i) {
    src[i] = half::from_bits(static_cast<std::uint16_t>(i * 40503u));
  }
  expect_decode_matches(src);
  // One NaN at each lane position of an otherwise numeric block.
  for (const std::uint16_t nan : kHalfNaNs) {
    for (std::size_t lane = 0; lane < 8; ++lane) {
      std::vector<half> v;
      for (std::uint16_t b = 0x3c00; v.size() < 29; b += 97) {
        v.push_back(half::from_bits(b));
      }
      v[8 + lane] = half::from_bits(nan);
      expect_decode_matches(v);
    }
  }
}

TEST(HalfSpan, EncodeMatchesScalarWithNaNsMixedIntoEveryBlock) {
  for (const std::uint32_t nan : kFloatNaNs) {
    for (std::size_t lane = 0; lane < 8; ++lane) {
      std::vector<float> v;
      for (int i = 0; i < 29; ++i) v.push_back(0.37f * static_cast<float>(i));
      v[8 + lane] = float_of(nan);
      expect_encode_matches_at_offsets(v);
    }
  }
}

TEST(HalfSpan, EncodeMatchesScalarOnRandomNumerics) {
  // Round-to-nearest-even boundaries, subnormals, overflow, zeros and
  // infinities over a random spread of magnitudes.
  std::vector<float> src;
  ncsw::util::Xoshiro256 rng(91);
  for (int i = 0; i < 4096; ++i) {
    src.push_back(static_cast<float>(rng.uniform(-70000.0, 70000.0)));
    src.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)) * 1e-6f);
  }
  for (const float s : {0.0f, -0.0f, 65504.0f, 65520.0f, -65520.0f, 5.96e-8f,
                        6.1e-5f, 1.0009765f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
    src.push_back(s);
  }
  expect_encode_matches_at_offsets(src);
}

// The exact FP16 layer epilogue, element by element through the scalar
// converters: round, widen, add the bias, round, then (relu) the half
// bit test on the final value.
std::uint16_t round_bias_round_ref(float acc, float bias, bool relu) {
  const float sum = half_bits_to_float(float_to_half_bits(acc)) + bias;
  const std::uint16_t h = float_to_half_bits(sum);
  return relu && h > 0x8000u && h <= 0xfc00u ? std::uint16_t{0} : h;
}

TEST(HalfSpan, RoundBiasRoundMatchesScalar) {
  // Accumulators: random magnitudes, every half value widened (so the
  // first rounding is exact), ties, +-0, +-inf and NaNs in every lane of
  // some blocks. Biases include -0, a value that cancels to -0 and +0,
  // +-inf (inf - inf is a NaN born in the sum) and NaN. Odd starts and
  // lengths put every element in a vector block and in a tail.
  std::vector<float> acc;
  ncsw::util::Xoshiro256 rng(97);
  for (int i = 0; i < 2048; ++i) {
    acc.push_back(static_cast<float>(rng.uniform(-70000.0, 70000.0)));
    acc.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)) * 1e-7f);
  }
  for (std::uint32_t b = 0; b < 65536; b += 7) {
    acc.push_back(half_bits_to_float(static_cast<std::uint16_t>(b)));
  }
  for (const float s : {0.0f, -0.0f, -0x1p-28f, 0x1p-28f, 65520.0f,
                        -65520.0f, std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
    acc.push_back(s);
  }
  for (std::size_t i = 0; i < 40; i += 3) {
    acc[100 + i * 9] = float_of(kFloatNaNs[i % std::size(kFloatNaNs)]);
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float biases[] = {0.0f, -0.0f, 0.5f, -1.25f, 6.1e-5f, inf, -inf, nan};
  std::vector<half> got(acc.size());
  for (const float bias : biases) {
    for (const bool relu : {false, true}) {
      for (const std::size_t start : {std::size_t{0}, std::size_t{3}}) {
        const std::size_t n = acc.size() - start - 5;
        ncsw::fp16::round_bias_round_span(acc.data() + start, bias,
                                          got.data(), n, relu);
        for (std::size_t i = 0; i < n; ++i) {
          const float a = acc[start + i];
          if (std::isnan(a) && std::isnan(bias)) {
            // Which of two NaNs an add returns depends on the operand
            // order the compiler picked; only NaN-ness is specified.
            ASSERT_TRUE(got[i].is_nan()) << "at " << start + i;
            continue;
          }
          ASSERT_EQ(got[i].bits(), round_bias_round_ref(a, bias, relu))
              << "acc " << a << " bias " << bias << " relu " << relu
              << " at " << start + i;
        }
      }
    }
  }
  // A sum that rounds to -0 keeps its sign through the ReLU.
  const float tiny = -0x1p-28f;
  half out;
  ncsw::fp16::round_bias_round_span(&tiny, -0.0f, &out, 1, true);
  EXPECT_EQ(out.bits(), 0x8000u);
}

// Every one of the 2^32 float bit patterns through float_to_half_span
// against float_to_half_bits, split across threads. Each thread encodes
// its range in spans of 4093 (odd, so the 8-lane blocks drift against
// the bit patterns and every span ends in a tail); the NaN ranges start
// and end mid-block. A few seconds of work, so it carries the ctest
// label `exhaustive` (tests/CMakeLists.txt) for runs that skip it.
TEST(HalfSpanExhaustive, EncodeMatchesScalarOnAllFloats) {
  constexpr std::uint64_t kTotal = std::uint64_t{1} << 32;
  constexpr std::size_t kSpan = 4093;
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first_bad{kTotal};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<float> src(kSpan);
      std::vector<half> dst(kSpan);
      const std::uint64_t lo = kTotal * t / threads;
      const std::uint64_t hi = kTotal * (t + 1) / threads;
      for (std::uint64_t base = lo; base < hi; base += kSpan) {
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kSpan, hi - base));
        for (std::size_t i = 0; i < n; ++i) {
          src[i] = float_of(static_cast<std::uint32_t>(base + i));
        }
        ncsw::fp16::float_to_half_span(src.data(), dst.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          if (dst[i].bits() == float_to_half_bits(src[i])) continue;
          ++mismatches;
          std::uint64_t seen = first_bad.load();
          while (base + i < seen &&
                 !first_bad.compare_exchange_weak(seen, base + i)) {
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(0u, mismatches.load())
      << "first mismatching float bits 0x" << std::hex << first_bad.load();
}

}  // namespace
