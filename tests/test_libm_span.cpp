// util::pow_span and util::log_span against libm, bit for bit. On an
// x86-64-v4 host with glibc >= 2.28 the spans run the vector port of
// glibc's __powf_fma / __log_fma; every test skips elsewhere, where both
// spans are the libm loop itself. The two all-inputs sweeps carry the
// ctest label `exhaustive` (tests/CMakeLists.txt).
#include "util/libm_span.h"

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

using ncsw::util::log_span;
using ncsw::util::pow_span;

#define SKIP_UNLESS_PORTED()                                            \
  do {                                                                  \
    if (!ncsw::util::libm_span_ported()) {                              \
      GTEST_SKIP() << "this host runs the libm loop (the port needs "   \
                      "x86-64-v4 and glibc >= 2.28)";                   \
    }                                                                   \
  } while (0)

// Odd, so the 8-lane blocks drift against the inputs and most spans end
// in a tail.
constexpr std::size_t kSpan = 4093;

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}
float float_of(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}
std::uint64_t bits_of(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}
double double_of(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

// Index of the first element of pow_span(x, y) whose bits differ from
// std::pow(x[i], y), or x.size(). NaNs compare by bits too: the port
// sends every NaN-producing lane to libm.
std::size_t first_pow_mismatch(const std::vector<float>& x, float y) {
  std::vector<float> out(x.size());
  pow_span(x.data(), y, out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (bits_of(out[i]) != bits_of(std::pow(x[i], y))) return i;
  }
  return x.size();
}

std::size_t first_log_mismatch(const std::vector<double>& x) {
  std::vector<double> out(x.size());
  log_span(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (bits_of(out[i]) != bits_of(std::log(x[i]))) return i;
  }
  return x.size();
}

void expect_pow_matches(const std::vector<float>& x, float y) {
  const std::size_t bad = first_pow_mismatch(x, y);
  EXPECT_EQ(bad, x.size()) << "pow(" << std::hexfloat << x[bad] << ", " << y
                           << ") differs from libm";
}

void expect_log_matches(const std::vector<double>& x) {
  const std::size_t bad = first_log_mismatch(x);
  EXPECT_EQ(bad, x.size()) << "log(" << std::hexfloat << x[bad]
                           << ") differs from libm";
}

// The generator's draw (dataset/synthetic.cpp, pass a): Marsaglia's polar
// method keeps s = u^2 + v^2 when 0 < s < 1.
void polar_draws(ncsw::util::Xoshiro256& rng, std::vector<double>& s) {
  for (std::size_t w = 0; w < s.size();) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double sq = u * u + v * v;
    if (sq < 1.0 && sq != 0.0) s[w++] = sq;
  }
}

// Runs body(t, threads) on up to 8 threads and joins them.
template <typename Body>
void on_threads(const Body& body) {
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&body, t, threads] { body(t, threads); });
  }
  for (auto& th : pool) th.join();
}

// Every `stride`-th float bit pattern (2^32 / stride of them) through
// pow_span at y; returns the mismatch count, and the first mismatching
// pattern in *first.
std::uint64_t pow_sweep(std::uint64_t stride, float y, std::uint64_t* first) {
  constexpr std::uint64_t kTotal = std::uint64_t{1} << 32;
  const std::uint64_t count = (kTotal + stride - 1) / stride;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first_bad{kTotal};
  on_threads([&](unsigned t, unsigned threads) {
    std::vector<float> x(kSpan), out(kSpan);
    const std::uint64_t lo = count * t / threads;
    const std::uint64_t hi = count * (t + 1) / threads;
    for (std::uint64_t base = lo; base < hi; base += kSpan) {
      const auto n =
          static_cast<std::size_t>(std::min<std::uint64_t>(kSpan, hi - base));
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = float_of(static_cast<std::uint32_t>((base + i) * stride));
      }
      pow_span(x.data(), y, out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        if (bits_of(out[i]) == bits_of(std::pow(x[i], y))) continue;
        ++mismatches;
        const std::uint64_t pattern = bits_of(x[i]);
        std::uint64_t seen = first_bad.load();
        while (pattern < seen &&
               !first_bad.compare_exchange_weak(seen, pattern)) {
        }
      }
    }
  });
  *first = first_bad.load();
  return mismatches.load();
}

// `total` polar draws through log_span, split across threads (each with
// its own seed); returns the mismatch count.
std::uint64_t log_draw_sweep(std::uint64_t total, double* first) {
  constexpr std::size_t kBatch = 1 << 16;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first_bad{0};
  on_threads([&](unsigned t, unsigned threads) {
    ncsw::util::Xoshiro256 rng(0x9e3779b97f4a7c15ULL + t);
    std::vector<double> s(kBatch), out(kBatch);
    const std::uint64_t mine =
        total * (t + 1) / threads - total * t / threads;
    for (std::uint64_t done = 0; done < mine; done += kBatch) {
      s.resize(static_cast<std::size_t>(
          std::min<std::uint64_t>(kBatch, mine - done)));
      polar_draws(rng, s);
      log_span(s.data(), out.data(), s.size());
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (bits_of(out[i]) == bits_of(std::log(s[i]))) continue;
        if (mismatches++ == 0) first_bad.store(bits_of(s[i]));
      }
    }
  });
  *first = double_of(first_bad.load());
  return mismatches.load();
}

TEST(LibmSpan, PowStridedSweepMatchesLibm) {
  SKIP_UNLESS_PORTED();
  for (const float y : {0.75f, 0.5f, 1.0f, 2.0f, -0.75f, 0.3f}) {
    std::uint64_t first = 0;
    EXPECT_EQ(0u, pow_sweep(251, y, &first))
        << "y = " << y << ", first mismatching x bits 0x" << std::hex
        << first;
  }
}

TEST(LibmSpan, LogPolarDrawsMatchLibm) {
  SKIP_UNLESS_PORTED();
  double first = 0;
  EXPECT_EQ(0u, log_draw_sweep(10'000'000, &first))
      << "first mismatching s " << std::hexfloat << first;
}

// powf's result is a double rounded to float once, at the end, so a
// wrong last bit anywhere in the double pipeline shows only when that
// double lies within about one double ulp of a float rounding midpoint.
// The sweeps above hold few such inputs: at beta = 0.75 none of the 2^32
// floats' doubles lies within 8 double ulps of a midpoint. These are the
// 107 positive normal x, at ten y with full 24-bit mantissas, whose
// double before the final rounding (glibc's, as the port computes it)
// lies within one double ulp of a float midpoint, so that a slip moving
// that double can flip the returned float.
struct HardCases {
  float y;
  std::vector<std::uint32_t> x;
};
const std::vector<HardCases>& pow_hard_cases() {
  static const std::vector<HardCases> cases = {
    {0x1.6a09e8p-1f,
     {0x0b2de278, 0x1bd5a31c, 0x24362667, 0x24a8c026, 0x2fea84c2,
      0x4318f179, 0x4b2b2d57, 0x4f857103, 0x5f20a46c, 0x66c15392,
      0x6bac9ec7, 0x6f3a8673}},
    {0x1.6a09e6p+0f,
     {0x1fa4efba, 0x2aedbac9, 0x2bf8b975, 0x3032fe0b, 0x4744aae1,
      0x476784dc, 0x515b8ada, 0x6040c65a, 0x60ff442a, 0x6208cfb1,
      0x628ca2d1}},
    {0x1.2788dp-1f,
     {0x0d294b6d, 0x166e2d4b, 0x2eef9709, 0x3a485364, 0x3e643f3a,
      0x43000538, 0x4b3660d2, 0x4e4334d1, 0x4f44014e, 0x675179cd,
      0x6a66541d, 0x6bed3834, 0x700db2ea, 0x7d07d5ac}},
    {0x1.5bf0a8p+1f,
     {0x2cac9784, 0x2d326b09, 0x337e5541, 0x3e444b06, 0x3f974749,
      0x4374f09b, 0x49c9da5e, 0x4b160371, 0x4d2d3827, 0x557dee30}},
    {-0x1.62e43p-1f,
     {0x1332408a, 0x17c357ba, 0x18146e68, 0x1a96c8f8, 0x237acc37,
      0x2f11b04a, 0x2fe2477d, 0x33934683, 0x35942917, 0x364b8e12,
      0x38cfa78c, 0x494fe847, 0x5eb27792, 0x66ae3a11}},
    {0x1.45f308p-2f,
     {0x24c4d300, 0x40e0f767, 0x4f0555aa, 0x5be5b277, 0x5d5cd912,
      0x6f7b5b7c, 0x7f5d3c37}},
    {0x1.9e377ap+0f,
     {0x18fd92bd, 0x199d0887, 0x1cc0fff1, 0x251ac262, 0x2635cf6a,
      0x273521c7, 0x35c2e4a7, 0x3858d308, 0x42bd7c79, 0x51cb1422,
      0x5c21d00a, 0x61a4d1aa, 0x6337e58d}},
    {-0x1.3c0ca4p+0f,
     {0x178a508e, 0x17cddb48, 0x1ab51fff, 0x303a62ea, 0x30d00b16,
      0x3e1f7f2f, 0x3efa3b5a, 0x534abe00}},
    {0x1.f9adbcp-4f,
     {0x0ef09e72, 0x164db2be, 0x1eecb69e, 0x24ff5b9a, 0x30889107,
      0x30ce82f4, 0x51a676ff, 0x57dff707, 0x5ae91de7, 0x60752108,
      0x6a095141, 0x7a9133f5, 0x7a9d4db3}},
    {0x1.921fb6p+1f,
     {0x3cd01c1a, 0x45aa2ec9, 0x4bb93980, 0x4ce5b40a, 0x52090e35}},
  };
  return cases;
}

TEST(LibmSpan, PowNearMidpointCasesMatchLibm) {
  SKIP_UNLESS_PORTED();
  std::size_t total = 0;
  for (const HardCases& c : pow_hard_cases()) {
    std::vector<float> x;
    for (const std::uint32_t bits : c.x) x.push_back(float_of(bits));
    expect_pow_matches(x, c.y);
    total += x.size();
  }
  EXPECT_EQ(107u, total);
}

// log's main path looks up one of 128 cells of z = x / 2^k: the first
// two and last two bit patterns of every cell, at exponents around 1
// and far from it, and in the generator's range (0, 1).
TEST(LibmSpan, LogTableCellEdges) {
  SKIP_UNLESS_PORTED();
  constexpr std::uint64_t kOff = 0x3fe6000000000000ULL;
  constexpr std::uint64_t kCell = std::uint64_t{1} << 45;
  std::vector<double> x;
  for (const int k : {-1000, -60, -20, -3, -1, 0, 1, 2, 30, 1000}) {
    for (std::uint64_t i = 0; i < 128; ++i) {
      const std::uint64_t start =
          kOff + i * kCell + (static_cast<std::uint64_t>(k) << 52);
      for (const std::uint64_t bits :
           {start, start + 1, start + kCell - 2, start + kCell - 1}) {
        x.push_back(double_of(bits));
      }
    }
  }
  expect_log_matches(x);
}

// The near-1 branch covers [1 - 0x1p-4, 1 + 0x1.09p-4): both ends
// +-4 ulp, and 1.0 itself (log(1) = +0).
TEST(LibmSpan, LogNearOneWindowEnds) {
  SKIP_UNLESS_PORTED();
  std::vector<double> x;
  for (const double edge : {1.0 - 0x1p-4, 1.0 + 0x1.09p-4, 1.0}) {
    for (int d = -4; d <= 4; ++d) {
      x.push_back(double_of(bits_of(edge) + static_cast<std::uint64_t>(d)));
    }
  }
  expect_log_matches(x);
  const double one = 1.0;
  double out = -1.0;
  log_span(&one, &out, 1);
  EXPECT_EQ(0u, bits_of(out));
}

std::vector<float> special_floats() {
  const float inf = std::numeric_limits<float>::infinity();
  return {0.0f,
          -0.0f,
          float_of(1),
          float_of(0x007fffff),
          -float_of(1),
          std::numeric_limits<float>::min(),
          -1.0f,
          -2.0f,
          -0.5f,
          -3.0f,
          inf,
          -inf,
          std::numeric_limits<float>::quiet_NaN(),
          -std::numeric_limits<float>::quiet_NaN(),
          std::numeric_limits<float>::signaling_NaN(),
          std::numeric_limits<float>::max(),
          1.0f,
          2.0f,
          0x1p-100f,
          0x1p100f};
}

TEST(LibmSpan, SpecialValuesMatchLibm) {
  SKIP_UNLESS_PORTED();
  const std::vector<float> fx = special_floats();
  // y of 0, inf and NaN leave glibc's main path for every x; large |y|
  // hits its overflow/underflow test.
  for (const float y : special_floats()) expect_pow_matches(fx, y);
  for (const float y : {0.75f, -0.75f, 3.0f, -3.0f, 0.5f, 200.0f, -200.0f}) {
    expect_pow_matches(fx, y);
  }
  const double inf = std::numeric_limits<double>::infinity();
  expect_log_matches({0.0, -0.0, double_of(1), double_of(0x000fffffffffffffULL),
                      -double_of(1), std::numeric_limits<double>::min(), -1.0,
                      -0.5, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
                      -std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::max(), 1.0, 2.0, 0.5});
}

// Span lengths 0..17 at every alignment of a 16-element window, out of
// place and in place, with a special lane in the tail; the elements past
// the span are never written.
TEST(LibmSpan, EveryTailLengthAndInPlace) {
  SKIP_UNLESS_PORTED();
  std::vector<float> fx(40);
  std::vector<double> dx(40);
  for (std::size_t i = 0; i < fx.size(); ++i) {
    fx[i] = 0.5f + 0.37f * static_cast<float>(i);
    dx[i] = 0.01 + 0.023 * static_cast<double>(i);
  }
  fx[13] = -1.0f;
  dx[13] = -1.0;
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t n = 0; n <= 17; ++n) {
      std::vector<float> fo(fx.size(), 7.0f), fin = fx;
      std::vector<double> dout(dx.size(), 7.0), din = dx;
      pow_span(fx.data() + off, 0.75f, fo.data() + off, n);
      pow_span(fin.data() + off, 0.75f, fin.data() + off, n);
      log_span(dx.data() + off, dout.data() + off, n);
      log_span(din.data() + off, din.data() + off, n);
      for (std::size_t i = 0; i < fx.size(); ++i) {
        const bool in_span = i >= off && i < off + n;
        const float pw = std::pow(fx[i], 0.75f);
        const double lg = std::log(dx[i]);
        EXPECT_EQ(bits_of(fo[i]), bits_of(in_span ? pw : 7.0f))
            << "pow off " << off << " n " << n << " i " << i;
        EXPECT_EQ(bits_of(fin[i]), bits_of(in_span ? pw : fx[i]))
            << "in-place pow off " << off << " n " << n << " i " << i;
        EXPECT_EQ(bits_of(dout[i]), bits_of(in_span ? lg : 7.0))
            << "log off " << off << " n " << n << " i " << i;
        EXPECT_EQ(bits_of(din[i]), bits_of(in_span ? lg : dx[i]))
            << "in-place log off " << off << " n " << n << " i " << i;
      }
    }
  }
}

// Every one of the 2^32 float bit patterns through pow_span at the LRN's
// beta, split across threads: tens of seconds of libm calls, hence the
// `exhaustive` label.
TEST(LibmSpanExhaustive, PowAllFloatsAtThreeQuarters) {
  SKIP_UNLESS_PORTED();
  std::uint64_t first = 0;
  EXPECT_EQ(0u, pow_sweep(1, 0.75f, &first))
      << "first mismatching x bits 0x" << std::hex << first;
}

TEST(LibmSpanExhaustive, LogBillionPolarDraws) {
  SKIP_UNLESS_PORTED();
  double first = 0;
  EXPECT_EQ(0u, log_draw_sweep(1'000'000'000, &first))
      << "first mismatching s " << std::hexfloat << first;
}

}  // namespace
