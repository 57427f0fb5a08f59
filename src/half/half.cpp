#include "half/half.h"

#include <cstring>

#include "util/multiversion.h"

#ifdef NCSW_TARGET_F16C
#include <immintrin.h>
#endif

namespace ncsw::fp16 {

namespace {
std::uint32_t float_bits(float f) noexcept {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float bits_float(std::uint32_t u) noexcept {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}
}  // namespace

std::uint16_t float_to_half_bits(float value) noexcept {
  const std::uint32_t f = float_bits(value);
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::int32_t exponent =
      static_cast<std::int32_t>((f >> 23) & 0xffu) - 127;
  std::uint32_t mantissa = f & 0x007fffffu;

  if (exponent == 128) {  // inf or NaN
    if (mantissa != 0) return static_cast<std::uint16_t>(sign | 0x7e00u);
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }

  if (exponent > 15) {  // overflow -> infinity
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }

  if (exponent >= -14) {  // normal range
    // 10-bit mantissa; round-to-nearest-even on the 13 dropped bits.
    std::uint32_t half_exp = static_cast<std::uint32_t>(exponent + 15);
    std::uint32_t half_man = mantissa >> 13;
    const std::uint32_t round_bits = mantissa & 0x1fffu;
    if (round_bits > 0x1000u ||
        (round_bits == 0x1000u && (half_man & 1u) != 0)) {
      ++half_man;
      if (half_man == 0x400u) {  // mantissa overflow -> bump exponent
        half_man = 0;
        ++half_exp;
        if (half_exp == 31) {
          return static_cast<std::uint16_t>(sign | 0x7c00u);
        }
      }
    }
    return static_cast<std::uint16_t>(sign | (half_exp << 10) | half_man);
  }

  if (exponent >= -25) {  // subnormal half range
    // Add the implicit leading 1. The 24-bit significand M encodes
    // value = M * 2^(e-23); the half subnormal target is
    // man16 = value * 2^24 = M >> (-e - 1) with e in [-25, -15].
    mantissa |= 0x00800000u;
    const int shift = -exponent - 1;  // in [14, 24]
    std::uint32_t half_man = mantissa >> shift;
    const std::uint32_t dropped = mantissa & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (dropped > halfway || (dropped == halfway && (half_man & 1u) != 0)) {
      ++half_man;  // may carry into the exponent: 0x400 encodes 2^-14, which
                   // is exactly correct.
    }
    return static_cast<std::uint16_t>(sign | half_man);
  }

  // Underflow to signed zero.
  return static_cast<std::uint16_t>(sign);
}

const float* half_to_float_table() noexcept {
  // Thread-safe one-time build (magic static); every entry is produced by
  // the scalar decoder, so table lookups are bit-identical by construction.
  static const auto* table = [] {
    auto* t = new float[65536];
    for (std::uint32_t b = 0; b < 65536; ++b) {
      t[b] = half_bits_to_float(static_cast<std::uint16_t>(b));
    }
    return t;
  }();
  return table;
}

namespace {

// Branch-reduced RTNE float -> half encode (the Giesen "fast3" scheme):
// normals round via an integer add that carries into the exponent when
// the mantissa overflows, subnormals round via a float add against a
// magic constant (reusing the FPU's own round-to-nearest), NaNs collapse
// to the same quiet NaN the scalar path produces. Verified bit-identical
// to float_to_half_bits across ties, boundaries and specials in
// tests/test_half.cpp.
inline std::uint16_t encode_half_rtne(std::uint32_t f) noexcept {
  constexpr std::uint32_t kF32Infty = 255u << 23;
  constexpr std::uint32_t kF16MaxBound = (127u + 16u) << 23;  // 2^16
  constexpr std::uint32_t kDenormMagic = ((127u - 15u) + (23u - 10u) + 1u)
                                         << 23;
  const std::uint32_t sign = f & 0x80000000u;
  f ^= sign;
  std::uint16_t o;
  if (f >= kF16MaxBound) {  // overflow, inf or NaN
    o = (f > kF32Infty) ? 0x7e00u : 0x7c00u;
  } else if (f < (113u << 23)) {  // maps to a subnormal half (or zero)
    float v;
    std::memcpy(&v, &f, sizeof(v));
    float magic;
    std::memcpy(&magic, &kDenormMagic, sizeof(magic));
    v += magic;  // the FPU rounds the dropped bits for us
    std::uint32_t u;
    std::memcpy(&u, &v, sizeof(u));
    o = static_cast<std::uint16_t>(u - kDenormMagic);
  } else {  // normal half range
    const std::uint32_t mant_odd = (f >> 13) & 1u;
    f += (static_cast<std::uint32_t>(15 - 127) << 23) + 0xfffu;
    f += mant_odd;  // ties round to even
    o = static_cast<std::uint16_t>(f >> 13);
  }
  return static_cast<std::uint16_t>(o | (sign >> 16));
}

void h2f_span_table(const half* src, float* dst, std::size_t n) noexcept {
  const float* table = half_to_float_table();
  for (std::size_t i = 0; i < n; ++i) dst[i] = table[src[i].bits()];
}

void f2h_span_encoder(const float* src, half* dst, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = half::from_bits(encode_half_rtne(float_bits(src[i])));
  }
}

void round_bias_round_scalar(const float* acc, float bias, half* dst,
                             std::size_t n, bool relu) noexcept {
  const float* table = half_to_float_table();
  for (std::size_t i = 0; i < n; ++i) {
    const float sum = table[encode_half_rtne(float_bits(acc[i]))] + bias;
    const half h = half::from_bits(encode_half_rtne(float_bits(sum)));
    dst[i] = relu ? ncsw::fp16::relu(h) : h;
  }
}

// F16C hardware conversion, 8 lanes at a time: vcvtph2ps is exact and
// vcvtps2ph with an explicit round-to-nearest-even immediate is the same
// IEEE conversion as the software encoder, so every number, zero and
// infinity gets the software path's bits. NaNs are the one difference:
// the hardware keeps (and quietens) the payload, while the software
// paths keep a half NaN's payload bit for bit on decode and collapse a
// float NaN to the canonical quiet NaN on encode. Any 8-lane block that
// holds a NaN therefore goes through the software path instead; the
// tail (n % 8) always does.
#ifdef NCSW_TARGET_F16C

NCSW_TARGET_F16C void h2f_span_f16c(const half* src, float* dst,
                                    std::size_t n) noexcept {
  const __m128i abs_mask = _mm_set1_epi16(0x7fff);
  const __m128i inf_bits = _mm_set1_epi16(0x7c00);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    // |h| > 0x7c00 (a signed compare is fine: |h| <= 0x7fff) is a NaN.
    const __m128i nan =
        _mm_cmpgt_epi16(_mm_and_si128(h, abs_mask), inf_bits);
    if (_mm_movemask_epi8(nan) != 0) {
      h2f_span_table(src + i, dst + i, 8);
    } else {
      _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
    }
  }
  h2f_span_table(src + i, dst + i, n - i);
}

NCSW_TARGET_F16C void f2h_span_f16c(const float* src, half* dst,
                                    std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    if (_mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q)) != 0) {
      f2h_span_encoder(src + i, dst + i, 8);
    } else {
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(dst + i),
          _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    }
  }
  f2h_span_encoder(src + i, dst + i, n - i);
}

// The epilogue on the same footing: both roundings are the hardware's
// RTNE conversion and the widening is exact, so any block without a NaN
// (in the accumulator or the biased sum) has the scalar bits. The ReLU
// is the scalar bit test as two signed 16-bit compares: as int16,
// [0x8001, 0xfc00] is [-32767, -1024].
NCSW_TARGET_F16C void round_bias_round_f16c(const float* acc, float bias,
                                            half* dst, std::size_t n,
                                            bool relu) noexcept {
  const __m256 bv = _mm256_set1_ps(bias);
  const __m128i lo = _mm_set1_epi16(static_cast<short>(0x8000));
  const __m128i hi = _mm_set1_epi16(static_cast<short>(0xfc01));
  constexpr int kRound = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(acc + i);
    const __m256 sum =
        _mm256_add_ps(_mm256_cvtph_ps(_mm256_cvtps_ph(v, kRound)), bv);
    const __m256 nan = _mm256_or_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q),
                                    _mm256_cmp_ps(sum, sum, _CMP_UNORD_Q));
    if (_mm256_movemask_ps(nan) != 0) {
      round_bias_round_scalar(acc + i, bias, dst + i, 8, relu);
      continue;
    }
    __m128i h = _mm256_cvtps_ph(sum, kRound);
    if (relu) {
      const __m128i negative =
          _mm_and_si128(_mm_cmpgt_epi16(h, lo), _mm_cmplt_epi16(h, hi));
      h = _mm_andnot_si128(negative, h);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  round_bias_round_scalar(acc + i, bias, dst + i, n - i, relu);
}

#endif

}  // namespace

void round_bias_round_span(const float* acc, float bias, half* dst,
                           std::size_t n, bool relu) noexcept {
#ifdef NCSW_TARGET_F16C
  if (util::isa_level() != util::IsaLevel::kBase) {
    round_bias_round_f16c(acc, bias, dst, n, relu);
    return;
  }
#endif
  round_bias_round_scalar(acc, bias, dst, n, relu);
}

// Every ISA level above the baseline includes F16C.
void half_to_float_span(const half* src, float* dst, std::size_t n) noexcept {
#ifdef NCSW_TARGET_F16C
  if (util::isa_level() != util::IsaLevel::kBase) {
    h2f_span_f16c(src, dst, n);
    return;
  }
#endif
  h2f_span_table(src, dst, n);
}

void float_to_half_span(const float* src, half* dst, std::size_t n) noexcept {
#ifdef NCSW_TARGET_F16C
  if (util::isa_level() != util::IsaLevel::kBase) {
    f2h_span_f16c(src, dst, n);
    return;
  }
#endif
  f2h_span_encoder(src, dst, n);
}

float half_bits_to_float(std::uint16_t bits) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t exponent = (bits >> 10) & 0x1fu;
  std::uint32_t mantissa = bits & 0x03ffu;

  if (exponent == 31) {  // inf / NaN
    return bits_float(sign | 0x7f800000u | (mantissa << 13));
  }
  if (exponent == 0) {
    if (mantissa == 0) return bits_float(sign);  // signed zero
    // Subnormal: normalise.
    int e = -1;
    do {
      ++e;
      mantissa <<= 1;
    } while ((mantissa & 0x0400u) == 0);
    mantissa &= 0x03ffu;
    const std::uint32_t float_exp = static_cast<std::uint32_t>(127 - 15 - e);
    return bits_float(sign | (float_exp << 23) | (mantissa << 13));
  }
  const std::uint32_t float_exp = exponent - 15 + 127;
  return bits_float(sign | (float_exp << 23) | (mantissa << 13));
}

}  // namespace ncsw::fp16
