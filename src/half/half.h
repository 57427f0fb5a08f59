// IEEE 754 binary16 ("half") value type.
//
// The Myriad 2 VPU computes natively in FP16; the paper converts pixel
// data from FP32 to FP16 with the OpenEXR half class before offloading to
// the NCS. This is our from-scratch equivalent: bit-exact conversions with
// round-to-nearest-even, full subnormal support, and arithmetic performed
// by converting through float (which is exactly what a host-side half
// class does).
#pragma once

#include <cstdint>
#include <limits>

namespace ncsw::fp16 {

/// Convert an IEEE binary32 bit pattern to binary16 with round-to-nearest,
/// ties-to-even. Handles subnormals, infinities and NaNs (NaN payload is
/// reduced to a quiet NaN).
std::uint16_t float_to_half_bits(float value) noexcept;

/// Convert a binary16 bit pattern to the exactly-representable float.
float half_bits_to_float(std::uint16_t bits) noexcept;

class half;

/// 65536-entry lookup table with table[bits] == half_bits_to_float(bits).
/// Built once on first use (256 KiB); the fast path for strided or
/// gather-style decodes where the span converters below do not fit.
const float* half_to_float_table() noexcept;

/// Bulk binary16 -> binary32 decode, bit-identical to calling
/// half_bits_to_float per element, NaN payloads included (src/dst may not
/// overlap). Runs 8 lanes at a time through F16C when the machine has
/// it; an 8-lane block holding a NaN, and the n % 8 tail, take the table.
void half_to_float_span(const half* src, float* dst, std::size_t n) noexcept;

/// Bulk binary32 -> binary16 encode with round-to-nearest-even,
/// bit-identical to calling float_to_half_bits per element, NaNs
/// collapsing to the canonical quiet NaN (src/dst may not overlap). Runs
/// 8 lanes at a time through F16C when the machine has it; an 8-lane
/// block holding a NaN, and the n % 8 tail, take the branch-reduced
/// software encoder.
void float_to_half_span(const float* src, half* dst, std::size_t n) noexcept;

/// The exact tier's FP16 layer epilogue over one output row:
/// dst[i] = half(float(half(acc[i])) + bias), the FP32 accumulator
/// rounded, widened, biased and rounded again, as FP16 storage between
/// the MAC pipeline and the bias add makes it. With `relu`, a negative
/// result (bits in [0x8001, 0xfc00]) then becomes +0: the test reads the
/// final half, so a sum that rounds to -0 stays -0, and NaNs pass.
/// Bit-identical to the scalar conversions per element. Runs 8 lanes at
/// a time through F16C when the machine has it; an 8-lane block with a
/// NaN in acc or in the biased sum, and the n % 8 tail, take the
/// software converters. acc and dst may not overlap.
void round_bias_round_span(const float* acc, float bias, half* dst,
                           std::size_t n, bool relu) noexcept;

/// IEEE binary16 value type. Storage is the raw 16-bit pattern;
/// arithmetic widens to float and rounds back, matching host-side
/// conversion libraries (and the per-element rounding the VPU's VAU
/// performs after each FP16 op).
class half {
 public:
  /// Zero-initialised (+0.0).
  constexpr half() noexcept = default;

  /// Construct from float with round-to-nearest-even.
  explicit half(float value) noexcept : bits_(float_to_half_bits(value)) {}
  /// Construct from double (through float).
  explicit half(double value) noexcept : half(static_cast<float>(value)) {}
  /// Construct from int (through float).
  explicit half(int value) noexcept : half(static_cast<float>(value)) {}

  /// Reinterpret a raw bit pattern as a half.
  static constexpr half from_bits(std::uint16_t bits) noexcept {
    half h;
    h.bits_ = bits;
    return h;
  }

  /// The raw binary16 bit pattern.
  constexpr std::uint16_t bits() const noexcept { return bits_; }

  /// Widen to float (exact).
  float to_float() const noexcept { return half_bits_to_float(bits_); }
  /// Widen to float (exact).
  explicit operator float() const noexcept { return to_float(); }

  /// True for +0.0 and -0.0.
  constexpr bool is_zero() const noexcept { return (bits_ & 0x7fffu) == 0; }
  /// True for +inf / -inf.
  constexpr bool is_inf() const noexcept { return (bits_ & 0x7fffu) == 0x7c00u; }
  /// True for any NaN.
  constexpr bool is_nan() const noexcept {
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) != 0;
  }
  /// True for subnormal (denormalised) values.
  constexpr bool is_subnormal() const noexcept {
    return (bits_ & 0x7c00u) == 0 && (bits_ & 0x03ffu) != 0;
  }
  /// Sign bit (true when negative, including -0 and negative NaN patterns).
  constexpr bool signbit() const noexcept { return (bits_ & 0x8000u) != 0; }

  friend half operator-(half a) noexcept {
    return from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }
  friend half operator+(half a, half b) noexcept {
    return half(a.to_float() + b.to_float());
  }
  friend half operator-(half a, half b) noexcept {
    return half(a.to_float() - b.to_float());
  }
  friend half operator*(half a, half b) noexcept {
    return half(a.to_float() * b.to_float());
  }
  friend half operator/(half a, half b) noexcept {
    return half(a.to_float() / b.to_float());
  }
  half& operator+=(half o) noexcept { return *this = *this + o; }
  half& operator-=(half o) noexcept { return *this = *this - o; }
  half& operator*=(half o) noexcept { return *this = *this * o; }
  half& operator/=(half o) noexcept { return *this = *this / o; }

  // IEEE comparisons (NaN compares false, +0 == -0).
  friend bool operator==(half a, half b) noexcept {
    if (a.is_nan() || b.is_nan()) return false;
    if (a.is_zero() && b.is_zero()) return true;
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(half a, half b) noexcept { return !(a == b); }
  friend bool operator<(half a, half b) noexcept {
    return a.to_float() < b.to_float();
  }
  friend bool operator>(half a, half b) noexcept { return b < a; }
  friend bool operator<=(half a, half b) noexcept {
    return a.to_float() <= b.to_float();
  }
  friend bool operator>=(half a, half b) noexcept { return b <= a; }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(half) == 2, "half must be 2 bytes");

/// ReLU on a half's bits: a half is < 0 exactly when its sign is set and
/// its magnitude is non-zero and at most infinity, bits in
/// [0x8001, 0xfc00], which become +0. -0 and NaNs stay as they are, as
/// the float comparison x < 0 leaves them.
constexpr half relu(half h) noexcept {
  return h.bits() > 0x8000u && h.bits() <= 0xfc00u ? half() : h;
}

/// Round-trip helper: the float value after an FP32 -> FP16 -> FP32 trip.
inline float round_to_half(float value) noexcept {
  return half(value).to_float();
}

// Named constants mirroring std::numeric_limits.
inline constexpr half kHalfMax = half::from_bits(0x7bffu);        // 65504
inline constexpr half kHalfMinNormal = half::from_bits(0x0400u);  // 2^-14
inline constexpr half kHalfDenormMin = half::from_bits(0x0001u);  // 2^-24
inline constexpr half kHalfInfinity = half::from_bits(0x7c00u);
inline constexpr half kHalfQuietNaN = half::from_bits(0x7e00u);
inline constexpr half kHalfEpsilon = half::from_bits(0x1400u);  // 2^-10

}  // namespace ncsw::fp16

// numeric_limits specialisation so generic numeric code can interrogate
// the type like any built-in floating point type.
template <>
class std::numeric_limits<ncsw::fp16::half> {
 public:
  static constexpr bool is_specialized = true;
  static constexpr bool is_signed = true;
  static constexpr bool is_integer = false;
  static constexpr bool is_exact = false;
  static constexpr bool has_infinity = true;
  static constexpr bool has_quiet_NaN = true;
  static constexpr int digits = 11;        // implicit bit + 10 mantissa bits
  static constexpr int max_exponent = 16;  // 2^15 < 65504 < 2^16
  static constexpr int min_exponent = -13;

  static constexpr ncsw::fp16::half min() noexcept {
    return ncsw::fp16::kHalfMinNormal;
  }
  static constexpr ncsw::fp16::half max() noexcept {
    return ncsw::fp16::kHalfMax;
  }
  static constexpr ncsw::fp16::half lowest() noexcept {
    return ncsw::fp16::half::from_bits(0xfbffu);
  }
  static constexpr ncsw::fp16::half denorm_min() noexcept {
    return ncsw::fp16::kHalfDenormMin;
  }
  static constexpr ncsw::fp16::half infinity() noexcept {
    return ncsw::fp16::kHalfInfinity;
  }
  static constexpr ncsw::fp16::half quiet_NaN() noexcept {
    return ncsw::fp16::kHalfQuietNaN;
  }
  static constexpr ncsw::fp16::half epsilon() noexcept {
    return ncsw::fp16::kHalfEpsilon;
  }
};
