// Deterministic pseudo-random number generation for reproducible
// experiments. Every benchmark and dataset in this repository derives its
// randomness from these generators with fixed seeds so that runs are
// bit-reproducible across machines.
#pragma once

#include <cstdint>
#include <limits>

namespace ncsw::util {

/// SplitMix64 — tiny, fast generator used to seed Xoshiro256** and to hash
/// integer keys into well-distributed 64-bit values (Steele et al., 2014).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Stateless mixing function: maps (seed, key) to a decorrelated 64-bit
/// value. Used to derive per-image / per-class seeds without carrying
/// generator state around.
constexpr std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t key) noexcept {
  SplitMix64 sm(seed ^ (key * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL));
  return sm.next();
}

/// Xoshiro256** — the repository's general-purpose generator
/// (Blackman & Vigna, 2018). Passes BigCrush; 2^256-1 period.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept { reseed(seed); }

  /// Re-initialise the 256-bit state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t uniform_u64(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_u64(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Standard normal variate (Marsaglia polar method; cached pair).
  double normal() noexcept;

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace ncsw::util
