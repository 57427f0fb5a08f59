// Open-loop arrival processes for the serving frontend. An open-loop
// load generator decides *when* requests arrive independently of how
// fast the server drains them (Schroeder et al., "Open Versus Closed");
// that is what exposes queueing, admission and batching behaviour the
// closed-loop figure benches never see. All processes are seeded and
// pure, so a given (rate, seed) always replays the same arrival trace.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/rng.h"

namespace ncsw::serve {

/// Poisson process: i.i.d. exponential inter-arrival times at
/// `rate_per_s` requests per simulated second.
class PoissonArrivals {
 public:
  PoissonArrivals(double rate_per_s, std::uint64_t seed)
      : rng_(seed), rate_(rate_per_s) {
    if (!(rate_per_s > 0.0) || !std::isfinite(rate_per_s)) {
      throw std::invalid_argument("PoissonArrivals: rate must be > 0");
    }
  }

  /// Absolute simulated time of the next arrival (non-decreasing).
  double next() {
    // Inverse-CDF sampling; 1 - uniform() is in (0, 1], so the log is
    // finite and the increment strictly positive.
    t_ += -std::log(1.0 - rng_.uniform()) / rate_;
    return t_;
  }

 private:
  util::Xoshiro256 rng_;
  double rate_;
  double t_ = 0.0;
};

/// Fixed-interval arrivals (deterministic pacing) — handy for tests that
/// need exact queue occupancy at known times.
class UniformArrivals {
 public:
  explicit UniformArrivals(double interval_s, double start_s = 0.0)
      : interval_(interval_s), t_(start_s - interval_s) {
    if (!(interval_s >= 0.0) || !std::isfinite(interval_s)) {
      throw std::invalid_argument("UniformArrivals: bad interval");
    }
  }

  double next() { return t_ += interval_; }

 private:
  double interval_;
  double t_;
};

/// `n` requests with ids 0..n-1 whose arrivals follow
/// PoissonArrivals(rate_per_s, seed): the open-loop trace the serve and
/// cluster loadgens offer.
inline std::vector<Request> poisson_trace(std::int64_t n, double rate_per_s,
                                          std::uint64_t seed) {
  if (n < 0) throw std::invalid_argument("poisson_trace: n < 0");
  PoissonArrivals arrivals(rate_per_s, seed);
  std::vector<Request> trace(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = static_cast<std::int64_t>(i);
    trace[i].arrival_s = arrivals.next();
  }
  return trace;
}

/// The boundary check of every serving loop's run(): throws
/// std::invalid_argument unless each `arrival_s` is finite and the trace
/// is sorted (non-decreasing).
template <class Req>
void require_finite_sorted(const std::vector<Req>& requests,
                           const char* who) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!std::isfinite(requests[i].arrival_s) ||
        (i > 0 && requests[i].arrival_s < requests[i - 1].arrival_s)) {
      throw std::invalid_argument(std::string(who) +
                                  ": arrivals must be finite and sorted");
    }
  }
}

}  // namespace ncsw::serve
