#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ncsw::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const noexcept {
  if (n_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

Summary summarize(const std::vector<double>& xs) noexcept {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  Summary s;
  s.n = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.count() ? rs.min() : 0.0;
  s.max = rs.count() ? rs.max() : 0.0;
  return s;
}

double percentile(std::vector<double> xs, double p) noexcept {
  double out = 0.0;
  percentiles_in_place(xs, {&p, 1}, {&out, 1});
  return out;
}

void percentiles_in_place(std::span<double> xs, std::span<const double> ps,
                          std::span<double> out) noexcept {
  const std::size_t n = xs.size();
  if (n == 0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // xs[0, from) holds no element greater than any in xs[from, n): each
  // selection at rank lo leaves that true for from = lo + 1.
  std::size_t from = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double p = std::clamp(ps[i], 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 < from) from = 0;  // a lower rank than the last: start over
    if (lo >= from) {
      std::nth_element(xs.begin() + static_cast<std::ptrdiff_t>(from),
                       xs.begin() + static_cast<std::ptrdiff_t>(lo), xs.end());
    }
    from = lo + 1;
    const double lower = xs[lo];
    const auto tail = xs.begin() + static_cast<std::ptrdiff_t>(lo + 1);
    const double upper = lo + 1 < n ? *std::min_element(tail, xs.end()) : lower;
    // percentile_sorted's expression, on the same two order statistics.
    out[i] = lower + (upper - lower) * frac;
  }
}

double percentile_sorted(const std::vector<double>& sorted, double p) noexcept {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string format_mean_stddev(const RunningStats& s, int precision) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.*f ± %.*f", precision, s.mean(),
                precision, s.stddev());
  return buf;
}

}  // namespace ncsw::util
