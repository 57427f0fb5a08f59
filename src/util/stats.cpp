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
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
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
