// Streaming statistics used to produce the mean ± stddev error bars that
// every figure in the paper reports.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ncsw::util {

/// Welford's online algorithm: numerically stable running mean/variance.
class RunningStats {
 public:
  /// Add one observation.
  void add(double x) noexcept;

  /// Merge another accumulator into this one (parallel reduction;
  /// Chan et al. pairwise update).
  void merge(const RunningStats& other) noexcept;

  /// Number of observations added so far.
  std::size_t count() const noexcept { return n_; }
  /// Mean of the observations (0 when empty).
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance (0 when n < 2).
  double variance() const noexcept;
  /// Sample standard deviation.
  double stddev() const noexcept;
  /// Standard error of the mean.
  double stderr_mean() const noexcept;
  /// Smallest observation seen (+inf when empty).
  double min() const noexcept { return min_; }
  /// Largest observation seen (-inf when empty).
  double max() const noexcept { return max_; }
  /// Sum of all observations.
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Reset to the empty state.
  void clear() noexcept { *this = RunningStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 1.0 / 0.0 * 1.0;  // +inf without <limits> macros
  double max_ = -(1.0 / 0.0);
};

/// Summary of a sample: convenience struct for table printing.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Summarise a vector of observations.
Summary summarize(const std::vector<double>& xs) noexcept;

/// Exact percentile (linear interpolation between order statistics).
/// `p` in [0,100]. Returns 0 for an empty sample. Found by selection
/// (see percentiles_in_place), not by sorting.
double percentile(std::vector<double> xs, double p) noexcept;

/// percentile() of `xs` at each of `ps`, written to `out` (same size),
/// in place and without a copy: `xs` is left reordered. The lower order
/// statistic of each rank is placed by std::nth_element and the upper
/// one is the least element after it, so for a sample without NaN the
/// doubles are those a full sort would give. Ascending `ps` re-select
/// only the part of `xs` above the previous rank.
void percentiles_in_place(std::span<double> xs, std::span<const double> ps,
                          std::span<double> out) noexcept;

/// percentile() of a sample already sorted ascending.
double percentile_sorted(const std::vector<double>& sorted, double p) noexcept;

/// Format "mean ± stddev" with the given precision, e.g. "77.20 ± 0.31".
std::string format_mean_stddev(const RunningStats& s, int precision = 2);

}  // namespace ncsw::util
