#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "serve/server.h"
#include "util/rng.h"

namespace {

using ncsw::util::percentile;
using ncsw::util::percentile_sorted;
using ncsw::util::RunningStats;
using ncsw::util::summarize;

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  ncsw::util::Xoshiro256 rng(8);
  RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  EXPECT_EQ(a.count(), 2u);

  RunningStats c;
  c.merge(a);
  EXPECT_DOUBLE_EQ(c.mean(), mean);
}

TEST(RunningStats, StdErrShrinksWithN) {
  RunningStats s;
  ncsw::util::Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) s.add(rng.normal());
  const double se100 = s.stderr_mean();
  for (int i = 0; i < 9900; ++i) s.add(rng.normal());
  EXPECT_LT(s.stderr_mean(), se100);
}

TEST(RunningStats, NumericallyStableOnLargeOffset) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.2502502502, 1e-4);
}

TEST(RunningStats, ClearResets) {
  RunningStats s;
  s.add(5);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Summarize, MatchesRunningStats) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const auto sum = summarize(xs);
  EXPECT_EQ(sum.n, 5u);
  EXPECT_DOUBLE_EQ(sum.mean, 3.0);
  EXPECT_NEAR(sum.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(sum.min, 1.0);
  EXPECT_DOUBLE_EQ(sum.max, 5.0);
}

TEST(Percentile, EdgesAndMedian) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats) {
  std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75), 7.5);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, ClampsOutOfRangeP) {
  std::vector<double> xs{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, -10), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 300), 3.0);
}

TEST(Format, MeanStddevString) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_EQ(ncsw::util::format_mean_stddev(s, 2), "2.00 ± 1.41");
}

/// Same bits, not just the same value (EXPECT_EQ would equate 0 and -0).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Random latencies drawn from few distinct values, so ties are common.
std::vector<double> tied_sample(ncsw::util::Xoshiro256& rng, std::size_t n) {
  std::vector<double> xs(n);
  for (auto& x : xs) x = 0.25 * static_cast<double>(rng.uniform_int(0, 12));
  return xs;
}

/// The sort-then-interpolate percentile that selection replaced, kept
/// as the bit-for-bit oracle.
double sort_percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

/// Negative control: select the lower order statistic, then read the
/// upper one as whatever lands next to it instead of the tail minimum.
double mutant_percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(lo),
                   xs.end());
  const double upper = xs[std::min(lo + 1, xs.size() - 1)];
  return xs[lo] + (upper - xs[lo]) * (rank - static_cast<double>(lo));
}

constexpr double kOracleP[] = {0.0, 0.1, 50.0, 95.0, 99.0, 99.9, 100.0};

/// Samples of every shape the oracle comparison covers: the small sizes
/// and 10^4 values, each with heavy duplicates and as continuous draws.
std::vector<std::vector<double>> oracle_samples() {
  ncsw::util::Xoshiro256 rng(31);
  std::vector<std::vector<double>> out;
  for (const std::size_t n : {0, 1, 2, 3, 10000}) {
    std::vector<double> tied(n), spread(n);
    for (auto& x : tied) x = 0.25 * static_cast<double>(rng.uniform_int(0, 3));
    for (auto& x : spread) x = 40.0 + 10.0 * rng.normal();
    out.push_back(std::move(tied));
    out.push_back(std::move(spread));
  }
  return out;
}

TEST(Percentile, SelectionMatchesSortOracleBitForBit) {
  for (const auto& xs : oracle_samples()) {
    for (const double p : kOracleP) {
      EXPECT_TRUE(same_bits(percentile(xs, p), sort_percentile(xs, p)))
          << "n=" << xs.size() << " p=" << p;
    }
    // Several ranks of one vector, ascending (each selects only above the
    // last) and then descending (each starts over).
    auto in_place = xs;
    std::array<double, std::size(kOracleP)> up{}, down{};
    ncsw::util::percentiles_in_place(in_place, kOracleP, up);
    std::array<double, std::size(kOracleP)> rev_p{};
    std::reverse_copy(std::begin(kOracleP), std::end(kOracleP), rev_p.begin());
    ncsw::util::percentiles_in_place(in_place, rev_p, down);
    for (std::size_t i = 0; i < up.size(); ++i) {
      const double want = sort_percentile(xs, kOracleP[i]);
      EXPECT_TRUE(same_bits(up[i], want))
          << "ascending n=" << xs.size() << " p=" << kOracleP[i];
      EXPECT_TRUE(same_bits(down[up.size() - 1 - i], want))
          << "descending n=" << xs.size() << " p=" << kOracleP[i];
    }
  }
}

TEST(Percentile, OracleCatchesAnUpperStatisticNotTakenFromTheTail) {
  int mismatches = 0;
  for (const auto& xs : oracle_samples()) {
    for (const double p : kOracleP) {
      if (!same_bits(mutant_percentile(xs, p), sort_percentile(xs, p))) {
        ++mismatches;
      }
    }
  }
  EXPECT_GT(mismatches, 0);
}

TEST(Percentile, SortedMatchesUnsortedBitForBit) {
  ncsw::util::Xoshiro256 rng(17);
  for (const std::size_t n : {0, 1, 2, 3, 7, 100, 1001}) {
    const auto xs = tied_sample(rng, n);
    auto sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 1.0, 50.0, 95.0, 99.0, 99.9, 100.0}) {
      EXPECT_TRUE(same_bits(percentile_sorted(sorted, p), percentile(xs, p)))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(Percentile, OutcomeRollupMatchesPercentileBitForBit) {
  using ncsw::serve::Outcome;
  using ncsw::serve::SloClass;
  ncsw::util::Xoshiro256 rng(23);
  auto samples = oracle_samples();
  for (const std::size_t n : {10, 257, 2000}) {
    samples.push_back(tied_sample(rng, n));
  }
  for (const auto& lat : samples) {
    const std::size_t n = lat.size();
    ncsw::serve::OutcomeRollup rollup;
    std::vector<double> completed;
    std::array<std::vector<double>, ncsw::serve::kSloClassCount> by_class;
    for (const double ms : lat) {
      const auto c = static_cast<std::size_t>(
          rng.uniform_int(0, ncsw::serve::kSloClassCount - 1));
      // In the larger samples every fifth request is rejected or
      // dropped, and only completed latencies may reach the percentiles;
      // the small ones complete in full, so 0, 1 and 2 values reach them.
      const Outcome o = n < 10 || rng.uniform_int(0, 4) > 0
                            ? Outcome::kCompleted
                        : rng.uniform_int(0, 1) ? Outcome::kRejected
                                                : Outcome::kDropped;
      rollup.add(static_cast<SloClass>(c), o, ms);
      if (o == Outcome::kCompleted) {
        completed.push_back(ms);
        by_class[c].push_back(ms);
      }
    }
    ncsw::serve::RunSummary sum;
    rollup.finish(sum);
    EXPECT_TRUE(same_bits(sum.p50_ms, sort_percentile(completed, 50.0))) << n;
    EXPECT_TRUE(same_bits(sum.p95_ms, sort_percentile(completed, 95.0))) << n;
    EXPECT_TRUE(same_bits(sum.p99_ms, sort_percentile(completed, 99.0))) << n;
    for (std::size_t c = 0; c < by_class.size(); ++c) {
      EXPECT_TRUE(same_bits(sum.classes[c].p99_ms,
                            sort_percentile(by_class[c], 99.0)))
          << "n=" << n << " class=" << c;
      EXPECT_EQ(sum.classes[c].completed,
                static_cast<std::int64_t>(by_class[c].size()));
    }
  }
}

class PercentileMonotoneParam : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotoneParam, MonotoneInP) {
  ncsw::util::Xoshiro256 rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal());
  double prev = percentile(xs, 0);
  for (int p = 5; p <= 100; p += 5) {
    const double v = percentile(xs, p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneParam,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
