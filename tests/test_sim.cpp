#include "sim/resource.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace {

using ncsw::sim::IntervalResource;
using ncsw::sim::Resource;

TEST(Resource, SingleServerSerialises) {
  Resource r;
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 3.0), 2.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(r.reserve(10.0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(r.busy_time(), 6.0);
  EXPECT_EQ(r.reservations(), 3u);
}

TEST(Resource, MultiServerParallelism) {
  Resource r(3);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 5.0), 5.0);  // fourth waits
}

TEST(Resource, RejectsBadArguments) {
  EXPECT_THROW(Resource(0), std::invalid_argument);
  Resource r;
  EXPECT_THROW(r.reserve(0.0, -1.0), std::invalid_argument);
}

TEST(IntervalResource, BackToBackPlacement) {
  IntervalResource r;
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 1.0), 2.0);
}

TEST(IntervalResource, FirstFitFillsEarlierGaps) {
  IntervalResource r;
  r.reserve(5.0, 2.0);  // [5, 7)
  // A later request with an earlier earliest lands in the gap before 5.
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 3.0), 0.0);
  // A request that does not fit the remaining [3,5) gap goes after 7.
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 4.0), 7.0);
  // A small one still fits [3, 5).
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 2.0), 3.0);
}

TEST(IntervalResource, MakespanOrderInvariantForEqualEarliest) {
  // When all requests share the same earliest time (the common case for
  // the multi-VPU runner: every stick starts its transfer stream at t0),
  // the makespan equals the sum of durations regardless of issue order.
  const std::vector<double> durs{1.0, 2.0, 0.5, 3.0, 1.5};
  auto span_of = [&](std::vector<int> order) {
    IntervalResource r;
    double span = 0;
    for (int i : order) {
      span = std::max(span, r.reserve(0.0, durs[i]) + durs[i]);
    }
    return span;
  };
  const double expected = 8.0;  // sum of durations
  EXPECT_NEAR(span_of({0, 1, 2, 3, 4}), expected, 1e-12);
  EXPECT_NEAR(span_of({4, 3, 2, 1, 0}), expected, 1e-12);
  EXPECT_NEAR(span_of({2, 0, 4, 1, 3}), expected, 1e-12);
}

TEST(IntervalResource, EarliestInsideBusyIntervalPushesAfter) {
  IntervalResource r;
  r.reserve(0.0, 10.0);  // [0, 10)
  EXPECT_DOUBLE_EQ(r.reserve(4.0, 1.0), 10.0);
}

TEST(IntervalResource, NegativeEarliestClampsToZero) {
  IntervalResource r;
  EXPECT_DOUBLE_EQ(r.reserve(-5.0, 1.0), 0.0);
}

TEST(IntervalResource, BusyTimeAccumulates) {
  IntervalResource r;
  r.reserve(0.0, 2.0);
  r.reserve(10.0, 3.0);
  EXPECT_DOUBLE_EQ(r.busy_time(), 5.0);
  EXPECT_EQ(r.reservations(), 2u);
}

TEST(IntervalResource, ManyRandomReservationsNeverOverlap) {
  ncsw::util::Xoshiro256 rng(77);
  IntervalResource r;
  std::vector<std::pair<double, double>> placed;
  for (int i = 0; i < 300; ++i) {
    const double earliest = rng.uniform(0.0, 50.0);
    const double dur = rng.uniform(0.1, 2.0);
    const double start = r.reserve(earliest, dur);
    EXPECT_GE(start, earliest);
    placed.emplace_back(start, start + dur);
  }
  std::sort(placed.begin(), placed.end());
  for (std::size_t i = 1; i < placed.size(); ++i) {
    EXPECT_GE(placed[i].first, placed[i - 1].second - 1e-12);
  }
}

TEST(IntervalResource, PrunesAncientGapsButStaysConsistent) {
  IntervalResource r;
  r.reserve(0.0, 1.0);  // [0, 1)
  // Jump far ahead: the early gap ages out of the prune window.
  r.reserve(100.0, 1.0);
  r.reserve(100.0, 1.0);
  // A request from before the pruned history is clamped to the end of the
  // forgotten region (it can never overlap a pruned reservation), but the
  // still-remembered gap after it stays usable.
  const double start = r.reserve(0.0, 0.5);
  EXPECT_GE(start, 1.0 - 1e-12);
  EXPECT_LT(start, 100.0);
  // Reservations still never overlap.
  const double again = r.reserve(start, 0.5);
  EXPECT_GE(again, start + 0.5 - 1e-12);
}

TEST(IntervalResource, ManyReservationsStayFast) {
  // Regression guard for the benchmark-scale runs: 100k reservations on
  // one channel must not blow up quadratically (pruning keeps the
  // interval list bounded).
  IntervalResource r;
  double t = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    t = r.reserve(t, 1e-4) + 1e-4;
  }
  EXPECT_EQ(r.reservations(), 100'000u);
  EXPECT_NEAR(r.busy_time(), 10.0, 1e-6);
}

}  // namespace
