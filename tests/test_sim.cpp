#include "sim/resource.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace {

using ncsw::sim::IntervalResource;
using ncsw::sim::Resource;
using ncsw::sim::SimTime;

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

// The first-fit link as it was before the binary search and the head
// index: a walk from index 0 and a front erase on every prune. Kept as
// the spec the production IntervalResource must match bit for bit.
class LinearIntervalOracle {
 public:
  SimTime reserve(SimTime earliest, SimTime duration) {
    if (duration < 0.0) throw std::invalid_argument("negative duration");
    if (earliest < floor_) earliest = floor_;
    SimTime cursor = earliest;
    std::size_t pos = 0;
    for (; pos < intervals_.size(); ++pos) {
      const Interval& iv = intervals_[pos];
      if (iv.end <= cursor) continue;
      if (cursor + duration <= iv.start) break;
      cursor = std::max(cursor, iv.end);
    }
    intervals_.insert(intervals_.begin() + static_cast<std::ptrdiff_t>(pos),
                      Interval{cursor, cursor + duration});
    busy_ += duration;
    ++count_;
    max_start_ = std::max(max_start_, cursor);
    const SimTime cutoff = max_start_ - IntervalResource::kPruneWindow;
    if (cutoff > floor_) {
      std::size_t keep = 0;
      while (keep < intervals_.size() && intervals_[keep].end < cutoff) ++keep;
      if (keep > 0) {
        floor_ = std::max(floor_, intervals_[keep - 1].end);
        intervals_.erase(
            intervals_.begin(),
            intervals_.begin() + static_cast<std::ptrdiff_t>(keep));
      }
    }
    return cursor;
  }
  SimTime busy_time() const { return busy_; }
  std::uint64_t reservations() const { return count_; }

 private:
  struct Interval {
    SimTime start;
    SimTime end;
  };
  std::vector<Interval> intervals_;
  SimTime busy_ = 0.0;
  std::uint64_t count_ = 0;
  SimTime floor_ = 0.0;
  SimTime max_start_ = 0.0;
};

// One request of a differential pattern: `next(i, last_start)` returns
// the i-th (earliest, duration), given the start granted to request i-1.
struct Ask {
  SimTime earliest;
  SimTime duration;
};
using Pattern = std::function<Ask(int, SimTime)>;

constexpr int kOracleReservations = 100'000;

// Drive the oracle and the production resource with the same requests
// and require the same bits everywhere. The simulated span must cover
// many prune windows, so the head index compacts many times over.
void expect_matches_oracle(const Pattern& next) {
  LinearIntervalOracle oracle;
  IntervalResource r;
  SimTime last = 0.0, horizon = 0.0;
  for (int i = 0; i < kOracleReservations; ++i) {
    const Ask a = next(i, last);
    const SimTime want = oracle.reserve(a.earliest, a.duration);
    ASSERT_EQ(r.reserve(a.earliest, a.duration), want)
        << "reservation " << i << " earliest " << a.earliest << " duration "
        << a.duration;
    last = want;
    horizon = std::max(horizon, want);
  }
  EXPECT_EQ(r.busy_time(), oracle.busy_time());
  EXPECT_EQ(r.reservations(), oracle.reservations());
  EXPECT_GT(horizon, 50 * IntervalResource::kPruneWindow);
}

TEST(IntervalResourceOracle, MonotoneBackToBack) {
  ncsw::util::Xoshiro256 rng(11);
  SimTime dur = 0.0;
  expect_matches_oracle([&](int, SimTime last) {
    const Ask a{last + dur, rng.uniform(0.005, 0.05)};
    dur = a.duration;
    return a;
  });
}

TEST(IntervalResourceOracle, ThreeHubClientsInterleavedOutOfOrder) {
  // Three sticks on one hub, each with its own clock, issuing in a fresh
  // random order each round and sometimes asking for a slot up to a
  // second back: later requests back-fill gaps inside the prune window.
  ncsw::util::Xoshiro256 rng(12);
  SimTime clock[3] = {0.0, 0.0, 0.0};
  int order[3] = {0, 1, 2};
  int client = 0;
  SimTime pending = 0.0;
  expect_matches_oracle([&](int i, SimTime last) {
    if (i > 0) clock[client] = last + pending + rng.uniform(0.0, 0.02);
    if (i % 3 == 0) {
      for (int k = 2; k > 0; --k) {
        std::swap(order[k], order[rng.uniform_int(0, k)]);
      }
    }
    client = order[i % 3];
    pending = rng.uniform(0.002, 0.04);
    const SimTime back = rng.uniform() < 0.25 ? rng.uniform(0.0, 1.0) : 0.0;
    return Ask{clock[client] - back, pending};
  });
}

TEST(IntervalResourceOracle, JumpsPastThePruneWindow) {
  // A steady client, and every 300th request a jump 5.5-12 s ahead of
  // it. The steady client's next requests then fall behind the prune
  // cutoff (clamped to the floor) and back-fill the gap up to the jump.
  ncsw::util::Xoshiro256 rng(13);
  SimTime steady = 0.0, dur = 0.0;
  bool jumped = false;
  expect_matches_oracle([&](int i, SimTime last) {
    if (i > 0 && !jumped) steady = last + dur;
    dur = rng.uniform(0.01, 0.05);
    jumped = i % 300 == 299;
    if (jumped) return Ask{steady + rng.uniform(5.5, 12.0), dur};
    return Ask{steady - rng.uniform(0.0, 0.5), dur};
  });
}

TEST(IntervalResourceOracle, ZeroDurations) {
  // A third of the requests are zero-length; they land on busy
  // intervals' ends, between back-to-back intervals and on each other.
  ncsw::util::Xoshiro256 rng(14);
  SimTime clock[3] = {0.0, 0.0, 0.0};
  SimTime dur = 0.0;
  int client = 0;
  expect_matches_oracle([&](int i, SimTime last) {
    if (i > 0) clock[client] = last + dur;
    client = static_cast<int>(rng.uniform_int(0, 2));
    dur = rng.uniform() < 0.33 ? 0.0 : rng.uniform(0.005, 0.03);
    return Ask{clock[client], dur};
  });
}

TEST(IntervalResourceOracle, EqualEarliest) {
  // Batches of 2-9 requests share one earliest (every stick starting its
  // transfer stream at the same t0). Each batch asks from between 0.3 s
  // before and 0.1 s after the previous batch's last end: a late start
  // leaves a gap that a later batch's short requests back-fill.
  ncsw::util::Xoshiro256 rng(15);
  SimTime t0 = 0.0, batch_end = 0.0, dur = 0.0;
  int left = 0;
  expect_matches_oracle([&](int i, SimTime last) {
    if (i > 0) batch_end = std::max(batch_end, last + dur);
    if (left == 0) {
      t0 = batch_end - rng.uniform(-0.1, 0.3);
      left = static_cast<int>(rng.uniform_int(2, 9));
    }
    --left;
    dur = rng.uniform(0.005, 0.04);
    return Ask{t0, dur};
  });
}

TEST(IntervalResourceOracle, EarliestExactlyOnAnIntervalEnd) {
  // Every earliest is the exact end of a recent grant, so the binary
  // search's tie (an interval ending at the cursor) is hit constantly.
  ncsw::util::Xoshiro256 rng(16);
  std::deque<SimTime> ends{0.0};
  SimTime dur = 0.0;
  expect_matches_oracle([&](int i, SimTime last) {
    if (i > 0) {
      ends.push_back(last + dur);
      if (ends.size() > 64) ends.pop_front();
    }
    dur = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.005, 0.04);
    const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(ends.size()) - 1));
    return Ask{ends[pick], dur};
  });
}

}  // namespace
