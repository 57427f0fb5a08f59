// Simulated-time resources.
//
// The chip, USB and host timing models are reservation arithmetic on
// these resources: a client asks for `duration` seconds no earlier than
// `earliest` and is granted a start time. There is no event calendar;
// a resource's state is just when each of its servers next frees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ncsw::sim {

/// Simulated time in seconds.
using SimTime = double;

/// A serially-reusable resource (a bus, a DMA engine, a pool of identical
/// servers). Reservations are granted in request order; each reservation
/// occupies one server for [start, start+duration).
class Resource {
 public:
  /// `servers` parallel units (1 = fully serialised resource).
  explicit Resource(int servers = 1);

  /// Reserve one server for `duration`, no earlier than `earliest`.
  /// Returns the granted start time; the server is busy until
  /// start + duration.
  SimTime reserve(SimTime earliest, SimTime duration);

  /// Total busy time accumulated over all reservations.
  SimTime busy_time() const noexcept { return busy_; }
  /// Number of reservations granted.
  std::uint64_t reservations() const noexcept { return count_; }

 private:
  std::vector<SimTime> free_at_;  // one entry per server
  SimTime busy_ = 0.0;
  std::uint64_t count_ = 0;
};

/// A serialised resource whose reservations may arrive out of
/// chronological order: each reservation first-fits into the earliest idle
/// gap at or after `earliest`. This makes the result independent of the
/// order in which concurrent clients issue their requests — exactly what a
/// shared USB hub uplink needs when several stick timelines are simulated
/// one after another.
class IntervalResource {
 public:
  /// Reserve `duration` starting no earlier than `earliest`; returns the
  /// granted start time.
  SimTime reserve(SimTime earliest, SimTime duration);

  SimTime busy_time() const noexcept { return busy_; }
  std::uint64_t reservations() const noexcept { return count_; }

  /// Gaps older than this (relative to the latest reservation start) are
  /// forgotten: requests can no longer back-fill them. Keeps the interval
  /// list bounded for million-reservation benchmark runs; harmless for
  /// clients whose earliest times progress monotonically (all of ours).
  static constexpr SimTime kPruneWindow = 5.0;

 private:
  struct Interval {
    SimTime start;
    SimTime end;
  };
  void prune();

  // Sorted by start and non-overlapping, so the ends are sorted too.
  // [0, head_) is pruned history awaiting compaction.
  std::vector<Interval> intervals_;
  std::size_t head_ = 0;
  SimTime busy_ = 0.0;
  std::uint64_t count_ = 0;
  SimTime floor_ = 0.0;      ///< no reservation may start before this
  SimTime max_start_ = 0.0;  ///< latest granted start
};

}  // namespace ncsw::sim
