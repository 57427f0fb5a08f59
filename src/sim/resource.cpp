#include "sim/resource.h"

#include <algorithm>
#include <stdexcept>

namespace ncsw::sim {

Resource::Resource(int servers) {
  if (servers < 1) throw std::invalid_argument("Resource: servers < 1");
  free_at_.assign(static_cast<std::size_t>(servers), 0.0);
}

SimTime Resource::reserve(SimTime earliest, SimTime duration) {
  if (duration < 0.0) {
    throw std::invalid_argument("Resource::reserve: negative duration");
  }
  // Pick the server that frees up first.
  auto it = std::min_element(free_at_.begin(), free_at_.end());
  const SimTime start = std::max(earliest, *it);
  *it = start + duration;
  busy_ += duration;
  ++count_;
  return start;
}

SimTime IntervalResource::reserve(SimTime earliest, SimTime duration) {
  if (duration < 0.0) {
    throw std::invalid_argument("IntervalResource::reserve: negative duration");
  }
  if (earliest < floor_) earliest = floor_;
  // First-fit: find the earliest gap at/after `earliest` wide enough.
  SimTime cursor = earliest;
  std::size_t pos = 0;
  for (; pos < intervals_.size(); ++pos) {
    const Interval& iv = intervals_[pos];
    if (iv.end <= cursor) continue;          // fully before the cursor
    if (cursor + duration <= iv.start) break;  // fits in the gap before iv
    cursor = std::max(cursor, iv.end);       // skip past this busy interval
  }
  intervals_.insert(intervals_.begin() + static_cast<std::ptrdiff_t>(pos),
                    Interval{cursor, cursor + duration});
  // Keep the vector sorted: the insert position preserves start order
  // because cursor >= intervals_[pos-1].end and cursor + duration <=
  // intervals_[pos].start.
  busy_ += duration;
  ++count_;
  max_start_ = std::max(max_start_, cursor);
  prune();
  return cursor;
}

void IntervalResource::prune() {
  const SimTime cutoff = max_start_ - kPruneWindow;
  if (cutoff <= floor_) return;
  std::size_t keep = 0;
  while (keep < intervals_.size() && intervals_[keep].end < cutoff) ++keep;
  if (keep == 0) return;
  floor_ = std::max(floor_, intervals_[keep - 1].end);
  intervals_.erase(intervals_.begin(),
                   intervals_.begin() + static_cast<std::ptrdiff_t>(keep));
}

}  // namespace ncsw::sim
