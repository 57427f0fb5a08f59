// The one event-selection core of the serve, cluster and zoo loops.
//
// Each iteration a loop offers every scheduled event as a (kind, index,
// t) candidate; the picker returns the lexicographic minimum of
// (t, position of kind in the loop's priority table, index). Each loop
// states its tie order once, as a constexpr table next to its class
// (kServerEventOrder, cluster::kClusterEventOrder, kZooEventOrder).
//
// Determinism fuzzing (check/schedfuzz.h) perturbs this same path:
// while a ScopedTieBreak lives on the thread, every pick with two or
// more candidates at the winning time hands the tied set to the hook,
// in production order, so index 0 is the production pick.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

namespace ncsw::serve {

/// The event classes the serving event loops arbitrate between.
enum class LoopEventKind : int {
  kComplete = 0,
  kDrop,
  kFault,
  kProbe,
  kReady,
  kHedge,
  kArrive,
  kFlush,
};

/// Stable lowercase name ("complete", "drop", "fault", ...).
const char* loop_event_kind_name(LoopEventKind kind);

/// One candidate event. `index` tells same-kind candidates apart (the
/// node, stick or queue it belongs to); lower indices win ties.
struct LoopEvent {
  LoopEventKind kind = LoopEventKind::kComplete;
  int index = 0;
  double t = 0.0;
};

/// Schedule-perturbation hook: given a tie group (>= 2 candidates at
/// time `t`, in production order), return the position of the event to
/// process next (taken modulo the group size).
using TieBreak =
    std::function<std::size_t(double t, const std::vector<LoopEvent>& tied)>;

/// Installs `hook` as the calling thread's tie hook until destruction,
/// then restores the previous one. EventPickers constructed on the
/// thread meanwhile consult it, so the scope must outlive them.
class ScopedTieBreak {
 public:
  explicit ScopedTieBreak(TieBreak hook);
  ~ScopedTieBreak();
  ScopedTieBreak(const ScopedTieBreak&) = delete;
  ScopedTieBreak& operator=(const ScopedTieBreak&) = delete;

 private:
  TieBreak hook_;
  const TieBreak* prev_;
};

/// Picks one loop's next event. Allocation-free unless a tie hook was
/// installed when it was constructed. Not thread-safe.
class EventPicker {
 public:
  /// `order` is the loop's priority table: earlier kinds win ties.
  /// Offering a kind absent from the table is a logic error.
  explicit EventPicker(std::span<const LoopEventKind> order);

  /// Start an iteration: forget the candidates.
  void clear() noexcept {
    best_.t = kNone;
    tied_.clear();
  }

  /// Offer one candidate; t = +inf (or NaN) means "not scheduled".
  void offer(LoopEventKind kind, int index, double t) {
    if (!(t < kNone)) return;
    const int rank = rank_[static_cast<std::size_t>(kind)];
    if (rank < 0) throw std::logic_error("EventPicker: kind not in table");
    if (t < best_.t ||
        (t == best_.t &&
         (rank < best_rank_ || (rank == best_rank_ && index < best_.index)))) {
      best_ = {kind, index, t};
      best_rank_ = rank;
    }
    if (hook_ != nullptr) collect({kind, index, t});
  }

  /// The event to process, or nullopt when nothing was offered.
  std::optional<LoopEvent> pick() {
    if (tied_.size() > 1) return pick_tied();
    if (best_.t == kNone) return std::nullopt;
    return best_;
  }

 private:
  static constexpr double kNone = std::numeric_limits<double>::infinity();

  void collect(const LoopEvent& ev);
  LoopEvent pick_tied();

  std::array<int, 8> rank_{};  ///< table position per kind, -1 = absent
  LoopEvent best_{LoopEventKind::kComplete, 0, kNone};
  int best_rank_ = 0;
  const TieBreak* hook_;
  std::vector<LoopEvent> tied_;  ///< candidates at the earliest t (hook only)
};

}  // namespace ncsw::serve
