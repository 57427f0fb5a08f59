// Deterministic fault injection on the simulated clock.
//
// A FaultPlan is a script of transient-fault windows keyed to sim::SimTime
// — the same plan always produces the same run, so recovery behaviour is
// testable byte-for-byte. The plan is configured on the mvnc simulation
// host (mvnc::HostConfig::faults); each NcsDevice consumes its slice of
// the plan (a FaultTimeline) and converts active windows into the fault
// responses a real USB-attached stick exhibits: transfer errors and
// stalls, FIFO busy storms, result-delivery stalls (watchdog timeouts),
// forced hard-throttle windows, and detach/reattach (hot-replug) events.
//
// Fault windows are half-open intervals [start, end) in simulated
// seconds. With an empty plan every query is a no-op, so the machinery
// is zero-cost and byte-identical to a fault-free build.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/resource.h"

namespace ncsw::sim {

/// What goes wrong during a fault window. The first six kinds are
/// stick-granularity (consumed by `ncs::NcsDevice`); the node-* kinds are
/// node-granularity (consumed by the cluster layer, `src/cluster`, where
/// `device` holds a serve-node id instead of a stick id).
enum class FaultKind : int {
  kUsbTransferError = 0,  ///< input transfer fails (NCAPI: MVNC_ERROR, retryable)
  kUsbStall,              ///< transfers issued in the window start at its end
  kBusyStorm,             ///< LoadTensor rejected regardless of FIFO occupancy
  kGetTimeout,            ///< result delivery stalled until the window ends
  kThermalThrottle,       ///< execution stretched by `magnitude` (hard throttle)
  kDetach,                ///< stick off the bus for [start, end); replug after
  kNodeCrash,             ///< serve node down for [start, end); may rejoin after
  kNodeWedge,             ///< node runtime wedged: accepts work, completes none
                          ///< until the window ends (the fault-injection paper's
                          ///< "whole-runtime hang" failure mode)
};

/// Stable lowercase name ("usb-error", "detach", ...) for traces/tables.
const char* fault_kind_name(FaultKind kind);

/// One scripted fault window.
struct FaultEvent {
  int device = -1;          ///< stick id, or -1 for every stick
  FaultKind kind = FaultKind::kUsbTransferError;
  SimTime start = 0.0;      ///< window opens (inclusive)
  SimTime end = 0.0;        ///< window closes (exclusive)
  double magnitude = 0.0;   ///< kind-specific (kThermalThrottle: exec multiplier)
};

/// The per-device view of a plan: events applying to one stick, sorted by
/// start time. Cheap value type held by NcsDevice.
class FaultTimeline {
 public:
  FaultTimeline() = default;
  explicit FaultTimeline(std::vector<FaultEvent> events);

  bool empty() const noexcept { return events_.empty(); }
  const std::vector<FaultEvent>& events() const noexcept { return events_; }

  /// The active window of `kind` covering time `t` (nullptr when none).
  const FaultEvent* active(FaultKind kind, SimTime t) const noexcept;

  /// Earliest time >= `t` not covered by any window of `kind` (chains
  /// back-to-back windows). Equals `t` when no window covers it.
  SimTime clear_of(FaultKind kind, SimTime t) const noexcept;

  /// The next unconsumed detach event with start <= `t`, scanning from
  /// `*cursor`; advances `*cursor` past consumed events. Used by the
  /// device to latch detachment exactly once per scripted event.
  const FaultEvent* next_detach(SimTime t, std::size_t* cursor) const noexcept;

 private:
  std::vector<FaultEvent> events_;  // sorted by (start, kind)
};

/// A scripted set of fault windows for a simulated host.
class FaultPlan {
 public:
  /// Append one window; `duration` must be > 0 for the event to ever
  /// match (zero-length windows are legal and inert). Throws
  /// std::invalid_argument for non-finite, negative-start, or inverted
  /// (end < start) windows — those would silently never fire.
  void add(int device, FaultKind kind, SimTime start, SimTime duration,
           double magnitude = 0.0);
  void add(const FaultEvent& event);

  bool empty() const noexcept { return events_.empty(); }
  std::size_t size() const noexcept { return events_.size(); }
  const std::vector<FaultEvent>& events() const noexcept { return events_; }

  /// Slice for one stick: events targeting `device` or all devices (-1).
  FaultTimeline timeline_for(int device) const;

  /// Deterministic pseudo-random storm for chaos sweeps: for each of
  /// `devices` sticks, transient windows (error / stall / busy / timeout /
  /// throttle) arrive as a Poisson process of `rate` per second over
  /// [0, horizon), each lasting ~`mean_duration`. Same arguments => same
  /// plan, always.
  static FaultPlan scripted_storm(std::uint64_t seed, int devices, double rate,
                                  SimTime horizon, SimTime mean_duration);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace ncsw::sim
