// NCAPI protocol verifier.
//
// The paper's multi-VPU throughput rests on a precise usage contract for
// the NCAPI's MPI-like non-blocking LoadTensor / GetResult split: issue
// and completion must pair up FIFO-wise per graph, the stick's queue
// depth bounds the number of in-flight inferences, and handle lifetimes
// (open -> allocated -> {tensors in flight ...} -> deallocated -> closed)
// must nest. The verifier shadows every mvnc:: call with a per-device /
// per-graph state machine and flags contract violations with structured
// reports, so refactors of the threaded runner break loudly under test
// instead of silently corrupting a benchmark.
//
// Modes (mvnc::HostConfig::check):
//  - kOff: every hook is one relaxed atomic load, nothing is recorded;
//    behaviour and output are byte-identical to a build without the
//    verifier.
//  - kLog: violations are recorded (check.violation.* counters, a trace
//    instant on the offending device's "check" lane, a bounded report
//    list) and the API call returns its normal status code.
//  - kStrict: as kLog, then the violation is thrown as ProtocolViolation.
//  - kDefault: resolve kOff/kLog/kStrict from set_default_mode() or the
//    NCSW_CHECK environment variable ("log" / "strict"), falling back to
//    kOff. CI exports NCSW_CHECK=strict so the whole test and bench
//    suite runs under the verifier.
//
// The violation catalogue and the state machine diagram live in
// docs/checking.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/violation_log.h"
#include "mvnc/mvnc.h"

namespace ncsw::check {

/// Verifier operating mode.
enum class CheckMode : int {
  kDefault = 0,  ///< resolve from set_default_mode() / $NCSW_CHECK / kOff
  kOff = 1,
  kLog = 2,
  kStrict = 3,
};

/// Stable lowercase name ("off", "log", "strict", "default").
const char* check_mode_name(CheckMode mode);

/// Parse "off" / "log" / "strict" (anything else: kOff).
CheckMode parse_check_mode(const std::string& text);

/// Process-wide default used when a HostConfig asks for kDefault. Takes
/// precedence over $NCSW_CHECK; pass kDefault to fall back to the
/// environment again (the initial state). Every call also drops the
/// cached $NCSW_CHECK value, so the next resolution reads it afresh.
void set_default_mode(CheckMode mode);

/// Resolve kDefault through set_default_mode() / $NCSW_CHECK. The
/// environment is read on the first resolution after start-up or after a
/// set_default_mode() call and cached until the next such call.
CheckMode resolve_mode(CheckMode requested);

/// The contract-violation classes the verifier detects.
enum class ViolationKind : int {
  kOverIssue = 0,         ///< LoadTensor with the FIFO already at depth
  kUnmatchedGetResult,    ///< GetResult with no outstanding LoadTensor
  kUseAfterDealloc,       ///< graph call after DeallocateGraph
  kUseAfterClose,         ///< graph call after its device was closed
  kDoubleClose,           ///< CloseDevice on an already-closed handle
  kDoubleOpen,            ///< OpenDevice while a handle is already open
  kUndrainedAtDealloc,    ///< DeallocateGraph/CloseDevice with results queued
  kReplugWithoutRealloc,  ///< stale graph driven after a successful replug
  kWatchdogMisuse,        ///< zero budget, or budget change with work in flight
};

constexpr int kViolationKindCount = 9;

/// Stable kebab-case name ("over-issue", "unmatched-get-result", ...),
/// used for metrics ("check.violation.<name>") and trace instants.
const char* violation_name(ViolationKind kind);

/// One detected contract violation.
struct Violation {
  ViolationKind kind = ViolationKind::kOverIssue;
  int device = -1;        ///< stick id, -1 when not tied to a device
  double sim_time = 0.0;  ///< simulated host time at the offending call
  std::string detail;     ///< human-readable description

  /// "over-issue on dev0 at t=1.25s: ..." — the thrown what() string.
  std::string to_string() const;
};

/// Thrown by the verifier in kStrict mode.
class ProtocolViolation : public std::logic_error {
 public:
  explicit ProtocolViolation(Violation v)
      : std::logic_error(v.to_string()), violation(std::move(v)) {}
  Violation violation;
};

/// Shadows the NCAPI with per-device / per-graph state machines. All
/// hooks are no-ops in kOff mode (one relaxed atomic load). Thread-safe:
/// the mvnc entry points call in from every host thread.
class ProtocolVerifier {
 public:
  /// Install `mode` (kDefault is resolved first) and forget all tracked
  /// state and recorded violations. Called by mvnc::host_reset.
  void configure(CheckMode mode);

  CheckMode mode() const noexcept {
    return static_cast<CheckMode>(mode_.load(std::memory_order_relaxed));
  }
  bool enabled() const noexcept { return mode() != CheckMode::kOff; }

  // -- Hooks, one per NCAPI entry point (called with the call's result). --
  void on_open(const void* device, int id, mvnc::mvncStatus st, double t);
  void on_close(const void* device, mvnc::mvncStatus st, double t);
  void on_allocate(const void* device, const void* graph, int fifo_depth,
                   mvnc::mvncStatus st, double t);
  void on_deallocate(const void* graph, mvnc::mvncStatus st, double t);
  void on_load(const void* graph, mvnc::mvncStatus st, double t);
  void on_get(const void* graph, mvnc::mvncStatus st, double t);
  /// set_watchdog was called with `timeout_s` (only successful sets).
  void on_watchdog(const void* graph, double timeout_s, double t);
  /// replug_device succeeded: graphs allocated before it are now stale.
  void on_replug(const void* device, double t);

  // -- Report access (for tests and tools). --
  using Log = ViolationLog<Violation, ProtocolViolation, kViolationKindCount>;
  std::uint64_t count(ViolationKind kind) const { return log_.count(kind); }
  std::uint64_t total() const { return log_.total(); }
  /// Recorded violations, oldest first (bounded; see kMaxRecorded).
  std::vector<Violation> violations() const { return log_.violations(); }
  /// Drop recorded violations and counts; tracked handles survive.
  void clear_violations() { log_.clear(); }

  /// Recorded-violation list cap; counts keep accumulating past it.
  static constexpr std::size_t kMaxRecorded = Log::kMaxRecorded;

 private:
  struct DeviceRec {
    int id = -1;
    bool open = false;
    std::uint64_t replug_epoch = 0;  ///< bumped on every successful replug
  };
  struct GraphRec {
    const void* device = nullptr;
    int device_id = -1;
    int fifo_depth = 0;
    int in_flight = 0;
    std::uint64_t replug_epoch = 0;  ///< device epoch at allocation
    bool deallocated = false;
    bool device_closed = false;
  };

  /// Log the violation on its device's "dev<N> check" lane (log_.report);
  /// throws in kStrict. Caller holds mutex_ (it is released first).
  void report(std::unique_lock<std::mutex>& lock, ViolationKind kind,
              int device, double t, std::string detail);
  /// The graph is stale after a replug / deallocated / orphaned by close:
  /// emit the matching violation if so and return true. Caller holds lock.
  bool flag_dead_graph(std::unique_lock<std::mutex>& lock, const void* graph,
                       const GraphRec& rec, double t, const char* call);

  std::atomic<int> mode_{static_cast<int>(CheckMode::kOff)};

  mutable std::mutex mutex_;
  std::unordered_map<const void*, DeviceRec> devices_;
  std::unordered_map<const void*, GraphRec> graphs_;
  Log log_;
};

/// The process-wide verifier the mvnc entry points report to.
ProtocolVerifier& verifier();

}  // namespace ncsw::check
