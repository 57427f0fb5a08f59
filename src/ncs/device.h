// Neural Compute Stick device model.
//
// One stick = one simulated Myriad 2 plus a USB upstream channel and the
// RISC-hosted runtime: firmware boot on open, a FIFO of queued inferences
// (mvncLoadTensor returns once the input is transferred and execution is
// queued; mvncGetResult blocks until the head of the FIFO completes —
// the MPI-like non-blocking split of Listing 1). All timing lives on the
// shared simulated clock; per-inference execution time comes from the
// Myriad 2 layer-by-layer simulation plus a small deterministic jitter
// that stands in for run-to-run measurement noise.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "graphc/compiler.h"
#include "myriad/myriad.h"
#include "ncs/thermal.h"
#include "ncs/usb.h"
#include "sim/fault.h"
#include "util/metrics.h"

namespace ncsw::ncs {

/// Stick-level parameters on top of the chip model.
struct NcsConfig {
  myriad::MyriadConfig chip;       ///< the Myriad 2 inside
  double firmware_boot_s = 1.1;    ///< mvncOpenDevice firmware load
  double command_overhead_s = 50e-6;  ///< RISC command handling per op
  double graph_alloc_per_mb_s = 9e-3; ///< graph file upload+parse per MiB
  double exec_jitter_frac = 0.004;    ///< +/- uniform jitter on exec time
  int fifo_depth = 2;                 ///< queued inferences (NCSDK default)
  /// Host-side gap inserted between completing one inference and issuing
  /// the next on the same stick (thread wake-up / dispatch cost). NCSw
  /// sets this larger in multi-threaded mode (paper: "a small penalty ...
  /// due to the thread-management overhead").
  double inter_op_gap_s = 0.0;
  /// Stick power overhead beyond the chip (USB PHY, DDR device, VRs).
  double stick_overhead_w = 1.1;
  /// Stick power when idle (firmware loaded, no inference running).
  double idle_power_w = 0.35;
  /// Thermal model parameters; set `thermal_enabled = false` to get the
  /// paper's idealised (temperature-free) behaviour.
  ThermalParams thermal;
  bool thermal_enabled = true;
  /// Global LPDDR3 capacity of the MA2450 variant (paper Section II-A:
  /// "a global stacked memory of 4GB LPDDR3"). The runtime reserves some
  /// for firmware and buffers.
  std::int64_t lpddr_bytes = 4ll * 1024 * 1024 * 1024;
  std::int64_t runtime_reserved_bytes = 64ll * 1024 * 1024;
};

/// Thrown by allocate_graph when the graph's memory footprint exceeds the
/// stick's LPDDR3 (mvnc maps it to MVNC_OUT_OF_MEMORY).
class OutOfDeviceMemory : public std::runtime_error {
 public:
  explicit OutOfDeviceMemory(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown by device operations after unplug() (mvnc maps it to
/// MVNC_GONE).
class DeviceUnplugged : public std::runtime_error {
 public:
  explicit DeviceUnplugged(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown while the stick is off the bus during a scripted detach window
/// (mvnc also maps it to MVNC_GONE). Unlike a permanent unplug, the stick
/// re-enumerates at the window's end and replug() recovers it.
class DeviceDetached : public DeviceUnplugged {
 public:
  explicit DeviceDetached(const std::string& what) : DeviceUnplugged(what) {}
};

/// Thrown by load_tensor when the input transfer lands in a scripted
/// kUsbTransferError window (mvnc maps it to MVNC_ERROR). Transient: the
/// same call succeeds once the window has passed. No device state changes.
class TransientUsbError : public std::runtime_error {
 public:
  explicit TransientUsbError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown by get_result when the result would not land within the
/// caller's watchdog budget (mvnc maps it to MVNC_TIMEOUT). The queued
/// inference stays on the FIFO — retrying later can still succeed.
class DeviceTimeout : public std::runtime_error {
 public:
  DeviceTimeout(const std::string& what, sim::SimTime gave_up)
      : std::runtime_error(what), gave_up_at(gave_up) {}
  /// Simulated time at which the host stopped waiting.
  sim::SimTime gave_up_at;
};

/// Completion record for one queued inference.
struct InferenceTicket {
  std::uint64_t seq = 0;        ///< per-device inference sequence number
  sim::SimTime issue = 0.0;     ///< when the host issued the load
  sim::SimTime input_done = 0.0;  ///< input transfer complete (load returns)
  sim::SimTime exec_start = 0.0;
  sim::SimTime exec_end = 0.0;
  sim::SimTime result_ready = 0.0;  ///< output landed on the host
  void* user_param = nullptr;
};

/// One simulated stick. Thread-safe: NCSw drives each stick from its own
/// host thread while sticks share USB channels.
class NcsDevice {
 public:
  /// `channel` must outlive the device.
  NcsDevice(int id, UsbChannel& channel, const NcsConfig& config);

  int id() const noexcept { return id_; }
  const NcsConfig& config() const noexcept { return config_; }
  /// Device name as enumerated by the NCAPI.
  std::string name() const { return "/sim/ncs" + std::to_string(id_); }

  /// Boot the firmware. Returns the simulated time at which the device is
  /// ready. Idempotent (re-open is an error).
  sim::SimTime open(sim::SimTime host_time);
  bool is_open() const;

  /// Simulate yanking the stick out of its port: all subsequent
  /// operations fail (mvnc maps them to MVNC_GONE) and queued inferences
  /// are lost. Irreversible for this device instance.
  void unplug();
  bool unplugged() const;

  /// Register this stick's inference trace lanes ("dev<N> shave", then
  /// "dev<N> layers" at layer detail) in the order its next traced
  /// inference would. Lane ids go first come, so a caller that drives
  /// several sticks from pool threads calls this per stick, in stick
  /// order, before the fan-out. No-op when tracing is off.
  void open_trace_lanes() const;

  /// Install the scripted fault windows this stick consumes (a slice of
  /// the host's FaultPlan). Call before driving inferences; an empty
  /// timeline (the default) keeps every path byte-identical to a
  /// fault-free device.
  void set_fault_timeline(sim::FaultTimeline timeline);

  /// True when a scripted detach window has taken the stick off the bus
  /// (firmware state lost; operations throw DeviceDetached until replug).
  bool detached() const;

  /// Hot-replug a detached stick at `host_time`: once the detach window
  /// has passed, the stick re-enumerates and the firmware boots again.
  /// Returns the simulated ready time, or nullopt while the stick is
  /// still off the bus (or was permanently unplugged / is not detached).
  /// The host must re-allocate its graph afterwards.
  std::optional<sim::SimTime> replug(sim::SimTime host_time);

  /// In-flight inferences destroyed by detach windows so far.
  std::uint64_t results_lost() const;

  /// Upload and allocate a compiled graph. Replaces any previous graph.
  /// Returns the time the allocation finished. Throws when not open.
  /// Every call pays the LPDDR footprint check, the blob transfer and
  /// the parse time on the simulated clock. The chip profile is a pure
  /// function of the graph and this stick's chip config, so the stick
  /// simulates each graph object once and reuses the profile when the
  /// same `graph` pointer is allocated again (a zoo swap back).
  sim::SimTime allocate_graph(
      std::shared_ptr<const graphc::CompiledGraph> graph,
      sim::SimTime host_time);
  bool has_graph() const;
  /// The allocated graph (throws when absent).
  const graphc::CompiledGraph& graph() const;

  /// The chip-level profile of the allocated graph (layer times, energy).
  /// Shared, so it stays valid for the caller after a later allocation
  /// replaces the device's graph. Throws when no graph is allocated.
  std::shared_ptr<const myriad::InferenceProfile> profile() const;

  /// Queue one inference: transfers the input over USB and schedules
  /// execution behind whatever is already queued. Fails (returns nullopt)
  /// when the FIFO is full — callers then retrieve a result first.
  std::optional<InferenceTicket> load_tensor(sim::SimTime host_time,
                                             void* user_param = nullptr);

  /// Pop the oldest queued inference; `host_time` is when the host started
  /// waiting. The returned ticket's result_ready accounts for the output
  /// transfer. Returns nullopt when the FIFO is empty. When the result
  /// would land more than `watchdog_s` after `host_time` (a scripted
  /// kGetTimeout stall, or a genuinely slow inference against a tight
  /// budget), throws DeviceTimeout and leaves the FIFO untouched.
  std::optional<InferenceTicket> get_result(
      sim::SimTime host_time,
      double watchdog_s = std::numeric_limits<double>::infinity());

  /// Number of inferences currently queued.
  int queued() const;

  /// Total inferences completed (results retrieved).
  std::uint64_t completed() const;

  /// Simulated time the device finished its last retrieved result.
  sim::SimTime last_completion() const;

  /// Average stick power while executing (chip avg power + overhead).
  double active_power_w() const;

  /// Energy consumed by completed inferences (chip + stick overhead
  /// during execution windows).
  double energy_j() const;

  /// Current junction temperature (°C) of the thermal model.
  double temperature_c() const;
  /// Current throttle level.
  ThrottleLevel throttle_level() const;
  /// Times the device entered soft / hard throttling.
  int soft_throttle_events() const;
  int hard_throttle_events() const;
  /// Recent temperature samples (MVNC_THERMAL_STATS), most recent last.
  std::vector<float> thermal_history() const;
  /// Update the throttle thresholds (mvncSetDeviceOption); throws
  /// std::invalid_argument on inconsistent limits.
  void set_temp_limits(double lower_c, double higher_c);
  /// Current (lower, higher) throttle thresholds of the live model.
  std::pair<double, double> temp_limits() const;

 private:
  sim::SimTime jittered_exec_time(std::uint64_t seq) const;
  /// Emit the trace spans of a freshly scheduled inference (caller holds
  /// mutex_; no-op when tracing is off).
  void trace_inference(const InferenceTicket& t) const;
  /// Firmware download + boot shared by open() and replug() (caller holds
  /// mutex_). Sets open_/ready_at_ and emits the named trace span.
  sim::SimTime boot_locked(sim::SimTime host_time, const char* span_name);
  /// Consume scripted detach events due at `t`: take the stick off the
  /// bus, drop in-flight work, reset firmware state (caller holds mutex_).
  void latch_detach_locked(sim::SimTime t);
  /// Lazily fetched per-device fault counter (cold path only).
  util::Counter& fault_counter(const char* metric) const;

  const int id_;
  UsbChannel& channel_;
  const NcsConfig config_;

  // Cached registry instruments (valid across registry resets).
  util::Counter& m_inferences_;
  util::Counter& m_fifo_rejects_;
  util::Gauge& m_temp_c_;
  util::Histogram& m_exec_ms_;
  util::Histogram& m_queue_wait_ms_;

  mutable std::mutex mutex_;
  bool open_ = false;
  bool unplugged_ = false;
  sim::FaultTimeline faults_;
  bool detached_ = false;
  sim::SimTime reattach_at_ = 0.0;   ///< end of the latched detach window
  std::size_t detach_cursor_ = 0;    ///< next unconsumed detach event
  std::uint64_t results_lost_ = 0;   ///< in-flight work killed by detaches
  sim::SimTime ready_at_ = 0.0;
  std::shared_ptr<const graphc::CompiledGraph> graph_;
  std::shared_ptr<const myriad::InferenceProfile> profile_;
  /// Chip profiles of every graph allocated on this stick, keyed by
  /// graph object (holding the graph keeps its address from being
  /// reused by another graph).
  struct SimulatedGraph {
    std::shared_ptr<const graphc::CompiledGraph> graph;
    std::shared_ptr<const myriad::InferenceProfile> profile;
  };
  std::vector<SimulatedGraph> simulated_;
  std::deque<InferenceTicket> fifo_;
  sim::SimTime shave_free_at_ = 0.0;  ///< when the SHAVE array frees up
  std::uint64_t next_seq_ = 0;
  std::uint64_t completed_ = 0;
  sim::SimTime last_completion_ = 0.0;
  double energy_j_ = 0.0;
  ThermalModel thermal_;
  sim::SimTime thermal_clock_ = 0.0;  ///< model integrated up to here
};

}  // namespace ncsw::ncs
