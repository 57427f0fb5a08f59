// A fleet of sticks serving a *zoo* of models — the residency substrate
// of the multi-tenant serving layer (serve::ZooServer).
//
// VpuTarget drives N sticks as one engine running one graph. The zoo
// problem is the transpose: M compiled model graphs contend for K
// sticks' LPDDR, and only a resident graph can serve its tenant's
// requests. StickFleet owns the global mvnc simulation host once (one
// host_reset; the fleet is the single handle owner, so it coexists with
// nothing else driving mvnc) and exposes each stick as its own async
// core::Target, plus the swap primitive the residency policy needs:
//
//   swap_to(stick, model, now):
//     verify no tickets outstanding (swap-while-inflight otherwise)
//     -> drain queued device results  -> mvncDeallocateGraph(old)
//     -> mvncAllocateGraph(new blob)  -> stick busy until now + cost
//
// which is exactly the drain-then-deallocate lifecycle the protocol
// verifier's undrained-at-dealloc / replug-without-realloc classes
// enforce, so every swap runs under the NCAPI checker.
//
// Swap-in costs are *measured*, not assumed: at open the fleet runs a
// calibration pass on stick 0 — deallocate + re-allocate each model's
// blob back-to-back and read the device-clock delta — so eviction
// scoring (serve::ResidencyManager) prices alexnet's ~MiBs of FP16
// weights differently from squeezenet's. Deterministic: allocation
// chains on the device's ready cursor with no jitter.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/target.h"
#include "devices/calibration.h"
#include "mvnc/sim_host.h"

namespace ncsw::core {

class StickFleet;

/// One named tenant model of the zoo.
struct ZooModel {
  std::string name;
  std::shared_ptr<const ModelBundle> bundle;
};

/// Fleet configuration (fault-free: the zoo layer swaps graphs, the
/// self-healing runner in VpuTarget owns fault injection).
struct StickFleetConfig {
  int devices = 2;
  mvnc::HostConfig::Topology topology =
      mvnc::HostConfig::Topology::kPaperTestbed;
  ncs::NcsConfig ncs;  ///< stick/chip parameters (calibrated defaults)
  /// Host gap between inferences on one stick (single-threaded drive).
  double single_gap_s = devices::calibration::kVpuSingleGapS;
  /// NCAPI protocol verifier mode forwarded to the host.
  check::CheckMode check = check::CheckMode::kDefault;
};

/// One stick of a StickFleet as an async Target: a serial engine running
/// whatever graph is currently resident. Construction, residency and
/// lifetime belong to the fleet; batch size is always 1 (one stick).
class StickTarget : public Target {
 public:
  std::string name() const override;
  std::string short_name() const override;  ///< "stick<d>"
  /// One stick: the NCS stick TDP, batch-independent.
  double tdp_w(int batch) const override;
  int max_batch() const override { return 1; }

  std::vector<Prediction> classify(
      const std::vector<tensor::TensorF>& inputs) override;

  /// Resident model index (into the fleet's zoo), -1 when none.
  int resident() const noexcept { return resident_; }

 protected:
  BatchExec execute_batch(std::int64_t images, int batch,
                          double submit_s) override;

 private:
  friend class StickFleet;
  StickTarget() = default;

  StickFleet* fleet_ = nullptr;
  int id_ = -1;
  void* device_ = nullptr;
  void* graph_ = nullptr;
  int resident_ = -1;
  /// Caller-clock instant the engine frees (serial queue; swaps and
  /// batches both advance it).
  double next_free_s_ = 0.0;
};

/// The fleet: owns the mvnc host, the K sticks, and the M model blobs.
/// Initial residency is model d % M on stick d. Reconfigures the global
/// simulation host at construction (any other holder's handles die).
class StickFleet {
 public:
  StickFleet(std::vector<ZooModel> models, StickFleetConfig config = {});
  ~StickFleet();
  StickFleet(const StickFleet&) = delete;
  StickFleet& operator=(const StickFleet&) = delete;

  int devices() const noexcept { return config_.devices; }
  int models() const noexcept { return static_cast<int>(models_.size()); }
  const std::string& model_name(int m) const { return models_.at(m).name; }
  const ZooModel& model(int m) const { return models_.at(m); }

  StickTarget& stick(int d) { return *sticks_.at(d); }
  const StickTarget& stick(int d) const { return *sticks_.at(d); }
  int resident_model(int d) const { return sticks_.at(d)->resident_; }

  /// Calibrated deallocate + allocate cost of bringing model `m` onto a
  /// stick (simulated seconds, device-clock measured at open).
  double swap_in_cost_s(int m) const { return swap_cost_s_.at(m); }

  /// Swap stick `d` to model `m` at caller-clock `now_s`: flags
  /// swap-while-inflight when tickets are outstanding, drains queued
  /// device results, deallocates the old graph and allocates the new
  /// blob. Returns when the stick frees (start of next dispatch): the
  /// swap occupies the stick's serial queue for the calibrated cost.
  /// No-op returning the stick's free time when `m` is already resident.
  double swap_to(int d, int m, double now_s);

  /// Residency-conservation counters (graphs installed / evicted over
  /// the fleet's lifetime, including the K initial installs).
  std::int64_t installs() const noexcept { return installs_; }
  std::int64_t evicts() const noexcept { return evicts_; }
  std::int64_t swaps() const noexcept { return swaps_; }
  /// Graphs currently resident (always K once open).
  std::int64_t resident_count() const;

  const StickFleetConfig& config() const noexcept { return config_; }

 private:
  void open_all();
  void close_all();
  void calibrate();
  /// Allocate model `m`'s blob on stick `d`'s device, chaining the blob
  /// transfer on the stick's device epoch `epoch_s` (0 at open, the
  /// outgoing graph's clock on a swap); returns the graph handle.
  /// Throws on failure.
  void* allocate_on(int d, int m, double epoch_s);

  std::vector<ZooModel> models_;
  StickFleetConfig config_;
  /// unique_ptr: StickTarget has no public constructor and Target is
  /// non-movable (it holds ticket state).
  std::vector<std::unique_ptr<StickTarget>> sticks_;
  std::vector<double> swap_cost_s_;  ///< per model, calibrated at open
  std::int64_t installs_ = 0;
  std::int64_t evicts_ = 0;
  std::int64_t swaps_ = 0;
  std::uint64_t host_generation_ = 0;
};

}  // namespace ncsw::core
