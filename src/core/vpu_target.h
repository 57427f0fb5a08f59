// The multi-VPU target — the paper's main contribution (Section III,
// Fig. 4). One NCAPI graph handle per stick; images are assigned
// round-robin; each stick's stream of load -> execute -> get overlaps
// with the other sticks'. In timed runs the number of active sticks is
// coupled to the batch size, exactly as in the paper's figures.
#pragma once

#include <cstdint>
#include <vector>

#include "core/health.h"
#include "core/target.h"
#include "devices/calibration.h"
#include "mvnc/sim_host.h"

namespace ncsw::core {

/// Image-to-stick assignment policy for the multi-VPU runner.
enum class Scheduling {
  kRoundRobin,   ///< the paper's static policy (Section III)
  kLeastLoaded,  ///< dynamic: next image goes to the earliest-free stick
};

/// Multi-VPU target configuration.
struct VpuTargetConfig {
  int devices = 8;  ///< sticks to open (the paper's testbed has 8)
  mvnc::HostConfig::Topology topology =
      mvnc::HostConfig::Topology::kPaperTestbed;
  Scheduling scheduling = Scheduling::kRoundRobin;
  /// Heterogeneity knob forwarded to the host (see mvnc::HostConfig).
  int degraded_device = -1;
  double degraded_factor = 2.0;
  ncs::NcsConfig ncs;  ///< stick/chip parameters (calibrated defaults)
  /// Host gap between inferences when a single stick is driven from the
  /// main thread (batch 1).
  double single_gap_s = devices::calibration::kVpuSingleGapS;
  /// Host gap per inference in multi-threaded mode (thread management).
  double thread_gap_s = devices::calibration::kVpuThreadGapS;
  /// Stagger between worker-thread start-ups at the beginning of a run.
  double thread_spawn_s = 40e-6;
  /// Use real host threads for functional classification (the OpenMP mode
  /// of the paper's framework). Timing is unaffected.
  bool parallel_host_threads = true;
  /// Scripted fault windows forwarded to the host (empty: no injection,
  /// fault-free behaviour is byte-identical to a build without them).
  sim::FaultPlan faults;
  /// Retry / backoff / quarantine policy of the self-healing runner.
  HealthPolicy health;
  /// When every stick is dead, run_timed normally throws. With
  /// allow_partial the run returns instead, reporting the abandoned
  /// images in TimedRun::images_lost (used by the chaos bench to plot
  /// graceful degradation past the cliff).
  bool allow_partial = false;
  /// NCAPI protocol verifier mode forwarded to the host (see
  /// check/protocol.h). kDefault resolves through
  /// check::set_default_mode() / $NCSW_CHECK, falling back to off.
  check::CheckMode check = check::CheckMode::kDefault;
};

/// Target driving 1..N simulated Neural Compute Sticks through the mvnc
/// API. Reconfigures the global mvnc simulation host at construction.
class VpuTarget : public Target {
 public:
  VpuTarget(std::shared_ptr<const ModelBundle> bundle,
            const VpuTargetConfig& config = {});
  ~VpuTarget() override;

  VpuTarget(const VpuTarget&) = delete;
  VpuTarget& operator=(const VpuTarget&) = delete;

  std::string name() const override;
  std::string short_name() const override { return "VPU (Multi)"; }

  /// The paper couples active sticks to batch size; TDP = sticks * 2.5 W
  /// (chip TDP 0.9 W is reported separately by the power bench).
  double tdp_w(int batch) const override;

  int max_batch() const override { return config_.devices; }

  std::vector<Prediction> classify(
      const std::vector<tensor::TensorF>& inputs) override;

  /// Per-layer execution times (ms) reported by the NCAPI profiling
  /// option for stick 0.
  std::vector<float> layer_times_ms() const;

  /// The mvnc graph handle of stick `d` (for fault-injection tests and
  /// the failover ablation). Throws std::out_of_range on bad indices.
  void* graph_handle(int d) const { return graph_handles_.at(d); }

  const VpuTargetConfig& config() const noexcept { return config_; }

 protected:
  /// One batch across `batch` sticks, gated on a common start
  /// t0 = max(submission instant, stick cursors) staggered by thread
  /// spawn. Completion timestamps are mapped onto the caller's clock
  /// through a serial engine queue (start = max(submit, engine free),
  /// complete = start + span): the mvnc cursors carry the
  /// device-simulation epoch (boot + graph allocation), which must not
  /// leak into serving timelines.
  BatchExec execute_batch(std::int64_t images, int batch,
                          double submit_s) override;

 private:
  void open_all();
  void close_all();

  std::shared_ptr<const ModelBundle> bundle_;
  VpuTargetConfig config_;
  std::vector<void*> device_handles_;
  std::vector<void*> graph_handles_;
  /// Caller-clock instant the engine frees (see execute_batch).
  double next_free_s_ = 0.0;
  /// End of the last span on each "scheduler" trace lane (device clock).
  std::vector<double> sched_lane_end_;
  /// mvnc host generation our handles belong to. A later host_reset (for
  /// example another VpuTarget's open_all) invalidates every handle, so
  /// close_all must not feed them back into the API.
  std::uint64_t host_generation_ = 0;
};

}  // namespace ncsw::core
