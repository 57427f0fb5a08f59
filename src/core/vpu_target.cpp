#include "core/vpu_target.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "devices/calibration.h"
#include "mvnc/mvnc.h"
#include "mvnc/sim_host.h"
#include "myriad/myriad.h"
#include "nn/kernels.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::core {

namespace {

/// Validate the target's arguments, then describe its mvnc host.
mvnc::HostConfig host_config(const ModelBundle* bundle,
                             const VpuTargetConfig& config) {
  if (!bundle) throw std::invalid_argument("VpuTarget: null bundle");
  if (config.devices < 1) throw std::invalid_argument("VpuTarget: devices < 1");
  mvnc::HostConfig host;
  host.devices = config.devices;
  host.topology = config.topology;
  host.ncs = config.ncs;
  host.degraded_device = config.degraded_device;
  host.degraded_factor = config.degraded_factor;
  host.faults = config.faults;
  host.check = config.check;
  return host;
}

}  // namespace

VpuTarget::VpuTarget(std::shared_ptr<const ModelBundle> bundle,
                     const VpuTargetConfig& config)
    : bundle_(std::move(bundle)),
      config_(config),
      sticks_(host_config(bundle_.get(), config_), config_.health,
              "VpuTarget"),
      input_(static_cast<std::size_t>(bundle_->compiled_f16.input_bytes())) {
  for (int d = 0; d < config_.devices; ++d) {
    Stick& s = sticks_[static_cast<std::size_t>(d)];
    if (!s.allocate_graph_at(*bundle_, 0, 0.0)) {
      throw std::runtime_error("VpuTarget: mvncAllocateGraph failed");
    }
  }
}

std::string VpuTarget::name() const {
  return "Intel Movidius Myriad 2 VPU x" + std::to_string(config_.devices) +
         " (NCS, FP16)";
}

double VpuTarget::tdp_w(int batch) const {
  const int active = std::clamp(batch, 1, config_.devices);
  return myriad::TdpConstants::kNcsStickW * active;
}

TimedRun VpuTarget::execute_batch(std::int64_t images, int batch,
                                  double submit_s) {
  const int active = batch;  // the paper couples sticks to batch size
  namespace cal = devices::calibration;
  const double gap = active > 1 ? cal::kVpuThreadGapS : cal::kVpuSingleGapS;

  // Align all active sticks on a common start, staggered by thread
  // spawn (letting sticks free-run desynchronises their transfers on the
  // shared USB hub and costs throughput), floored at the submission
  // instant so a ticket never starts before it was submitted.
  double t0 = submit_s;
  for (int d = 0; d < active; ++d) t0 = std::max(t0, sticks_[d].cursor());

  TimedRun run;
  run.images = images;
  double last_completion = t0;
  for (int d = 0; d < active; ++d) {
    void* graph = sticks_[d].graph();
    mvnc::set_host_time(graph, t0 + d * cal::kVpuThreadSpawnS);
    mvnc::set_inter_op_gap(graph, gap);
  }
  // Deterministic replay of the threaded runner: images are issued across
  // the sticks in assignment order, so all device timelines (and the
  // shared USB hub channels they contend on) advance together. The
  // paper's policy is static round-robin; kLeastLoaded instead hands the
  // next image to whichever stick's host cursor is earliest.
  const std::size_t nactive = static_cast<std::size_t>(active);
  auto& reg = util::metrics();
  auto& tr = util::tracer();
  static util::Counter& m_images = reg.counter("core.sched.images");
  static util::Counter& m_retries =
      reg.counter("core.sched.failover_retries");
  std::vector<std::uint64_t> assigned(nactive, 0);
  // Each stick's ladder (Stick::health) outlives the batch: a stick
  // quarantined in an earlier batch is probed on its schedule here.
  int recoveries = 0;

  std::int64_t completed = 0;
  bool exhausted = false;
  for (std::int64_t i = 0; i < images && !exhausted; ++i) {
    // Each image retries on another stick when its stick drops out: the
    // runner degrades gracefully instead of aborting the batch, and
    // quarantined sticks are probed back in as the fleet's clock reaches
    // their backoff deadlines.
    for (;;) {
      double fleet_now = -std::numeric_limits<double>::infinity();
      for (std::size_t d = 0; d < nactive; ++d) {
        if (sticks_[d].health().schedulable()) {
          fleet_now = std::max(fleet_now, sticks_[d].cursor());
        }
      }
      for (std::size_t d = 0; d < nactive; ++d) {
        const StickHealth& h = sticks_[d].health();
        if (h.state() == HealthState::kQuarantined &&
            h.next_probe_time() <= fleet_now) {
          recoveries += sticks_[d].probe(gap);
        }
      }
      // Pick a stick: the paper's static round-robin, falling back to
      // the earliest-free schedulable stick when the assigned one is out.
      std::size_t pick = static_cast<std::size_t>(i % active);
      if (config_.scheduling == Scheduling::kLeastLoaded ||
          !sticks_[pick].health().schedulable()) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t found = nactive;
        for (std::size_t d = 0; d < nactive; ++d) {
          if (!sticks_[d].health().schedulable()) continue;
          const double t = sticks_[d].cursor();
          if (t < best) {
            best = t;
            found = d;
          }
        }
        pick = found;
      }
      if (pick >= nactive) {
        // Nothing schedulable: wait for the earliest quarantine probe,
        // or give up once every stick is dead.
        std::size_t q = nactive;
        double earliest = std::numeric_limits<double>::infinity();
        for (std::size_t d = 0; d < nactive; ++d) {
          const StickHealth& h = sticks_[d].health();
          if (h.state() == HealthState::kQuarantined &&
              h.next_probe_time() < earliest) {
            earliest = h.next_probe_time();
            q = d;
          }
        }
        if (q < nactive) {
          recoveries += sticks_[q].probe(gap);
          continue;
        }
        if (!config_.allow_partial) {
          throw std::runtime_error("run_timed: all sticks are gone");
        }
        run.images_lost = images - i;
        exhausted = true;
        break;
      }
      Stick& s = sticks_[pick];
      if (s.infer(input_.data(), static_cast<unsigned int>(input_.size()))) {
        const auto ticket = mvnc::last_ticket(s.graph());
        if (!ticket) throw std::runtime_error("run_timed: missing ticket");
        run.per_image_ms.add((ticket->result_ready - ticket->issue) * 1e3);
        last_completion = std::max(last_completion, ticket->result_ready);
        ++assigned[pick];
        ++completed;
        break;
      }
      // The stick left the schedule: replay the image elsewhere.
      if (s.health().needs_replug()) m_retries.add(1);
      ++run.images_replayed;
      reg.counter("core.health.dev" + std::to_string(pick) +
                  ".images_replayed")
          .add(1);
    }
  }
  run.images = completed;
  run.sticks_recovered = recoveries;
  for (std::size_t d = 0; d < nactive; ++d) {
    if (sticks_[d].health().state() == HealthState::kDead) ++run.sticks_dead;
  }
  m_images.add(static_cast<std::uint64_t>(completed));
  for (std::size_t d = 0; d < assigned.size(); ++d) {
    if (assigned[d] > 0) {
      reg.counter("core.sched.assigned.dev" + std::to_string(d))
          .add(assigned[d]);
    }
  }
  // One span per batch on a "scheduler" lane, from the common start to
  // the last result. A smaller batch can start on sticks that freed
  // before the previous batch's last result, so each span takes the first
  // lane free at t0 ("scheduler", then "scheduler 2", ...) and spans on
  // one lane never overlap.
  if (tr.enabled()) {
    std::size_t slot = 0;
    while (slot < sched_lane_end_.size() && sched_lane_end_[slot] > t0) {
      ++slot;
    }
    if (slot == sched_lane_end_.size()) sched_lane_end_.push_back(t0);
    sched_lane_end_[slot] = last_completion;
    const std::string lane =
        slot == 0 ? "scheduler" : "scheduler " + std::to_string(slot + 1);
    tr.complete("core", "run_timed", tr.lane(lane), t0, last_completion,
                {util::TraceArg::num("images", images),
                 util::TraceArg::num("batch", static_cast<std::int64_t>(batch)),
                 util::TraceArg::str("policy",
                                     config_.scheduling ==
                                             Scheduling::kLeastLoaded
                                         ? "least-loaded"
                                         : "round-robin")});
  }
  run.seconds = last_completion - t0;
  return run;
}

std::vector<Prediction> VpuTarget::classify(
    const std::vector<tensor::TensorF>& inputs) {
  if (!bundle_->functional()) {
    throw std::logic_error("VpuTarget::classify: timing-only bundle");
  }
  std::vector<Prediction> results(inputs.size());
  const int active = static_cast<int>(
      std::min(inputs.size(), static_cast<std::size_t>(sticks_.size())));
  // Image i runs on stick i mod active.
  auto worker = [&](int d) {
    Stick& stick = sticks_[static_cast<std::size_t>(d)];
    for (std::size_t i = static_cast<std::size_t>(d); i < inputs.size();
         i += static_cast<std::size_t>(active)) {
      results[i] = stick.classify(inputs[i]);
    }
  };

  if (config_.parallel_host_threads && active > 1) {
    // Trace lanes get their ids first come: open each stick's in stick
    // order, as a serial run would, before the workers race to them.
    if (util::tracer().enabled()) {
      for (int d = 0; d < active; ++d) {
        mvnc::device_of(sticks_[static_cast<std::size_t>(d)].device())
            ->open_trace_lanes();
      }
    }
    // One pool chunk per stick, stick 0 on the caller (the paper's OpenMP).
    nn::kernels::compute_pool().fan_out(
        static_cast<std::size_t>(active),
        [&](std::size_t d) { worker(static_cast<int>(d)); });
  } else {
    for (int d = 0; d < active; ++d) worker(d);
  }
  return results;
}

std::vector<float> VpuTarget::layer_times_ms() const {
  std::vector<float> times(bundle_->compiled_f16.layers.size());
  unsigned int len = static_cast<unsigned int>(times.size() * sizeof(float));
  if (mvnc::mvncGetGraphOption(sticks_.at(0).graph(), mvnc::MVNC_TIME_TAKEN,
                               times.data(), &len) != mvnc::MVNC_OK) {
    throw std::runtime_error("layer_times_ms: option query failed");
  }
  times.resize(len / sizeof(float));
  return times;
}

}  // namespace ncsw::core
