#include "core/vpu_target.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "mvnc/mvnc.h"
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
      sticks_(host_config(bundle_.get(), config_), "VpuTarget"),
      input_(static_cast<std::size_t>(bundle_->compiled_f16.input_bytes())) {
  for (int d = 0; d < config_.devices; ++d) {
    Stick& s = sticks_[static_cast<std::size_t>(d)];
    if (!s.allocate_graph_at(*bundle_, 0, 0.0)) {
      throw std::runtime_error("VpuTarget: mvncAllocateGraph failed");
    }
    mvnc::set_watchdog(s.graph(), config_.health.watchdog_s);
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
  const double gap = active > 1 ? config_.thread_gap_s : config_.single_gap_s;

  // Align all active sticks on a common start, staggered by thread
  // spawn (letting sticks free-run desynchronises their transfers on the
  // shared USB hub and costs throughput), floored at the submission
  // instant so a ticket never starts before it was submitted.
  double t0 = submit_s;
  for (int d = 0; d < active; ++d) {
    t0 = std::max(t0, mvnc::host_time(sticks_[d].graph()).value_or(0.0));
  }

  TimedRun run;
  run.images = images;
  double last_completion = t0;
  for (int d = 0; d < active; ++d) {
    void* graph = sticks_[d].graph();
    mvnc::set_host_time(graph, t0 + (active > 1 ? d * config_.thread_spawn_s
                                                : 0.0));
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

  // Per-stick health records: every fault maps to a retry / backoff /
  // quarantine decision through them (see docs/architecture.md). On a
  // fault-free schedule none of the cold-path helpers below run, keeping
  // the call sequence — and thus all timing — identical to a runner
  // without fault handling.
  std::vector<StickHealth> health;
  health.reserve(nactive);
  for (int d = 0; d < active; ++d) health.emplace_back(d, config_.health);
  int recoveries = 0;

  auto dev_counter = [&reg](std::size_t d,
                            const char* metric) -> util::Counter& {
    return reg.counter("core.health.dev" + std::to_string(d) + "." + metric);
  };
  auto cursor = [&](std::size_t d) {
    return mvnc::host_time(sticks_[d].graph()).value_or(0.0);
  };
  auto fault_instant = [&](std::size_t d, const char* name) {
    if (tr.enabled()) {
      tr.instant("core.health", name,
                 tr.lane("dev" + std::to_string(d) + " health"), cursor(d));
    }
  };
  // The stick went MVNC_GONE (detached or unplugged): quarantine it; only
  // a successful replug + graph re-allocation brings it back.
  auto on_gone = [&](std::size_t d) {
    dev_counter(d, "gone").add(1);
    fault_instant(d, "gone");
    health[d].on_gone(cursor(d));
    dev_counter(d, "quarantines").add(1);
    m_retries.add(1);
  };
  // A retryable failure (`why` names the counter): back off and retry on
  // the same stick, or — once retries are exhausted — quarantine it so
  // the image is replayed elsewhere. True = caller should retry here.
  auto transient_retry = [&](std::size_t d, const char* why) -> bool {
    StickHealth& h = health[d];
    dev_counter(d, why).add(1);
    fault_instant(d, why);
    const double now = cursor(d);
    const double delay = h.on_transient_failure(now);
    if (h.state() == HealthState::kQuarantined) {
      dev_counter(d, "quarantines").add(1);
      return false;
    }
    dev_counter(d, "transient_retries").add(1);
    mvnc::set_host_time(sticks_[d].graph(), now + delay);
    return true;
  };
  // Probe a quarantined stick at its scheduled probe time. True = the
  // stick is schedulable again (on probation).
  auto probe = [&](std::size_t d) -> bool {
    StickHealth& h = health[d];
    const double t = h.next_probe_time();
    dev_counter(d, "probes").add(1);
    Stick& s = sticks_[d];
    if (h.needs_replug()) {
      const auto ready = mvnc::replug_device(s.device(), t);
      bool replugged = false;
      if (ready) {
        // Firmware is back but the old graph handle is stale: re-allocate
        // from the blob (it carries the network + FP16 weights, so the
        // functional payload reattaches with it).
        s.release();
        if (s.allocate_graph_at(*bundle_, 0, 0.0)) {
          mvnc::set_host_time(s.graph(), std::max(*ready, t));
          mvnc::set_inter_op_gap(s.graph(), gap);
          mvnc::set_watchdog(s.graph(), config_.health.watchdog_s);
          dev_counter(d, "replug_recoveries").add(1);
          replugged = true;
        }
      }
      if (!replugged) {
        h.on_probe_failure(t);
        if (h.state() == HealthState::kDead) dev_counter(d, "dead").add(1);
        return false;
      }
    } else {
      // Transient quarantine: re-admit at the probe time and retire stale
      // queued results left over from before the quarantine (their images
      // were already replayed elsewhere).
      mvnc::set_host_time(s.graph(), t);
      if (const int stale = s.drain(); stale > 0) {
        dev_counter(d, "stale_results_drained")
            .add(static_cast<std::uint64_t>(stale));
      }
    }
    const double since = h.quarantined_since();
    const int failed_probes = h.probes();
    h.on_probe_success();
    ++recoveries;
    dev_counter(d, "recoveries").add(1);
    if (tr.enabled()) {
      tr.complete("core.health", "quarantine",
                  tr.lane("dev" + std::to_string(d) + " health"), since,
                  std::max(t, since),
                  {util::TraceArg::num(
                      "failed_probes",
                      static_cast<std::int64_t>(failed_probes))});
    }
    return true;
  };
  // Run one image on stick `d`. True = image completed (stats recorded);
  // false = the stick dropped out and the image must be replayed.
  auto attempt_image = [&](std::size_t d) -> bool {
    for (;;) {  // LoadTensor with bounded retry
      // A load into a FIFO already full of stale inferences (from an
      // earlier timeout) would be the verifier's over-issue: such a FIFO
      // takes the BUSY path below without the call, which would have
      // changed no simulated time.
      void* graph = sticks_[d].graph();
      const bool full =
          mvnc::pending_results(graph) >= config_.ncs.fifo_depth;
      const auto st =
          full ? mvnc::MVNC_BUSY
               : mvnc::mvncLoadTensor(graph, input_.data(),
                                      static_cast<unsigned int>(input_.size()),
                                      nullptr);
      if (st == mvnc::MVNC_OK) break;
      if (st == mvnc::MVNC_GONE) {
        on_gone(d);
        return false;
      }
      if (st == mvnc::MVNC_BUSY) {
        // Retire the oldest queued result and retry the load.
        if (sticks_[d].drain(1) > 0) {
          dev_counter(d, "busy_drains").add(1);
          continue;  // slot freed; the drained image was already replayed
        }
        // A drain of a full FIFO that retrieved nothing and left it empty
        // found the stick gone: the load reports MVNC_GONE. Otherwise the
        // result is stalled, or the BUSY came from a scripted storm.
        if (full && mvnc::pending_results(graph) == 0) continue;
        if (!transient_retry(d, "busy")) return false;
        continue;
      }
      if (st == mvnc::MVNC_ERROR) {
        if (!transient_retry(d, "usb_errors")) return false;
        continue;
      }
      throw std::runtime_error("run_timed: mvncLoadTensor failed");
    }
    for (;;) {  // GetResult with bounded retry
      void* out = nullptr;
      unsigned int out_len = 0;
      const auto st =
          mvnc::mvncGetResult(sticks_[d].graph(), &out, &out_len, nullptr);
      if (st == mvnc::MVNC_OK) {
        const auto ticket = mvnc::last_ticket(sticks_[d].graph());
        if (!ticket) throw std::runtime_error("run_timed: missing ticket");
        run.per_image_ms.add((ticket->result_ready - ticket->issue) * 1e3);
        last_completion = std::max(last_completion, ticket->result_ready);
        ++assigned[d];
        health[d].on_success();
        return true;
      }
      if (st == mvnc::MVNC_GONE) {
        on_gone(d);  // the in-flight inference is gone with the stick
        return false;
      }
      if (st == mvnc::MVNC_TIMEOUT) {
        if (!transient_retry(d, "timeouts")) return false;
        continue;
      }
      throw std::runtime_error("run_timed: mvncGetResult failed");
    }
  };

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
        if (health[d].schedulable()) {
          fleet_now = std::max(fleet_now, cursor(d));
        }
      }
      for (std::size_t d = 0; d < nactive; ++d) {
        if (health[d].state() == HealthState::kQuarantined &&
            health[d].next_probe_time() <= fleet_now) {
          probe(d);
        }
      }
      // Pick a stick: the paper's static round-robin, falling back to
      // the earliest-free schedulable stick when the assigned one is out.
      std::size_t pick = static_cast<std::size_t>(i % active);
      if (config_.scheduling == Scheduling::kLeastLoaded ||
          !health[pick].schedulable()) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t found = nactive;
        for (std::size_t d = 0; d < nactive; ++d) {
          if (!health[d].schedulable()) continue;
          const double t = cursor(d);
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
          if (health[d].state() != HealthState::kQuarantined) continue;
          if (health[d].next_probe_time() < earliest) {
            earliest = health[d].next_probe_time();
            q = d;
          }
        }
        if (q < nactive) {
          probe(q);
          continue;
        }
        if (!config_.allow_partial) {
          throw std::runtime_error("run_timed: all sticks are gone");
        }
        run.images_lost = images - i;
        exhausted = true;
        break;
      }
      if (attempt_image(pick)) {
        ++completed;
        break;
      }
      ++run.images_replayed;
      dev_counter(pick, "images_replayed").add(1);
    }
  }
  run.images = completed;
  run.sticks_recovered = recoveries;
  for (const auto& h : health) {
    if (h.state() == HealthState::kDead) ++run.sticks_dead;
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
      results[i] = stick.classify(inputs[i], config_.health);
    }
  };

  if (config_.parallel_host_threads && active > 1) {
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
