#include "core/vpu_target.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "mvnc/mvnc.h"
#include "myriad/myriad.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::core {

using mvnc::mvncStatus;

VpuTarget::VpuTarget(std::shared_ptr<const ModelBundle> bundle,
                     const VpuTargetConfig& config)
    : bundle_(std::move(bundle)), config_(config) {
  if (!bundle_) throw std::invalid_argument("VpuTarget: null bundle");
  if (config_.devices < 1) throw std::invalid_argument("VpuTarget: devices < 1");
  open_all();
}

VpuTarget::~VpuTarget() { close_all(); }

void VpuTarget::open_all() {
  mvnc::HostConfig host;
  host.devices = config_.devices;
  host.topology = config_.topology;
  host.ncs = config_.ncs;
  host.degraded_device = config_.degraded_device;
  host.degraded_factor = config_.degraded_factor;
  host.faults = config_.faults;
  host.check = config_.check;
  mvnc::host_reset(host);
  host_generation_ = mvnc::host_generation();

  for (int d = 0; d < config_.devices; ++d) {
    char name[64];
    if (mvnc::mvncGetDeviceName(d, name, sizeof(name)) != mvnc::MVNC_OK) {
      throw std::runtime_error("VpuTarget: device enumeration failed");
    }
    void* dev = nullptr;
    if (mvnc::mvncOpenDevice(name, &dev) != mvnc::MVNC_OK) {
      throw std::runtime_error("VpuTarget: mvncOpenDevice failed");
    }
    device_handles_.push_back(dev);

    void* graph = nullptr;
    const auto& blob = bundle_->graph_blob;
    if (mvnc::mvncAllocateGraph(dev, &graph, blob.data(),
                                static_cast<unsigned int>(blob.size())) !=
        mvnc::MVNC_OK) {
      throw std::runtime_error("VpuTarget: mvncAllocateGraph failed");
    }
    graph_handles_.push_back(graph);
    mvnc::set_watchdog(graph, config_.health.watchdog_s);
    // Functional bundles ship their network + FP16 weights inside the
    // graph file (graphc::serialize_package), so the stick computes real
    // outputs with no further setup.
  }
}

void VpuTarget::close_all() {
  if (mvnc::host_generation() == host_generation_) {
    for (std::size_t d = 0; d < graph_handles_.size(); ++d) {
      void* g = graph_handles_[d];
      if (!g) continue;
      // Drain before deallocate on every exit path: a stick quarantined
      // after watchdog timeouts can still hold queued results here (its
      // images were replayed elsewhere), and deallocating over them is
      // the verifier's undrained-at-dealloc class. Lift the watchdog so
      // the drain itself cannot time out, and consult pending_results —
      // probing GetResult with nothing outstanding is a violation too.
      mvnc::set_watchdog(g, std::numeric_limits<double>::infinity());
      int drained = 0;
      for (int left = mvnc::pending_results(g); left > 0; --left) {
        void* out = nullptr;
        unsigned int out_len = 0;
        if (mvnc::mvncGetResult(g, &out, &out_len, nullptr) !=
            mvnc::MVNC_OK) {
          break;  // detached/unplugged stick: its queue died with it
        }
        ++drained;
      }
      if (drained > 0) {
        // Cold path only: fault-free teardowns must not materialise
        // health instruments (byte-identity guard in test_faults).
        util::metrics()
            .counter("core.health.dev" + std::to_string(d) +
                     ".shutdown_drains")
            .add(static_cast<std::uint64_t>(drained));
      }
      mvnc::mvncDeallocateGraph(g);
    }
    for (void* d : device_handles_) mvnc::mvncCloseDevice(d);
  }
  // Otherwise a later host_reset (another target's open_all) already
  // invalidated every handle — feeding the stale pointers back into the
  // API could hit an address reused by the new host's handles.
  graph_handles_.clear();
  device_handles_.clear();
}

std::string VpuTarget::name() const {
  return "Intel Movidius Myriad 2 VPU x" + std::to_string(config_.devices) +
         " (NCS, FP16)";
}

double VpuTarget::tdp_w(int batch) const {
  const int active = std::clamp(batch, 1, config_.devices);
  return myriad::TdpConstants::kNcsStickW * active;
}

Target::BatchExec VpuTarget::execute_batch(std::int64_t images, int batch,
                                           double submit_s) {
  const int active = batch;  // the paper couples sticks to batch size
  const double gap = active > 1 ? config_.thread_gap_s : config_.single_gap_s;

  // Align all active sticks on a common start, staggered by thread
  // spawn (letting sticks free-run desynchronises their transfers on the
  // shared USB hub and costs throughput), floored at the submission
  // instant so a ticket never starts before it was submitted.
  double t0 = submit_s;
  for (int d = 0; d < active; ++d) {
    t0 = std::max(t0, mvnc::host_time(graph_handles_[d]).value_or(0.0));
  }
  std::vector<std::uint8_t> input(
      static_cast<std::size_t>(bundle_->compiled_f16.input_bytes()), 0);

  TimedRun run;
  run.images = images;
  double last_completion = t0;
  for (int d = 0; d < active; ++d) {
    void* graph = graph_handles_[d];
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
    return mvnc::host_time(graph_handles_[d]).value_or(0.0);
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
    mvnc::set_host_time(graph_handles_[d], now + delay);
    return true;
  };
  // Probe a quarantined stick at its scheduled probe time. True = the
  // stick is schedulable again (on probation).
  auto probe = [&](std::size_t d) -> bool {
    StickHealth& h = health[d];
    const double t = h.next_probe_time();
    dev_counter(d, "probes").add(1);
    if (h.needs_replug()) {
      const auto ready = mvnc::replug_device(device_handles_[d], t);
      bool replugged = false;
      if (ready) {
        // Firmware is back but the old graph handle is stale: re-allocate
        // from the blob (it carries the network + FP16 weights, so the
        // functional payload reattaches with it).
        mvnc::mvncDeallocateGraph(graph_handles_[d]);
        graph_handles_[d] = nullptr;
        void* graph = nullptr;
        const auto& blob = bundle_->graph_blob;
        if (mvnc::mvncAllocateGraph(device_handles_[d], &graph, blob.data(),
                                    static_cast<unsigned int>(blob.size())) ==
            mvnc::MVNC_OK) {
          graph_handles_[d] = graph;
          mvnc::set_host_time(graph, std::max(*ready, t));
          mvnc::set_inter_op_gap(graph, gap);
          mvnc::set_watchdog(graph, config_.health.watchdog_s);
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
      // were already replayed elsewhere). Only retrieve what is actually
      // outstanding — a GetResult with nothing in flight is a protocol
      // violation.
      mvnc::set_host_time(graph_handles_[d], t);
      for (int left = mvnc::pending_results(graph_handles_[d]); left > 0;
           --left) {
        void* out = nullptr;
        unsigned int out_len = 0;
        if (mvnc::mvncGetResult(graph_handles_[d], &out, &out_len,
                                nullptr) != mvnc::MVNC_OK) {
          break;
        }
        dev_counter(d, "stale_results_drained").add(1);
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
      const auto st = mvnc::mvncLoadTensor(
          graph_handles_[d], input.data(),
          static_cast<unsigned int>(input.size()), nullptr);
      if (st == mvnc::MVNC_OK) break;
      if (st == mvnc::MVNC_GONE) {
        on_gone(d);
        return false;
      }
      if (st == mvnc::MVNC_BUSY) {
        // FIFO full (a scripted busy storm, or stale inferences from an
        // earlier timeout): retire the oldest queued result and retry
        // the load instead of aborting the batch. When nothing is
        // outstanding the BUSY came from a scripted storm, not the FIFO
        // — probing GetResult then would be a protocol violation.
        if (mvnc::pending_results(graph_handles_[d]) > 0) {
          void* out = nullptr;
          unsigned int out_len = 0;
          if (mvnc::mvncGetResult(graph_handles_[d], &out, &out_len,
                                  nullptr) == mvnc::MVNC_OK) {
            dev_counter(d, "busy_drains").add(1);
            continue;  // slot freed; the drained image was already replayed
          }
        }
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
          mvnc::mvncGetResult(graph_handles_[d], &out, &out_len, nullptr);
      if (st == mvnc::MVNC_OK) {
        const auto ticket = mvnc::last_ticket(graph_handles_[d]);
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
  // Map the execution span onto the caller's submission timeline. The
  // mvnc cursors live on the device-simulation epoch (which includes
  // device boot and graph allocation), so completion timestamps are
  // derived from the span, not read off the cursors: the engine is a
  // serial queue that picks the batch up when it frees.
  BatchExec exec;
  exec.start_s = std::max(submit_s, next_free_s_);
  exec.complete_s = exec.start_s + run.seconds;
  next_free_s_ = exec.complete_s;
  exec.run = std::move(run);
  return exec;
}

std::vector<Prediction> VpuTarget::classify(
    const std::vector<tensor::TensorF>& inputs) {
  if (!bundle_->functional()) {
    throw std::logic_error("VpuTarget::classify: timing-only bundle");
  }
  std::vector<Prediction> results(inputs.size());
  const int active =
      static_cast<int>(std::min<std::size_t>(inputs.size(),
                                             graph_handles_.size()));
  if (active == 0) return results;

  auto worker = [&](int d) {
    void* graph = graph_handles_[static_cast<std::size_t>(d)];
    const StickHealth backoffs(d, config_.health);
    // Bounded transient retry (BUSY / ERROR / TIMEOUT): back off on the
    // stick's own timeline and reissue; anything else aborts the batch
    // (the caller surfaces the first worker error, e.g. MVNC_GONE).
    auto transient = [&](mvncStatus st, int& attempt) -> bool {
      if (st != mvnc::MVNC_BUSY && st != mvnc::MVNC_ERROR &&
          st != mvnc::MVNC_TIMEOUT) {
        return false;
      }
      if (attempt >= config_.health.max_retries) return false;
      const double now = mvnc::host_time(graph).value_or(0.0);
      mvnc::set_host_time(graph, now + backoffs.backoff(attempt));
      ++attempt;
      return true;
    };
    for (std::size_t i = static_cast<std::size_t>(d); i < inputs.size();
         i += static_cast<std::size_t>(active)) {
      // Host-side FP32 -> FP16 conversion (the OpenEXR-half step).
      const auto half_input =
          tensor::tensor_cast<ncsw::fp16::half>(inputs[i]);
      mvncStatus st;
      int attempt = 0;
      for (;;) {
        st = mvnc::mvncLoadTensor(
            graph, half_input.data(),
            static_cast<unsigned int>(half_input.numel() *
                                      sizeof(ncsw::fp16::half)),
            nullptr);
        if (st == mvnc::MVNC_OK || !transient(st, attempt)) break;
      }
      if (st != mvnc::MVNC_OK) {
        throw std::runtime_error("classify: mvncLoadTensor failed");
      }
      void* out = nullptr;
      unsigned int out_len = 0;
      attempt = 0;
      for (;;) {
        st = mvnc::mvncGetResult(graph, &out, &out_len, nullptr);
        if (st == mvnc::MVNC_OK || !transient(st, attempt)) break;
      }
      if (st != mvnc::MVNC_OK) {
        throw std::runtime_error("classify: mvncGetResult failed");
      }
      const auto* halves = static_cast<const ncsw::fp16::half*>(out);
      const std::size_t n = out_len / sizeof(ncsw::fp16::half);
      std::vector<float> probs(n);
      ncsw::fp16::half_to_float_span(halves, probs.data(), n);
      results[i] = make_prediction(std::move(probs));
    }
  };

  if (config_.parallel_host_threads && active > 1) {
    // Worker exceptions must not escape their threads (std::terminate);
    // capture the first and rethrow on the caller.
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(active));
    std::mutex error_mutex;
    std::exception_ptr first_error;
    for (int d = 0; d < active; ++d) {
      threads.emplace_back([&, d] {
        try {
          worker(d);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    if (first_error) std::rethrow_exception(first_error);
  } else {
    for (int d = 0; d < active; ++d) worker(d);
  }
  return results;
}

std::vector<float> VpuTarget::layer_times_ms() const {
  std::vector<float> times(bundle_->compiled_f16.layers.size());
  unsigned int len = static_cast<unsigned int>(times.size() * sizeof(float));
  if (mvnc::mvncGetGraphOption(graph_handles_.at(0), mvnc::MVNC_TIME_TAKEN,
                               times.data(), &len) != mvnc::MVNC_OK) {
    throw std::runtime_error("layer_times_ms: option query failed");
  }
  times.resize(len / sizeof(float));
  return times;
}

}  // namespace ncsw::core
