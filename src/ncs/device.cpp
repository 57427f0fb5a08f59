#include "ncs/device.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"
#include "util/trace.h"

namespace ncsw::ncs {

NcsDevice::NcsDevice(int id, UsbChannel& channel, const NcsConfig& config)
    : id_(id),
      channel_(channel),
      config_(config),
      m_inferences_(util::metrics().counter(
          "ncs.dev" + std::to_string(id) + ".inferences")),
      m_fifo_rejects_(util::metrics().counter(
          "ncs.dev" + std::to_string(id) + ".fifo_rejects")),
      m_temp_c_(util::metrics().gauge(
          "ncs.dev" + std::to_string(id) + ".temp_c")),
      m_exec_ms_(util::metrics().histogram("ncs.exec_ms")),
      m_queue_wait_ms_(util::metrics().histogram("ncs.queue_wait_ms")),
      thermal_(config.thermal) {
  if (config_.fifo_depth < 1) {
    throw std::invalid_argument("NcsDevice: fifo_depth < 1");
  }
}

sim::SimTime NcsDevice::open(sim::SimTime host_time) {
  std::lock_guard lock(mutex_);
  if (open_) throw std::logic_error("NcsDevice::open: already open");
  return boot_locked(host_time, "boot");
}

sim::SimTime NcsDevice::boot_locked(sim::SimTime host_time,
                                    const char* span_name) {
  // Firmware image download (~1.8 MB over USB) then boot.
  const auto window =
      channel_.transfer(host_time, 1'800'000);
  ready_at_ = window.end + config_.firmware_boot_s;
  open_ = true;
  auto& t = util::tracer();
  if (t.enabled()) {
    t.complete("ncs", span_name,
               t.lane("dev" + std::to_string(id_) + " host"),
               window.start, ready_at_);
  }
  return ready_at_;
}

bool NcsDevice::is_open() const {
  std::lock_guard lock(mutex_);
  return open_;
}

void NcsDevice::unplug() {
  std::lock_guard lock(mutex_);
  unplugged_ = true;
  fifo_.clear();  // in-flight inferences are lost with the link
}

bool NcsDevice::unplugged() const {
  std::lock_guard lock(mutex_);
  return unplugged_;
}

void NcsDevice::set_fault_timeline(sim::FaultTimeline timeline) {
  std::lock_guard lock(mutex_);
  faults_ = std::move(timeline);
  detach_cursor_ = 0;
}

bool NcsDevice::detached() const {
  std::lock_guard lock(mutex_);
  return detached_;
}

std::uint64_t NcsDevice::results_lost() const {
  std::lock_guard lock(mutex_);
  return results_lost_;
}

util::Counter& NcsDevice::fault_counter(const char* metric) const {
  // Cold path (only reached when a scripted fault fires), so the registry
  // lookup cost is irrelevant — and lazy creation keeps fault-free runs'
  // metric namespace identical to a build without fault injection.
  return util::metrics().counter("ncs.dev" + std::to_string(id_) + "." +
                                 metric);
}

void NcsDevice::latch_detach_locked(sim::SimTime t) {
  if (faults_.empty()) return;
  bool latched = false;
  while (const auto* ev = faults_.next_detach(t, &detach_cursor_)) {
    latched = true;
    detached_ = true;
    reattach_at_ = std::max(reattach_at_, ev->end);
  }
  if (!latched) return;
  // The stick dropped off the bus: in-flight inferences and all firmware
  // state (boot + allocated graph) are gone until a hot replug.
  results_lost_ += fifo_.size();
  fault_counter("detaches").add(1);
  if (!fifo_.empty()) {
    fault_counter("results_lost").add(fifo_.size());
  }
  fifo_.clear();
  open_ = false;
  graph_.reset();
  auto& tr = util::tracer();
  if (tr.enabled()) {
    tr.instant("ncs.fault", "detach",
               tr.lane("dev" + std::to_string(id_) + " host"), t);
  }
}

std::optional<sim::SimTime> NcsDevice::replug(sim::SimTime host_time) {
  std::lock_guard lock(mutex_);
  if (unplugged_) return std::nullopt;  // permanently gone
  latch_detach_locked(host_time);
  if (!detached_) return std::nullopt;  // nothing to recover
  if (host_time < reattach_at_) return std::nullopt;  // still off the bus
  detached_ = false;
  fault_counter("replugs").add(1);
  // Fresh enumeration: the firmware boots again; the host must then
  // re-allocate its graph.
  return boot_locked(host_time, "replug");
}

sim::SimTime NcsDevice::allocate_graph(
    std::shared_ptr<const graphc::CompiledGraph> graph,
    sim::SimTime host_time) {
  if (!graph) throw std::invalid_argument("NcsDevice::allocate_graph: null");
  std::lock_guard lock(mutex_);
  if (!open_) throw std::logic_error("NcsDevice::allocate_graph: not open");
  if (!fifo_.empty()) {
    throw std::logic_error("NcsDevice::allocate_graph: inferences in flight");
  }
  // LPDDR3 capacity check: weights + double-buffered activations + IO.
  const std::int64_t weight_bytes = graph->total_weight_bytes();
  const std::int64_t footprint =
      weight_bytes + 2 * graph->total_activation_bytes() +
      graph->input_bytes() + graph->output_bytes();
  const std::int64_t available =
      config_.lpddr_bytes - config_.runtime_reserved_bytes;
  if (footprint > available) {
    throw OutOfDeviceMemory(
        "NcsDevice::allocate_graph: graph needs " +
        std::to_string(footprint) + " bytes, stick has " +
        std::to_string(available));
  }
  // Upload the graph file + weights, then let the RISC runtime parse and
  // place buffers.
  const std::int64_t blob_bytes =
      weight_bytes + 64 * static_cast<std::int64_t>(graph->layers.size());
  const auto window =
      channel_.transfer(std::max(host_time, ready_at_), blob_bytes);
  const double parse_s = config_.graph_alloc_per_mb_s *
                         (static_cast<double>(blob_bytes) / (1024.0 * 1024.0));
  ready_at_ = window.end + parse_s;

  // Simulate the chip only for a graph this stick has not run before.
  const auto seen = std::find_if(
      simulated_.begin(), simulated_.end(),
      [&](const SimulatedGraph& s) { return s.graph == graph; });
  if (seen != simulated_.end()) {
    profile_ = seen->profile;
  } else {
    profile_ = std::make_shared<const myriad::InferenceProfile>(
        myriad::Myriad2(config_.chip).execute(*graph));
    simulated_.push_back({graph, profile_});
  }
  graph_ = std::move(graph);
  shave_free_at_ = ready_at_;
  auto& t = util::tracer();
  if (t.enabled()) {
    t.complete("ncs", "allocate_graph",
               t.lane("dev" + std::to_string(id_) + " host"), window.start,
               ready_at_,
               {util::TraceArg::str("net", graph_->net_name),
                util::TraceArg::num("blob_bytes", blob_bytes)});
  }
  return ready_at_;
}

bool NcsDevice::has_graph() const {
  std::lock_guard lock(mutex_);
  return graph_ != nullptr;
}

const graphc::CompiledGraph& NcsDevice::graph() const {
  std::lock_guard lock(mutex_);
  if (!graph_) throw std::logic_error("NcsDevice::graph: none allocated");
  return *graph_;
}

std::shared_ptr<const myriad::InferenceProfile> NcsDevice::profile() const {
  std::lock_guard lock(mutex_);
  if (!graph_) throw std::logic_error("NcsDevice::profile: none allocated");
  return profile_;
}

sim::SimTime NcsDevice::jittered_exec_time(std::uint64_t seq) const {
  // Deterministic per (device, inference): stands in for run-to-run noise.
  const std::uint64_t h = util::hash_mix(
      0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(id_), seq);
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  const double factor = 1.0 + config_.exec_jitter_frac * (2.0 * u - 1.0);
  return profile_->total_s * factor;
}

std::optional<InferenceTicket> NcsDevice::load_tensor(sim::SimTime host_time,
                                                      void* user_param) {
  std::lock_guard lock(mutex_);
  if (unplugged_) throw DeviceUnplugged("NcsDevice::load_tensor");
  latch_detach_locked(host_time);
  if (detached_) throw DeviceDetached("NcsDevice::load_tensor: detached");
  if (!open_ || !graph_) {
    throw std::logic_error("NcsDevice::load_tensor: device not ready");
  }
  if (!faults_.empty() &&
      faults_.active(sim::FaultKind::kBusyStorm, host_time)) {
    // Scripted FIFO storm: the firmware rejects the load exactly as if
    // the inference FIFO were full.
    m_fifo_rejects_.add(1);
    fault_counter("busy_storm_rejects").add(1);
    return std::nullopt;  // MVNC_BUSY
  }
  if (static_cast<int>(fifo_.size()) >= config_.fifo_depth) {
    m_fifo_rejects_.add(1);
    return std::nullopt;  // MVNC_BUSY
  }
  sim::SimTime issue = std::max(host_time, ready_at_);
  sim::SimTime xfer_earliest = issue + config_.command_overhead_s;
  if (!faults_.empty()) {
    if (faults_.active(sim::FaultKind::kUsbTransferError, xfer_earliest)) {
      fault_counter("usb_errors").add(1);
      auto& tr = util::tracer();
      if (tr.enabled()) {
        tr.instant("ncs.fault", "usb-error",
                   tr.lane("dev" + std::to_string(id_) + " host"),
                   xfer_earliest);
      }
      throw TransientUsbError("NcsDevice::load_tensor: transfer error");
    }
    // A stalled bus delays the transfer to the end of the stall window.
    const sim::SimTime clear =
        faults_.clear_of(sim::FaultKind::kUsbStall, xfer_earliest);
    if (clear != xfer_earliest) {
      fault_counter("usb_stalls").add(1);
      xfer_earliest = clear;
    }
  }
  InferenceTicket t;
  t.seq = next_seq_++;
  t.user_param = user_param;
  t.issue = issue;

  // Input tensor DMA over the (possibly shared) USB channel, preceded by
  // the RISC command handshake.
  const auto window = channel_.transfer(xfer_earliest, graph_->input_bytes());
  t.input_done = window.end;

  // Execution starts once the SHAVE array frees up and the input landed.
  t.exec_start = std::max(t.input_done, shave_free_at_);
  double exec_time = jittered_exec_time(t.seq);
  const sim::FaultEvent* forced_throttle =
      faults_.empty()
          ? nullptr
          : faults_.active(sim::FaultKind::kThermalThrottle, t.exec_start);
  if (config_.thermal_enabled) {
    // Integrate the idle gap since the last modelled point, then apply
    // the throttle level the firmware sees *at dispatch time*.
    thermal_.advance(t.exec_start - thermal_clock_, config_.idle_power_w);
    exec_time *= thermal_.slowdown();
  }
  if (forced_throttle) {
    // Scripted hard-throttle window (an overheated enclosure): the
    // firmware stretches execution regardless of the modelled junction
    // temperature.
    exec_time *= forced_throttle->magnitude > 1.0
                     ? forced_throttle->magnitude
                     : config_.thermal.hard_throttle_factor;
    fault_counter("forced_throttles").add(1);
  }
  if (config_.thermal_enabled) {
    thermal_.advance(exec_time,
                     profile_->avg_power_w + config_.stick_overhead_w);
    thermal_clock_ = t.exec_start + exec_time;
  }
  t.exec_end = t.exec_start + exec_time;
  shave_free_at_ = t.exec_end;

  if (config_.thermal_enabled) {
    m_temp_c_.set(thermal_.temperature_c());
  }
  trace_inference(t);

  fifo_.push_back(t);
  return t;
}

void NcsDevice::open_trace_lanes() const {
  auto& tr = util::tracer();
  if (!tr.enabled()) return;
  const std::string dev = "dev" + std::to_string(id_);
  tr.lane(dev + " shave");
  std::lock_guard lock(mutex_);
  if (tr.layers_enabled() && profile_ && profile_->total_s > 0.0) {
    tr.lane(dev + " layers");
  }
}

void NcsDevice::trace_inference(const InferenceTicket& t) const {
  auto& tr = util::tracer();
  if (!tr.enabled()) return;
  const std::string dev = "dev" + std::to_string(id_);
  tr.complete("ncs", "exec", tr.lane(dev + " shave"), t.exec_start,
              t.exec_end,
              {util::TraceArg::num("seq", static_cast<std::int64_t>(t.seq)),
               util::TraceArg::num("queue_wait_ms",
                                   (t.exec_start - t.input_done) * 1e3)});
  if (config_.thermal_enabled) {
    tr.counter(dev + " temp_c", t.exec_start, thermal_.temperature_c());
  }
  if (tr.layers_enabled() && profile_->total_s > 0.0) {
    // Project the chip profile's layer offsets onto this inference's
    // execution window (thermal throttling / jitter stretch it
    // uniformly, which is exactly how the firmware slows down).
    const double scale = (t.exec_end - t.exec_start) / profile_->total_s;
    const int lane = tr.lane(dev + " layers");
    for (const auto& lp : profile_->layers) {
      if (lp.time_s <= 0.0) continue;
      const double start = t.exec_start + lp.start_s * scale;
      tr.complete(
          "myriad.layer", lp.name, lane, start, start + lp.time_s * scale,
          {util::TraceArg::str("kind", nn::layer_kind_name(lp.kind)),
           util::TraceArg::num("compute_ms", lp.compute_s * 1e3),
           util::TraceArg::num("dma_ms", lp.dma_s * 1e3),
           util::TraceArg::num("tiles", static_cast<std::int64_t>(lp.tiles)),
           util::TraceArg::num("shave_util", lp.shave_utilization)});
    }
  }
}

std::optional<InferenceTicket> NcsDevice::get_result(sim::SimTime host_time,
                                                     double watchdog_s) {
  std::lock_guard lock(mutex_);
  if (unplugged_) throw DeviceUnplugged("NcsDevice::get_result");
  latch_detach_locked(host_time);
  if (detached_) throw DeviceDetached("NcsDevice::get_result: detached");
  if (!open_ || !graph_) {
    throw std::logic_error("NcsDevice::get_result: device not ready");
  }
  if (fifo_.empty()) return std::nullopt;
  InferenceTicket t = fifo_.front();

  // Output transfer can only start when the execution finished and the
  // host asked for it.
  sim::SimTime start =
      std::max(host_time, t.exec_end) + config_.command_overhead_s;
  if (!faults_.empty()) {
    // A result-delivery stall (firmware wedged, FIFO interrupt lost):
    // the output cannot leave the stick before the window closes.
    const sim::SimTime clear =
        faults_.clear_of(sim::FaultKind::kGetTimeout, start);
    if (clear != start) {
      fault_counter("result_stalls").add(1);
      start = clear;
    }
  }
  // Watchdog: give up before committing anything when the result cannot
  // land within the caller's budget. The inference stays queued, so a
  // later retry (after the stall clears) still succeeds.
  if (start + channel_.duration(graph_->output_bytes()) - host_time >
      watchdog_s) {
    throw DeviceTimeout("NcsDevice::get_result: watchdog expired",
                        host_time + watchdog_s);
  }
  fifo_.pop_front();
  const auto window = channel_.transfer(start, graph_->output_bytes());
  t.result_ready = window.end;

  ++completed_;
  last_completion_ = std::max(last_completion_, t.result_ready);
  energy_j_ += profile_->energy_j +
               (t.exec_end - t.exec_start) * config_.stick_overhead_w;
  m_inferences_.add(1);
  m_exec_ms_.record((t.exec_end - t.exec_start) * 1e3);
  m_queue_wait_ms_.record((t.exec_start - t.input_done) * 1e3);
  return t;
}

int NcsDevice::queued() const {
  std::lock_guard lock(mutex_);
  return static_cast<int>(fifo_.size());
}

std::uint64_t NcsDevice::completed() const {
  std::lock_guard lock(mutex_);
  return completed_;
}

sim::SimTime NcsDevice::last_completion() const {
  std::lock_guard lock(mutex_);
  return last_completion_;
}

double NcsDevice::active_power_w() const {
  std::lock_guard lock(mutex_);
  return (profile_ ? profile_->avg_power_w : 0.0) +
         config_.stick_overhead_w;
}

double NcsDevice::energy_j() const {
  std::lock_guard lock(mutex_);
  return energy_j_;
}

double NcsDevice::temperature_c() const {
  std::lock_guard lock(mutex_);
  return thermal_.temperature_c();
}

ThrottleLevel NcsDevice::throttle_level() const {
  std::lock_guard lock(mutex_);
  return thermal_.level();
}

int NcsDevice::soft_throttle_events() const {
  std::lock_guard lock(mutex_);
  return thermal_.soft_events();
}

int NcsDevice::hard_throttle_events() const {
  std::lock_guard lock(mutex_);
  return thermal_.hard_events();
}

std::vector<float> NcsDevice::thermal_history() const {
  std::lock_guard lock(mutex_);
  return thermal_.history();
}

void NcsDevice::set_temp_limits(double lower_c, double higher_c) {
  std::lock_guard lock(mutex_);
  thermal_.set_limits(lower_c, higher_c);
}

std::pair<double, double> NcsDevice::temp_limits() const {
  std::lock_guard lock(mutex_);
  return {thermal_.params().temp_lim_lower_c,
          thermal_.params().temp_lim_higher_c};
}

}  // namespace ncsw::ncs
