#include "core/stick_fleet.h"

#include <algorithm>
#include <stdexcept>

#include "check/serve_check.h"
#include "devices/calibration.h"
#include "mvnc/mvnc.h"
#include "myriad/myriad.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::core {

// ---------------------------------------------------------------- stick

std::string StickTarget::name() const {
  return "Intel Movidius Myriad 2 VPU stick " + std::to_string(stick_->id()) +
         " (zoo fleet)";
}

std::string StickTarget::short_name() const {
  return "stick" + std::to_string(stick_->id());
}

double StickTarget::tdp_w(int /*batch*/) const {
  return myriad::TdpConstants::kNcsStickW;
}

TimedRun StickTarget::execute_batch(std::int64_t images, int /*batch == 1*/,
                                   double /*submit_s*/) {
  void* graph = stick_->graph();
  if (!graph) throw std::logic_error("StickTarget: no resident graph");
  const std::uint8_t* input = fleet_->input_.data();
  const auto input_len =
      static_cast<unsigned int>(stick_->bundle()->compiled_f16.input_bytes());
  mvnc::set_inter_op_gap(graph, devices::calibration::kVpuSingleGapS);

  // Device-epoch span: the cursor carries boot + allocation history, so
  // only the delta is meaningful (Target's serial queue maps it onto the
  // caller's clock).
  const double t0 = mvnc::host_time(graph).value_or(0.0);
  TimedRun run;
  run.images = images;
  double last = t0;
  for (std::int64_t i = 0; i < images; ++i) {
    if (!stick_->infer(input, input_len)) {
      throw std::runtime_error("StickTarget: stick left the schedule");
    }
    const auto ticket = mvnc::last_ticket(graph);
    if (!ticket) throw std::runtime_error("StickTarget: missing ticket");
    run.per_image_ms.add((ticket->result_ready - ticket->issue) * 1e3);
    last = std::max(last, ticket->result_ready);
  }
  run.seconds = last - t0;
  return run;
}

std::vector<Prediction> StickTarget::classify(
    const std::vector<tensor::TensorF>& inputs) {
  std::vector<Prediction> results;
  results.reserve(inputs.size());
  for (const auto& input : inputs) results.push_back(stick_->classify(input));
  return results;
}

// ---------------------------------------------------------------- fleet

namespace {

/// Validate the fleet's arguments, then describe its mvnc host.
mvnc::HostConfig host_config(const std::vector<ZooModel>& models,
                             const StickFleetConfig& config) {
  if (models.empty()) {
    throw std::invalid_argument("StickFleet: empty model zoo");
  }
  for (const auto& m : models) {
    if (!m.bundle) throw std::invalid_argument("StickFleet: null bundle");
  }
  if (config.devices < 1) {
    throw std::invalid_argument("StickFleet: devices < 1");
  }
  mvnc::HostConfig host;
  host.devices = config.devices;
  host.topology = config.topology;
  host.ncs = config.ncs;
  host.check = config.check;
  return host;
}

}  // namespace

StickFleet::StickFleet(std::vector<ZooModel> models, StickFleetConfig config)
    : models_(std::move(models)),
      config_(config),
      hw_(host_config(models_, config_), HealthPolicy{}, "StickFleet") {
  std::int64_t max_input_bytes = 0;
  for (const auto& m : models_) {
    max_input_bytes =
        std::max(max_input_bytes, m.bundle->compiled_f16.input_bytes());
  }
  input_.assign(static_cast<std::size_t>(max_input_bytes), 0);
  for (int d = 0; d < config_.devices; ++d) {
    sticks_.emplace_back(new StickTarget(this, &hw_.at(d)));
  }

  calibrate();

  // Initial residency: model d % M on stick d (the static baseline's
  // pinning; policies diverge from here through swap_to).
  for (int d = 0; d < config_.devices; ++d) {
    allocate(hw_.at(d), d % this->models(), 0.0);
    ++installs_;
  }
}

void StickFleet::calibrate() {
  // Measure each model's deallocate + allocate cost on stick 0's device
  // clock: allocations chain on the device's ready cursor, so the delta
  // between two back-to-back allocations of one blob is the price a swap
  // pays (the first also absorbs the boot wait).
  Stick& s = hw_.at(0);
  swap_cost_s_.assign(models_.size(), 0.0);
  for (int m = 0; m < models(); ++m) {
    double t[2];
    for (double& ti : t) {
      allocate(s, m, 0.0);
      ti = mvnc::host_time(s.graph()).value_or(0.0);
      s.release();
    }
    const auto mi = static_cast<std::size_t>(m);
    swap_cost_s_[mi] = t[1] - t[0];
    util::metrics()
        .gauge("core.zoo.swap_cost_s." + models_[mi].name)
        .set(swap_cost_s_[mi]);
  }
}

void StickFleet::allocate(Stick& s, int m, double epoch_s) {
  const ZooModel& model = models_.at(static_cast<std::size_t>(m));
  if (!s.allocate_graph_at(*model.bundle, m, epoch_s)) {
    throw std::runtime_error("StickFleet: mvncAllocateGraph failed for " +
                             model.name);
  }
}

double StickFleet::swap_to(int d, int m, double now_s) {
  StickTarget& st = *sticks_.at(d);
  if (m < 0 || m >= models()) {
    throw std::out_of_range("StickFleet::swap_to: bad model index");
  }
  Stick& s = *st.stick_;
  const int old = s.resident();
  if (old == m) return std::max(now_s, st.engine_free_s());

  auto& sv = check::serve_verifier();
  if (sv.enabled()) {
    sv.on_swap_begin(st.short_name(),
                     old >= 0 ? models_[old].name : std::string(),
                     models_[m].name, st.inflight(), now_s);
  }
  // Queued results at a swap are stale (their tickets were retired or
  // cancelled). Carry the device epoch, read after draining them, across
  // the swap: a fresh graph would otherwise chain on the allocation
  // cursor, which lags the old graph's exec-advanced clock, and the swap
  // would time-travel behind retired work (trace-lint seq inversions).
  s.drain();
  const double epoch = mvnc::host_time(s.graph()).value_or(0.0);
  s.release();
  ++evicts_;
  allocate(s, m, epoch);
  ++installs_;
  ++swaps_;

  // The swap occupies the stick's serial caller-clock queue for the
  // calibrated cost (the device epoch must not leak into serving time).
  const double cost = swap_cost_s_[static_cast<std::size_t>(m)];
  const double start = st.occupy(now_s, cost);
  const double done = st.engine_free_s();

  static util::Counter& m_swaps = util::metrics().counter("core.zoo.swaps");
  m_swaps.add(1);
  auto& tr = util::tracer();
  if (tr.enabled()) {
    tr.complete("zoo", "swap",
                tr.lane("zoo " + st.short_name()), start, done,
                {util::TraceArg::str("from", old >= 0 ? models_[old].name
                                                      : std::string("-")),
                 util::TraceArg::str("to", models_[m].name)});
  }
  return done;
}

std::int64_t StickFleet::resident_count() const {
  std::int64_t n = 0;
  for (int d = 0; d < config_.devices; ++d) n += hw_.at(d).graph() != nullptr;
  return n;
}

}  // namespace ncsw::core
