#include "core/stick.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "mvnc/mvnc.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::core {

using mvnc::mvncStatus;

namespace {

/// First clock step of release()'s stall ride-out, and how many doublings
/// it tries: 1 ms · 2^63 outlasts any finite fault window.
constexpr double kStallStepS = 1e-3;
constexpr int kStallSteps = 64;

}  // namespace

bool Stick::allocate_graph_at(const ModelBundle& bundle, int model,
                              double epoch_s) {
  if (graph_) throw std::logic_error("Stick: graph already resident");
  const auto& blob = bundle.graph_blob;
  void* graph = nullptr;
  if (mvnc::allocate_graph_at(device_, &graph, blob.data(),
                              static_cast<unsigned int>(blob.size()),
                              epoch_s) != mvnc::MVNC_OK) {
    return false;
  }
  // Functional bundles ship their network + FP16 weights inside the graph
  // file (graphc::serialize_package), so the stick computes real outputs
  // with no further setup.
  graph_ = graph;
  resident_ = model;
  bundle_ = &bundle;
  mvnc::set_watchdog(graph_, health_->policy().watchdog_s);
  return true;
}

bool Stick::infer(const void* input, unsigned int bytes, void** out,
                  unsigned int* out_len) {
  for (;;) {  // LoadTensor with bounded retry
    // A load into a FIFO already full of stale inferences (from an
    // earlier timeout) would be the verifier's over-issue: such a FIFO
    // takes the BUSY path below without the call, which would have
    // changed no simulated time.
    const bool full = mvnc::pending_results(graph_) >= fifo_depth_;
    const mvncStatus st =
        full ? mvnc::MVNC_BUSY
             : mvnc::mvncLoadTensor(graph_, input, bytes, nullptr);
    if (st == mvnc::MVNC_OK) break;
    if (st == mvnc::MVNC_GONE) return gone();
    if (st == mvnc::MVNC_BUSY) {
      // Retire the oldest queued result and retry the load.
      if (drain(1) > 0) {
        counter("busy_drains").add(1);
        continue;  // slot freed; the drained image was already replayed
      }
      // A drain of a full FIFO that retrieved nothing and left it empty
      // found the stick gone: the load reports MVNC_GONE. Otherwise the
      // result is stalled, or the BUSY came from a scripted storm.
      if (full && mvnc::pending_results(graph_) == 0) continue;
      if (!retry("busy")) return false;
      continue;
    }
    if (st == mvnc::MVNC_ERROR) {
      if (!retry("usb_errors")) return false;
      continue;
    }
    throw std::runtime_error("Stick: mvncLoadTensor failed");
  }
  for (;;) {  // GetResult with bounded retry
    void* result = nullptr;
    unsigned int result_len = 0;
    const mvncStatus st =
        mvnc::mvncGetResult(graph_, &result, &result_len, nullptr);
    if (st == mvnc::MVNC_OK) {
      health_->on_success();
      if (out) *out = result;
      if (out_len) *out_len = result_len;
      return true;
    }
    // The in-flight inference is gone with the stick.
    if (st == mvnc::MVNC_GONE) return gone();
    if (st == mvnc::MVNC_TIMEOUT) {
      if (!retry("timeouts")) return false;
      continue;
    }
    throw std::runtime_error("Stick: mvncGetResult failed");
  }
}

bool Stick::retry(const char* why) {
  counter(why).add(1);
  mark(why);
  const double now = cursor();
  const double delay = health_->on_transient_failure(now);
  if (health_->state() == HealthState::kQuarantined) {
    counter("quarantines").add(1);
    return false;
  }
  counter("transient_retries").add(1);
  mvnc::set_host_time(graph_, now + delay);
  return true;
}

bool Stick::gone() {
  counter("gone").add(1);
  mark("gone");
  health_->on_gone(cursor());
  counter("quarantines").add(1);
  return false;
}

bool Stick::probe(double gap_s) {
  const double t = health_->next_probe_time();
  counter("probes").add(1);
  if (health_->needs_replug()) {
    // Once the firmware is back the old graph handle is stale: re-allocate
    // the resident bundle from its blob (it carries the network + FP16
    // weights, so the functional payload reattaches with it).
    const ModelBundle* bundle = bundle_;
    const int model = resident_;
    const auto ready = mvnc::replug_device(device_, t);
    if (ready) release();
    if (!ready || !allocate_graph_at(*bundle, model, 0.0)) {
      health_->on_probe_failure(t);
      if (health_->state() == HealthState::kDead) counter("dead").add(1);
      return false;
    }
    mvnc::set_host_time(graph_, std::max(*ready, t));
    mvnc::set_inter_op_gap(graph_, gap_s);
    counter("replug_recoveries").add(1);
  } else {
    // Transient quarantine: re-admit at the probe time and retire stale
    // queued results left over from before the quarantine (their images
    // were already replayed elsewhere).
    mvnc::set_host_time(graph_, t);
    if (const int stale = drain(); stale > 0) {
      counter("stale_results_drained").add(static_cast<std::uint64_t>(stale));
    }
  }
  const double since = health_->quarantined_since();
  const int failed_probes = health_->probes();
  health_->on_probe_success();
  counter("recoveries").add(1);
  auto& tr = util::tracer();
  if (tr.enabled()) {
    tr.complete(
        "core.health", "quarantine",
        tr.lane("dev" + std::to_string(id_) + " health"), since,
        std::max(t, since),
        {util::TraceArg::num("failed_probes",
                             static_cast<std::int64_t>(failed_probes))});
  }
  return true;
}

util::Counter& Stick::counter(const char* metric) const {
  return util::metrics().counter("core.health.dev" + std::to_string(id_) +
                                 "." + metric);
}

void Stick::mark(const char* what) const {
  auto& tr = util::tracer();
  if (tr.enabled()) {
    tr.instant("core.health", what,
               tr.lane("dev" + std::to_string(id_) + " health"), cursor());
  }
}

int Stick::drain(int most) { return retrieve(most, 0); }

int Stick::release() {
  if (!graph_) return 0;
  const int drained = retrieve(std::numeric_limits<int>::max(), kStallSteps);
  // Forget the handle first: a strict-mode verifier may throw out of the
  // deallocation, and the handle must not be deallocated twice.
  void* graph = std::exchange(graph_, nullptr);
  resident_ = -1;
  bundle_ = nullptr;
  mvnc::mvncDeallocateGraph(graph);
  return drained;
}

int Stick::retrieve(int most, int stall_steps) {
  // Only retrieve what is actually outstanding: a GetResult with nothing
  // in flight is the verifier's unmatched-get-result class.
  int drained = 0;
  double step = kStallStepS;
  while (drained < most && mvnc::pending_results(graph_) > 0) {
    void* out = nullptr;
    unsigned int out_len = 0;
    const mvncStatus st = mvnc::mvncGetResult(graph_, &out, &out_len, nullptr);
    if (st == mvnc::MVNC_OK) {
      ++drained;
    } else if (st == mvnc::MVNC_TIMEOUT && stall_steps-- > 0) {
      mvnc::set_host_time(graph_,
                          mvnc::host_time(graph_).value_or(0.0) + step);
      step *= 2.0;
    } else {
      break;  // detached (its queue died with it), or a stall drain() skips
    }
  }
  return drained;
}

Prediction Stick::classify(const tensor::TensorF& input) {
  if (!graph_) throw std::logic_error("Stick::classify: no resident graph");
  if (!bundle_->functional()) {
    throw std::logic_error("Stick::classify: timing-only bundle");
  }
  // Host-side FP32 -> FP16 conversion (the OpenEXR-half step).
  const auto half_input = tensor::tensor_cast<ncsw::fp16::half>(input);
  void* out = nullptr;
  unsigned int out_len = 0;
  if (!infer(half_input.data(),
             static_cast<unsigned int>(half_input.numel() *
                                       sizeof(ncsw::fp16::half)),
             &out, &out_len)) {
    throw std::runtime_error("classify: stick " + std::to_string(id_) +
                             " left the schedule");
  }
  std::vector<float> probs(out_len / sizeof(ncsw::fp16::half));
  ncsw::fp16::half_to_float_span(static_cast<const ncsw::fp16::half*>(out),
                                 probs.data(), probs.size());
  return make_prediction(std::move(probs));
}

void Stick::open(int id, const mvnc::HostConfig& host,
                 const HealthPolicy& policy, const char* owner) {
  id_ = id;
  fifo_depth_ = host.ncs.fifo_depth;
  health_.emplace(id, policy);
  char name[64];
  if (mvnc::mvncGetDeviceName(id_, name, sizeof(name)) != mvnc::MVNC_OK) {
    throw std::runtime_error(std::string(owner) +
                             ": device enumeration failed");
  }
  if (mvnc::mvncOpenDevice(name, &device_) != mvnc::MVNC_OK) {
    throw std::runtime_error(std::string(owner) + ": mvncOpenDevice failed");
  }
}

StickSet::StickSet(const mvnc::HostConfig& host, const HealthPolicy& policy,
                   const char* owner)
    : sticks_(static_cast<std::size_t>(host.devices)) {
  mvnc::host_reset(host);
  generation_ = mvnc::host_generation();
  for (std::size_t d = 0; d < sticks_.size(); ++d) {
    sticks_[d].open(static_cast<int>(d), host, policy, owner);
  }
}
void StickSet::close() {
  if (mvnc::host_generation() != generation_) return;
  generation_ = 0;  // closed: no host generation is 0 once a host exists
  for (Stick& s : sticks_) {
    // Cold path only: fault-free teardowns must not materialise health
    // instruments (byte-identity guard in test_faults).
    if (const int drained = s.release(); drained > 0) {
      s.counter("shutdown_drains").add(static_cast<std::uint64_t>(drained));
    }
  }
  for (Stick& s : sticks_) mvnc::mvncCloseDevice(s.device_);
}

}  // namespace ncsw::core
