#include "core/stick.h"

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "mvnc/mvnc.h"
#include "util/metrics.h"

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
  return true;
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

Prediction Stick::classify(const tensor::TensorF& input,
                           const HealthPolicy& policy) {
  if (!graph_) throw std::logic_error("Stick::classify: no resident graph");
  if (!bundle_->functional()) {
    throw std::logic_error("Stick::classify: timing-only bundle");
  }
  // Bounded transient retry: back off on the stick's own timeline and
  // reissue; anything else (e.g. MVNC_GONE) fails the call.
  auto retry = [&](mvncStatus st, int& attempt) {
    const bool transient = st == mvnc::MVNC_BUSY || st == mvnc::MVNC_ERROR ||
                           st == mvnc::MVNC_TIMEOUT;
    if (!transient || attempt >= policy.max_retries) return false;
    const double delay = StickHealth(id_, policy).backoff(attempt++);
    mvnc::set_host_time(graph_, mvnc::host_time(graph_).value_or(0.0) + delay);
    return true;
  };
  // Host-side FP32 -> FP16 conversion (the OpenEXR-half step).
  const auto half_input = tensor::tensor_cast<ncsw::fp16::half>(input);
  const auto len = static_cast<unsigned int>(half_input.numel() *
                                             sizeof(ncsw::fp16::half));
  mvncStatus st;
  int attempt = 0;
  do {
    st = mvnc::mvncLoadTensor(graph_, half_input.data(), len, nullptr);
  } while (st != mvnc::MVNC_OK && retry(st, attempt));
  if (st != mvnc::MVNC_OK) {
    throw std::runtime_error("classify: mvncLoadTensor failed");
  }
  void* out = nullptr;
  unsigned int out_len = 0;
  attempt = 0;
  do {
    st = mvnc::mvncGetResult(graph_, &out, &out_len, nullptr);
  } while (st != mvnc::MVNC_OK && retry(st, attempt));
  if (st != mvnc::MVNC_OK) {
    throw std::runtime_error("classify: mvncGetResult failed");
  }
  std::vector<float> probs(out_len / sizeof(ncsw::fp16::half));
  ncsw::fp16::half_to_float_span(static_cast<const ncsw::fp16::half*>(out),
                                 probs.data(), probs.size());
  return make_prediction(std::move(probs));
}

StickSet::StickSet(const mvnc::HostConfig& host, const char* owner)
    : sticks_(static_cast<std::size_t>(host.devices)) {
  mvnc::host_reset(host);
  generation_ = mvnc::host_generation();
  for (std::size_t d = 0; d < sticks_.size(); ++d) {
    Stick& s = sticks_[d];
    s.id_ = static_cast<int>(d);
    char name[64];
    if (mvnc::mvncGetDeviceName(s.id_, name, sizeof(name)) != mvnc::MVNC_OK) {
      throw std::runtime_error(std::string(owner) +
                               ": device enumeration failed");
    }
    if (mvnc::mvncOpenDevice(name, &s.device_) != mvnc::MVNC_OK) {
      throw std::runtime_error(std::string(owner) + ": mvncOpenDevice failed");
    }
  }
}

void StickSet::close() {
  if (mvnc::host_generation() != generation_) return;
  generation_ = 0;  // closed: no host generation is 0 once a host exists
  for (Stick& s : sticks_) {
    // Cold path only: fault-free teardowns must not materialise health
    // instruments (byte-identity guard in test_faults).
    if (const int drained = s.release(); drained > 0) {
      util::metrics()
          .counter("core.health.dev" + std::to_string(s.id_) +
                   ".shutdown_drains")
          .add(static_cast<std::uint64_t>(drained));
    }
  }
  for (Stick& s : sticks_) mvnc::mvncCloseDevice(s.device_);
}

}  // namespace ncsw::core
