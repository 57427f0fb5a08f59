// One Neural Compute Stick through the paper's Listing 1 lifecycle (open
// -> allocate -> LoadTensor/GetResult -> deallocate -> close) and its
// health ladder: the one stick driver under VpuTarget (N sticks of one
// bundle) and StickFleet (K sticks swapping a zoo). Drain-before-
// deallocate and every inference's retry / quarantine decision are
// written once, here (docs/architecture.md, "Stick lifecycle" and
// "Health state machine").
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/health.h"
#include "core/target.h"
#include "mvnc/sim_host.h"

namespace ncsw::util {
class Counter;
}

namespace ncsw::core {

/// One opened stick: its device handle, its resident graph, which bundle
/// that graph runs, and its StickHealth ladder, held for the stick's
/// lifetime. Owned by a StickSet; not copyable.
class Stick {
 public:
  Stick() = default;
  Stick(const Stick&) = delete;
  Stick& operator=(const Stick&) = delete;

  int id() const noexcept { return id_; }
  void* device() const noexcept { return device_; }
  /// Graph handle of the resident bundle, nullptr when none.
  void* graph() const noexcept { return graph_; }
  /// The owner's index of the resident bundle, -1 when none.
  int resident() const noexcept { return resident_; }
  const ModelBundle* bundle() const noexcept { return bundle_; }
  const StickHealth& health() const { return *health_; }
  /// The resident graph's host-time cursor (0 without a live graph).
  double cursor() const { return mvnc::host_time(graph_).value_or(0.0); }

  /// Allocate `bundle`'s blob as the resident graph (owner index `model`),
  /// chaining the transfer on device epoch `epoch_s` (mvncAllocateGraph
  /// is epoch 0; a swap passes the outgoing graph's clock), and arm the
  /// policy's watchdog. The stick must hold no graph. False, and no
  /// graph, when the device refuses.
  bool allocate_graph_at(const ModelBundle& bundle, int model,
                         double epoch_s);

  /// One inference of `bytes` bytes at `input` through LoadTensor /
  /// GetResult on the ladder: a full FIFO drains its oldest stale result
  /// instead of over-issuing, BUSY / ERROR / TIMEOUT back off on the
  /// stick's clock and retry, MVNC_GONE quarantines at once. True when
  /// the result came back (GetResult's output in `*out` / `*out_len` when
  /// given, its ticket in mvnc::last_ticket(graph())); false once the
  /// stick has left the schedule, the image unfinished.
  bool infer(const void* input, unsigned int bytes, void** out = nullptr,
             unsigned int* out_len = nullptr);

  /// Probe the quarantined stick at its scheduled probe time: a replug
  /// re-allocates the resident bundle (same model index) with inter-op
  /// gap `gap_s`; a transient quarantine drains the stale results. True
  /// when the stick is back on probation; false when the probe failed
  /// (check health() for kDead).
  bool probe(double gap_s);

  /// Retrieve up to `most` queued results (stale ones: their images were
  /// replayed or their tickets retired); returns how many. Stops at the
  /// first status that is not MVNC_OK.
  int drain(int most = std::numeric_limits<int>::max());

  /// Empty the FIFO, then deallocate, clearing graph and resident bundle
  /// together; returns the results drained (0 without a graph). A stall
  /// is ridden out without touching the watchdog (watchdog-misuse with
  /// inferences in flight): the clock steps forward, doubling, per
  /// MVNC_TIMEOUT.
  int release();

  /// Classify one FP32 tensor: cast to FP16, infer(), widen, pick the
  /// label. Throws std::logic_error without a functional resident
  /// bundle, std::runtime_error when the stick leaves the schedule.
  Prediction classify(const tensor::TensorF& input);

 private:
  friend class StickSet;
  /// Open device `id` of the current host and start its ladder.
  void open(int id, const mvnc::HostConfig& host, const HealthPolicy& policy,
            const char* owner);
  /// drain() and release(): `stall_steps` MVNC_TIMEOUTs are stepped over.
  int retrieve(int most, int stall_steps);
  /// A BUSY / ERROR / TIMEOUT (`why` names the counter): back off on the
  /// stick's clock, or quarantine it once retries are exhausted. True =
  /// retry here.
  bool retry(const char* why);
  /// MVNC_GONE: quarantine until a replug; always false.
  bool gone();
  /// core.health.dev<d>.<metric>, and an instant on the "dev<d> health"
  /// trace lane: both created on the first fault only.
  util::Counter& counter(const char* metric) const;
  void mark(const char* what) const;

  int id_ = -1;
  void* device_ = nullptr;
  void* graph_ = nullptr;
  int resident_ = -1;
  const ModelBundle* bundle_ = nullptr;
  int fifo_depth_ = 0;
  std::optional<StickHealth> health_;
};

/// The opener: resets the global mvnc simulation host (any other
/// holder's handles die), opens every device with a ladder on `policy`
/// and records the host generation. Teardown releases and closes every
/// stick only while that generation still holds.
class StickSet {
 public:
  /// Throws std::runtime_error ("<owner>: ...") when a device cannot be
  /// enumerated or opened.
  StickSet(const mvnc::HostConfig& host, const HealthPolicy& policy,
           const char* owner);
  ~StickSet() { close(); }

  int size() const noexcept { return static_cast<int>(sticks_.size()); }
  Stick& operator[](std::size_t d) { return sticks_[d]; }
  /// Bounds-checked (std::out_of_range).
  Stick& at(int d) { return sticks_.at(static_cast<std::size_t>(d)); }
  const Stick& at(int d) const {
    return sticks_.at(static_cast<std::size_t>(d));
  }

  /// Release every stick, then close every device; results a stick still
  /// held (e.g. one quarantined after watchdog timeouts) count into
  /// core.health.dev<d>.shutdown_drains. After a later host_reset
  /// (another owner's open) nothing is fed back into the API, whose new
  /// host may reuse the handles' addresses. Idempotent.
  void close();

 private:
  std::vector<Stick> sticks_;
  std::uint64_t generation_ = 0;
};

}  // namespace ncsw::core
