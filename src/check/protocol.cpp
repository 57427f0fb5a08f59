#include "check/protocol.h"

#include <cstdlib>

#include "util/log.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::check {

namespace {

// Process-wide default for HostConfig::check == kDefault. kDefault here
// means "unset, fall through to $NCSW_CHECK".
std::atomic<int> g_default_mode{static_cast<int>(CheckMode::kDefault)};

// $NCSW_CHECK as parsed on its first read (kOff when unset); kDefault
// until then and again after each set_default_mode(). Hooks resolve
// kDefault on every call, so the environment is read once, not per hook.
std::atomic<int> g_env_mode{static_cast<int>(CheckMode::kDefault)};

}  // namespace

const char* check_mode_name(CheckMode mode) {
  switch (mode) {
    case CheckMode::kDefault:
      return "default";
    case CheckMode::kOff:
      return "off";
    case CheckMode::kLog:
      return "log";
    case CheckMode::kStrict:
      return "strict";
  }
  return "?";
}

CheckMode parse_check_mode(const std::string& text) {
  if (text == "log") return CheckMode::kLog;
  if (text == "strict") return CheckMode::kStrict;
  return CheckMode::kOff;
}

void set_default_mode(CheckMode mode) {
  g_default_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
  g_env_mode.store(static_cast<int>(CheckMode::kDefault),
                   std::memory_order_relaxed);
}

CheckMode resolve_mode(CheckMode requested) {
  if (requested != CheckMode::kDefault) return requested;
  const auto def =
      static_cast<CheckMode>(g_default_mode.load(std::memory_order_relaxed));
  if (def != CheckMode::kDefault) return def;
  auto env = static_cast<CheckMode>(g_env_mode.load(std::memory_order_relaxed));
  if (env == CheckMode::kDefault) {
    const char* text = std::getenv("NCSW_CHECK");
    env = text ? parse_check_mode(text) : CheckMode::kOff;
    g_env_mode.store(static_cast<int>(env), std::memory_order_relaxed);
  }
  return env;
}

const char* violation_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kOverIssue:
      return "over-issue";
    case ViolationKind::kUnmatchedGetResult:
      return "unmatched-get-result";
    case ViolationKind::kUseAfterDealloc:
      return "use-after-dealloc";
    case ViolationKind::kUseAfterClose:
      return "use-after-close";
    case ViolationKind::kDoubleClose:
      return "double-close";
    case ViolationKind::kDoubleOpen:
      return "double-open";
    case ViolationKind::kUndrainedAtDealloc:
      return "undrained-at-dealloc";
    case ViolationKind::kReplugWithoutRealloc:
      return "replug-without-realloc";
    case ViolationKind::kWatchdogMisuse:
      return "watchdog-misuse";
  }
  return "?";
}

std::string Violation::to_string() const {
  std::string out = violation_name(kind);
  if (device >= 0) {
    out += " on dev" + std::to_string(device);
  }
  out += " at t=" + std::to_string(sim_time) + "s: " + detail;
  return out;
}

void ProtocolVerifier::configure(CheckMode mode) {
  const CheckMode resolved = resolve_mode(mode);
  std::unique_lock lock(mutex_);
  devices_.clear();
  graphs_.clear();
  recorded_.clear();
  for (auto& c : counts_) c = 0;
  total_ = 0;
  mode_.store(static_cast<int>(resolved), std::memory_order_relaxed);
}

void ProtocolVerifier::report(std::unique_lock<std::mutex>& lock,
                              ViolationKind kind, int device, double t,
                              std::string detail) {
  Violation v;
  v.kind = kind;
  v.device = device;
  v.sim_time = t;
  v.detail = std::move(detail);

  ++counts_[static_cast<int>(kind)];
  ++total_;
  if (recorded_.size() < kMaxRecorded) recorded_.push_back(v);
  const bool strict = mode() == CheckMode::kStrict;
  lock.unlock();

  util::metrics()
      .counter(std::string("check.violation.") + violation_name(kind))
      .add(1);
  util::metrics().counter("check.violations").add(1);
  auto& tr = util::tracer();
  if (tr.enabled()) {
    const std::string lane = v.device >= 0
                                 ? "dev" + std::to_string(v.device) + " check"
                                 : std::string("check");
    tr.instant("check", std::string("violation:") + violation_name(kind),
               tr.lane(lane), t);
  }
  NCSW_LOG_WARN << "ncapi protocol violation: " << v.to_string();
  if (strict) throw ProtocolViolation(std::move(v));
}

bool ProtocolVerifier::flag_dead_graph(std::unique_lock<std::mutex>& lock,
                                       const void* graph, const GraphRec& rec,
                                       double t, const char* call) {
  (void)graph;
  if (rec.deallocated) {
    report(lock, ViolationKind::kUseAfterDealloc, rec.device_id, t,
           std::string(call) + " on a deallocated graph handle");
    return true;
  }
  if (rec.device_closed) {
    report(lock, ViolationKind::kUseAfterClose, rec.device_id, t,
           std::string(call) + " on a graph whose device was closed");
    return true;
  }
  const auto dev = devices_.find(rec.device);
  if (dev != devices_.end() && dev->second.replug_epoch != rec.replug_epoch) {
    report(lock, ViolationKind::kReplugWithoutRealloc, rec.device_id, t,
           std::string(call) +
               " on a graph allocated before the device was replugged; "
               "re-allocate the graph after replug_device()");
    return true;
  }
  return false;
}

void ProtocolVerifier::on_open(const void* device, int id, mvnc::mvncStatus st,
                               double t) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  if (st == mvnc::MVNC_OK) {
    auto& rec = devices_[device];
    rec.id = id;
    rec.open = true;
    return;
  }
  if (st == mvnc::MVNC_BUSY) {
    const auto it = devices_.find(device);
    if (it != devices_.end() && it->second.open) {
      report(lock, ViolationKind::kDoubleOpen, it->second.id, t,
             "OpenDevice while a handle to the device is already open");
    }
  }
}

void ProtocolVerifier::on_close(const void* device, mvnc::mvncStatus st,
                                double t) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  const auto it = devices_.find(device);
  if (it == devices_.end()) return;  // never tracked (reset or garbage)
  if (st == mvnc::MVNC_OK) {
    it->second.open = false;
    // CloseDevice invalidates the device's graph handles (legal); queued
    // results that were never retrieved are a contract violation.
    for (auto& [handle, rec] : graphs_) {
      if (rec.device != device || rec.deallocated || rec.device_closed) {
        continue;
      }
      rec.device_closed = true;
      if (rec.in_flight > 0) {
        const int lost = rec.in_flight;
        rec.in_flight = 0;
        report(lock, ViolationKind::kUndrainedAtDealloc, rec.device_id, t,
               std::to_string(lost) +
                   " result(s) still queued when CloseDevice invalidated "
                   "the graph");
        return;  // strict threw; log mode reported the first offender
      }
    }
    return;
  }
  if (st == mvnc::MVNC_INVALID_PARAMETERS && !it->second.open) {
    report(lock, ViolationKind::kDoubleClose, it->second.id, t,
           "CloseDevice on an already-closed device handle");
  }
}

void ProtocolVerifier::on_allocate(const void* device, const void* graph,
                                   int fifo_depth, mvnc::mvncStatus st,
                                   double t) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  const auto dev = devices_.find(device);
  if (st == mvnc::MVNC_OK) {
    GraphRec rec;
    rec.device = device;
    rec.fifo_depth = fifo_depth;
    if (dev != devices_.end()) {
      rec.device_id = dev->second.id;
      rec.replug_epoch = dev->second.replug_epoch;
    }
    graphs_[graph] = rec;  // address reuse replaces the retired record
    return;
  }
  if (st == mvnc::MVNC_INVALID_PARAMETERS && dev != devices_.end() &&
      !dev->second.open) {
    report(lock, ViolationKind::kUseAfterClose, dev->second.id, t,
           "AllocateGraph on a closed device handle");
  }
}

void ProtocolVerifier::on_deallocate(const void* graph, mvnc::mvncStatus st,
                                     double t) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  const auto it = graphs_.find(graph);
  if (it == graphs_.end()) return;
  GraphRec& rec = it->second;
  if (st == mvnc::MVNC_OK) {
    const int undrained = rec.in_flight;
    rec.in_flight = 0;
    rec.deallocated = true;
    if (undrained > 0) {
      report(lock, ViolationKind::kUndrainedAtDealloc, rec.device_id, t,
             std::to_string(undrained) +
                 " result(s) still queued at DeallocateGraph");
    }
    return;
  }
  if (st == mvnc::MVNC_INVALID_PARAMETERS) {
    flag_dead_graph(lock, graph, rec, t, "DeallocateGraph");
  }
}

void ProtocolVerifier::on_load(const void* graph, mvnc::mvncStatus st,
                               double t) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  const auto it = graphs_.find(graph);
  if (it == graphs_.end()) return;
  GraphRec& rec = it->second;
  if (flag_dead_graph(lock, graph, rec, t, "LoadTensor")) return;
  switch (st) {
    case mvnc::MVNC_OK:
      ++rec.in_flight;
      break;
    case mvnc::MVNC_BUSY:
      if (rec.in_flight >= rec.fifo_depth) {
        report(lock, ViolationKind::kOverIssue, rec.device_id, t,
               "LoadTensor with " + std::to_string(rec.in_flight) +
                   " inference(s) already in flight (FIFO depth " +
                   std::to_string(rec.fifo_depth) +
                   "); drain a result first");
      }
      break;
    case mvnc::MVNC_GONE:
      rec.in_flight = 0;  // queued inferences died with the link
      break;
    default:
      break;
  }
}

void ProtocolVerifier::on_get(const void* graph, mvnc::mvncStatus st,
                              double t) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  const auto it = graphs_.find(graph);
  if (it == graphs_.end()) return;
  GraphRec& rec = it->second;
  if (flag_dead_graph(lock, graph, rec, t, "GetResult")) return;
  switch (st) {
    case mvnc::MVNC_OK:
      if (rec.in_flight > 0) --rec.in_flight;
      break;
    case mvnc::MVNC_NO_DATA:
      report(lock, ViolationKind::kUnmatchedGetResult, rec.device_id, t,
             "GetResult with no outstanding LoadTensor (check "
             "pending_results() before draining)");
      break;
    case mvnc::MVNC_GONE:
      rec.in_flight = 0;
      break;
    default:
      break;  // MVNC_TIMEOUT keeps the inference queued: no change
  }
}

void ProtocolVerifier::on_watchdog(const void* graph, double timeout_s,
                                   double t) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  const auto it = graphs_.find(graph);
  if (it == graphs_.end()) return;
  GraphRec& rec = it->second;
  if (timeout_s == 0.0) {
    report(lock, ViolationKind::kWatchdogMisuse, rec.device_id, t,
           "zero watchdog budget guarantees MVNC_TIMEOUT on every "
           "GetResult");
    return;
  }
  if (rec.in_flight > 0) {
    report(lock, ViolationKind::kWatchdogMisuse, rec.device_id, t,
           "watchdog changed with " + std::to_string(rec.in_flight) +
               " inference(s) in flight");
  }
}

void ProtocolVerifier::on_replug(const void* device, double t) {
  (void)t;
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  const auto it = devices_.find(device);
  if (it == devices_.end()) return;
  // Graphs allocated before this point are stale; driving one is a
  // kReplugWithoutRealloc flagged at the offending call.
  ++it->second.replug_epoch;
}

std::uint64_t ProtocolVerifier::count(ViolationKind kind) const {
  std::unique_lock lock(mutex_);
  return counts_[static_cast<int>(kind)];
}

std::uint64_t ProtocolVerifier::total() const {
  std::unique_lock lock(mutex_);
  return total_;
}

std::vector<Violation> ProtocolVerifier::violations() const {
  std::unique_lock lock(mutex_);
  return recorded_;
}

void ProtocolVerifier::clear_violations() {
  std::unique_lock lock(mutex_);
  recorded_.clear();
  for (auto& c : counts_) c = 0;
  total_ = 0;
}

ProtocolVerifier& verifier() {
  static ProtocolVerifier instance;
  return instance;
}

}  // namespace ncsw::check
