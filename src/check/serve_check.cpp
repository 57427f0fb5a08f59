#include "check/serve_check.h"

namespace ncsw::check {

const char* serve_violation_name(ServeViolationKind kind) {
  switch (kind) {
    case ServeViolationKind::kWindowExceeded:
      return "window-exceeded";
    case ServeViolationKind::kWaitAfterCancel:
      return "wait-after-cancel";
    case ServeViolationKind::kDoubleWait:
      return "double-wait";
    case ServeViolationKind::kPollAfterRetire:
      return "poll-after-retire";
    case ServeViolationKind::kUnknownTicket:
      return "unknown-ticket";
    case ServeViolationKind::kRequestConservation:
      return "request-conservation";
    case ServeViolationKind::kDuplicateDelivery:
      return "duplicate-delivery";
    case ServeViolationKind::kLedgerConservation:
      return "ledger-conservation";
    case ServeViolationKind::kNegativeLive:
      return "negative-live";
    case ServeViolationKind::kSwapWhileInflight:
      return "swap-while-inflight";
    case ServeViolationKind::kWrongModelDispatch:
      return "wrong-model-dispatch";
    case ServeViolationKind::kResidencyConservation:
      return "residency-conservation";
    case ServeViolationKind::kStaleEventCache:
      return "stale-event-cache";
  }
  return "?";
}

std::string ServeViolation::to_string() const {
  std::string out = serve_violation_name(kind);
  if (!scope.empty()) out += " on " + scope;
  out += " at t=" + std::to_string(sim_time) + "s: " + detail;
  return out;
}

void ServeVerifier::configure(CheckMode mode) {
  std::unique_lock lock(mutex_);
  delivered_.clear();
  log_.clear();
  event_cache_checks_ = 0;
  mode_.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void ServeVerifier::report(std::unique_lock<std::mutex>& lock,
                           ServeViolationKind kind, std::string scope,
                           double t, std::string detail) {
  log_.report(lock,
              ServeViolation{kind, std::move(scope), t, std::move(detail)},
              serve_violation_name(kind), "serve check",
              "serving contract violation: ", mode() == CheckMode::kStrict);
}

void ServeVerifier::on_submit(const void* target, const std::string& name,
                              std::uint64_t id, int inflight, int window,
                              double t) {
  (void)target;
  if (!enabled()) return;
  if (inflight <= window) return;
  std::unique_lock lock(mutex_);
  report(lock, ServeViolationKind::kWindowExceeded, name, t,
         "ticket " + std::to_string(id) + " accepted with " +
             std::to_string(inflight) + " submission(s) in flight (window " +
             std::to_string(window) + ")");
}

void ServeVerifier::miss(const char* call, ServeViolationKind evicted_kind,
                         const void* target, const std::string& name,
                         std::uint64_t id, std::uint64_t last_issued,
                         double t) {
  (void)target;
  std::unique_lock lock(mutex_);
  if (id >= 1 && id <= last_issued) {
    // The target issued this id once; it has since fallen off the
    // bounded retired ring. The defined error (std::out_of_range from
    // poll/info, std::logic_error semantics for wait) still fires in
    // kLog mode — stale state is never served.
    report(lock, evicted_kind, name, t,
           std::string(call) + " on ticket " + std::to_string(id) +
               ", evicted from the retired ring (last " +
               std::to_string(last_issued) + " issued; ring keeps 64)");
    return;
  }
  report(lock, ServeViolationKind::kUnknownTicket, name, t,
         std::string(call) + " on ticket " + std::to_string(id) +
             ", which this target never issued");
}

void ServeVerifier::on_poll_miss(const void* target, const std::string& name,
                                 std::uint64_t id, std::uint64_t last_issued,
                                 double t) {
  if (!enabled()) return;
  miss("poll/info", ServeViolationKind::kPollAfterRetire, target, name, id,
       last_issued, t);
}

void ServeVerifier::on_wait_retired(const void* target,
                                    const std::string& name, std::uint64_t id,
                                    const char* state, double t) {
  (void)target;
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  const bool cancelled = std::string(state) == "cancelled";
  report(lock,
         cancelled ? ServeViolationKind::kWaitAfterCancel
                   : ServeViolationKind::kDoubleWait,
         name, t,
         "wait on ticket " + std::to_string(id) + " already " + state +
             (cancelled ? "; its result was discarded at cancellation"
                        : "; a TimedRun is handed out exactly once"));
}

void ServeVerifier::on_wait_miss(const void* target, const std::string& name,
                                 std::uint64_t id, std::uint64_t last_issued,
                                 double t) {
  if (!enabled()) return;
  miss("wait", ServeViolationKind::kDoubleWait, target, name, id, last_issued,
       t);
}

void ServeVerifier::on_cancel_miss(const void* /*target*/,
                                   const std::string& name, std::uint64_t id,
                                   std::uint64_t last_issued, double t) {
  if (!enabled()) return;
  // Cancelling a retired ticket is the documented drain idiom (returns
  // false); only an id the target never issued is flagged.
  if (id >= 1 && id <= last_issued) return;
  std::unique_lock lock(mutex_);
  report(lock, ServeViolationKind::kUnknownTicket, name, t,
         "cancel on ticket " + std::to_string(id) +
             ", which this target never issued");
}

void ServeVerifier::on_session_finish(
    const std::string& label, std::int64_t offered, std::int64_t rejected,
    std::int64_t completed, std::int64_t dropped,
    std::int64_t dropped_deadline, std::int64_t dropped_inflight,
    std::int64_t dropped_failover, std::int64_t unaccounted, double t) {
  if (!enabled()) return;
  const std::string scope =
      label.empty() ? std::string("serve") : "serve " + label;
  std::unique_lock lock(mutex_);
  if (unaccounted != 0) {
    report(lock, ServeViolationKind::kRequestConservation, scope, t,
           std::to_string(unaccounted) +
               " request(s) still queued or in flight at finish()");
    return;
  }
  const std::int64_t by_reason =
      dropped_deadline + dropped_inflight + dropped_failover;
  if (by_reason != dropped) {
    report(lock, ServeViolationKind::kRequestConservation, scope, t,
           "drop reasons sum to " + std::to_string(by_reason) + " but " +
               std::to_string(dropped) + " request(s) were dropped");
    return;
  }
  if (completed + rejected + dropped != offered) {
    report(lock, ServeViolationKind::kRequestConservation, scope, t,
           std::to_string(offered) + " offered != " +
               std::to_string(completed) + " completed + " +
               std::to_string(rejected) + " rejected + " +
               std::to_string(dropped) + " dropped");
  }
}

void ServeVerifier::on_swap_begin(const std::string& stick,
                                  const std::string& from_model,
                                  const std::string& to_model, int inflight,
                                  double t) {
  if (!enabled()) return;
  if (inflight == 0) return;
  std::unique_lock lock(mutex_);
  report(lock, ServeViolationKind::kSwapWhileInflight, stick, t,
         "swap " + from_model + " -> " + to_model + " started with " +
             std::to_string(inflight) +
             " ticket(s) outstanding; drain before deallocating");
}

void ServeVerifier::on_zoo_dispatch(const std::string& stick,
                                    const std::string& resident,
                                    const std::string& requested, double t) {
  if (!enabled()) return;
  if (resident == requested) return;
  std::unique_lock lock(mutex_);
  report(lock, ServeViolationKind::kWrongModelDispatch, stick, t,
         "dispatching " + requested + " work to a stick resident with " +
             (resident.empty() ? std::string("no graph") : resident));
}

void ServeVerifier::on_zoo_finish(const std::string& scope,
                                  std::int64_t offered, std::int64_t completed,
                                  std::int64_t rejected, std::int64_t dropped,
                                  std::int64_t installs, std::int64_t evicts,
                                  std::int64_t resident, double t) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  if (completed + rejected + dropped != offered) {
    report(lock, ServeViolationKind::kResidencyConservation, scope, t,
           std::to_string(offered) + " offered != " +
               std::to_string(completed) + " completed + " +
               std::to_string(rejected) + " rejected + " +
               std::to_string(dropped) + " dropped");
    return;
  }
  if (installs - evicts != resident) {
    report(lock, ServeViolationKind::kResidencyConservation, scope, t,
           std::to_string(installs) + " install(s) - " +
               std::to_string(evicts) + " evict(s) != " +
               std::to_string(resident) + " resident graph(s)");
  }
}

void ServeVerifier::on_cluster_begin() {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  delivered_.clear();
}

void ServeVerifier::on_ledger_deliver(std::int64_t id, int node, double t) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  if (delivered_.insert(id).second) return;
  report(lock, ServeViolationKind::kDuplicateDelivery, "cluster", t,
         "request " + std::to_string(id) +
             " delivered a second time (node " + std::to_string(node) +
             "); duplicates are counted, never delivered");
}

void ServeVerifier::on_ledger_live(std::int64_t id, int live, double t) {
  if (!enabled()) return;
  if (live >= 0) return;
  std::unique_lock lock(mutex_);
  report(lock, ServeViolationKind::kNegativeLive, "cluster", t,
         "request " + std::to_string(id) + " live-copy count is " +
             std::to_string(live) +
             "; a copy finished that was never offered");
}

void ServeVerifier::on_cluster_finish(std::int64_t offered,
                                      std::int64_t completed,
                                      std::int64_t rejected,
                                      std::int64_t deadline,
                                      std::int64_t lost, double t) {
  if (!enabled()) return;
  if (completed + rejected + deadline + lost == offered) return;
  std::unique_lock lock(mutex_);
  report(lock, ServeViolationKind::kLedgerConservation, "cluster", t,
         std::to_string(offered) + " admitted != " +
             std::to_string(completed) + " completed + " +
             std::to_string(rejected) + " rejected + " +
             std::to_string(deadline) + " deadline + " +
             std::to_string(lost) + " lost");
}

void ServeVerifier::on_stale_event_cache(const std::string& scope,
                                         const std::string& detail,
                                         double t) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  report(lock, ServeViolationKind::kStaleEventCache, scope, t, detail);
}

void ServeVerifier::on_event_cache_checked(std::uint64_t comparisons) {
  if (!enabled()) return;
  std::unique_lock lock(mutex_);
  event_cache_checks_ += comparisons;
}

std::uint64_t ServeVerifier::event_cache_checks() const {
  std::unique_lock lock(mutex_);
  return event_cache_checks_;
}

ServeVerifier& serve_verifier() {
  static ServeVerifier instance;
  return instance;
}

}  // namespace ncsw::check
