#include "serve/server.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "check/serve_check.h"
#include "serve/arrivals.h"
#include "util/trace.h"

namespace ncsw::serve {

const char* slo_class_name(SloClass c) {
  switch (c) {
    case SloClass::kInteractive: return "interactive";
    case SloClass::kStandard: return "standard";
    case SloClass::kBatch: return "batch";
  }
  return "?";
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kRejected: return "rejected";
    case Outcome::kDropped: return "dropped";
  }
  return "?";
}

void OutcomeRollup::add(SloClass slo, Outcome outcome, double latency_ms) {
  const auto c = static_cast<std::size_t>(slo);
  ClassStats& cs = classes_[c];
  ++cs.offered;
  switch (outcome) {
    case Outcome::kCompleted:
      ++cs.completed;
      latencies_.push_back(latency_ms);
      by_class_[c].push_back(latency_ms);
      break;
    case Outcome::kRejected: ++cs.rejected; break;
    case Outcome::kDropped: ++cs.dropped; break;
  }
}

void OutcomeRollup::finish(RunSummary& summary) {
  constexpr std::array<double, 3> kPs{50.0, 95.0, 99.0};
  std::array<double, 3> q{};
  util::percentiles_in_place(latencies_, kPs, q);
  summary.p50_ms = q[0];
  summary.p95_ms = q[1];
  summary.p99_ms = q[2];
  for (std::size_t c = 0; c < kSloClassCount; ++c) {
    summary.classes[c] = classes_[c];
    summary.classes[c].p99_ms =
        util::percentile(std::move(by_class_[c]), 99.0);
  }
}

const char* drop_reason_name(DropReason r) {
  switch (r) {
    case DropReason::kNone: return "none";
    case DropReason::kDeadline: return "deadline";
    case DropReason::kInflightLost: return "inflight-lost";
    case DropReason::kFailover: return "failover";
  }
  return "?";
}

/// One submitted-but-unretrieved batch (a core::Ticket plus the serve
/// bookkeeping riding with it).
struct Session::Flight {
  core::Ticket ticket;
  double dispatch_s = 0.0;
  double complete_s = 0.0;  ///< ticket completion as the loop observes it
  int wlane = -1;           ///< "serve <label> w<k>" trace slot, -1 none
  std::vector<std::size_t> inflight;  ///< record indices being served
};

/// Assumed img/s for a target with no completed batch yet (free
/// unobserved targets are explored first regardless).
constexpr double kPriorTput = 25.0;

/// Dispatcher-side view of one target.
struct Session::TargetState {
  core::Target* target = nullptr;
  std::string label;
  int max_batch = 1;
  int window = 1;
  ClearingRate tput{kPriorTput};  ///< img/s from completed batches
  bool disabled = false;  ///< a ticket failed; out of rotation
  std::deque<Flight> flights;  ///< dispatch order
  /// Free "w<k>" trace-lane slots: a flight takes the lowest free slot
  /// at dispatch and returns it at completion, so each w-lane carries
  /// disjoint ticket spans even when flights retire out of order.
  std::priority_queue<int, std::vector<int>, std::greater<>> free_wlanes;
  int next_wlane = 0;
  TargetStats stats;
  /// Registry handles, looked up on first use so a metrics snapshot
  /// names only the instruments a run actually touched.
  util::Gauge* inflight_gauge = nullptr;
  util::Counter* images = nullptr;

  bool has_slot() const {
    return !disabled && static_cast<int>(flights.size()) < window;
  }
};

namespace {

void validate_targets(const std::vector<core::Target*>& targets) {
  if (targets.empty()) {
    throw std::invalid_argument("Server: no targets");
  }
  for (auto* t : targets) {
    if (!t) throw std::invalid_argument("Server: null target");
  }
}

ServerConfig validate_config(ServerConfig config) {
  if (config.queue_capacity < 1) config.queue_capacity = 1;
  if (config.max_batch < 1) config.max_batch = 1;
  if (!(config.batch_timeout_s >= 0.0)) {
    throw std::invalid_argument("Server: bad batch_timeout_s");
  }
  if (!(config.queue_deadline_s > 0.0)) {
    throw std::invalid_argument("Server: bad queue_deadline_s");
  }
  if (config.inflight_window < 0) {
    throw std::invalid_argument("Server: inflight_window must be >= 0");
  }
  return config;
}

}  // namespace

Session::Session(std::vector<core::Target*> targets, ServerConfig config,
                 std::string label, Observer* observer,
                 CompletionMap completion_map)
    : config_(validate_config(config)),
      label_(std::move(label)),
      lane_prefix_(label_.empty() ? std::string() : label_ + " "),
      observer_(observer),
      map_(std::move(completion_map)) {
  validate_targets(targets);
  states_.resize(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    TargetState& ts = states_[i];
    ts.target = targets[i];
    ts.label = targets[i]->short_name();
    ts.max_batch =
        std::max(1, std::min(config_.max_batch, targets[i]->max_batch()));
    if (config_.inflight_window > 0) {
      targets[i]->set_inflight_window(config_.inflight_window);
    }
    ts.window = targets[i]->inflight_window();
    ts.stats.label = ts.label;
    ts.stats.window = ts.window;
  }
  bind_observability();
}

Session::~Session() = default;

std::string Session::mname(const std::string& suffix) const {
  return label_.empty() ? "serve." + suffix : "serve." + label_ + "." + suffix;
}

void Session::bind_observability() {
  auto& reg = util::metrics();
  m_offered_ = &reg.counter(mname("offered"));
  m_accepted_ = &reg.counter(mname("accepted"));
  m_rejected_ = &reg.counter(mname("rejected"));
  m_dropped_ = &reg.counter(mname("dropped"));
  m_drop_deadline_ = &reg.counter(mname("drops.deadline"));
  m_drop_inflight_ = &reg.counter(mname("drops.inflight"));
  m_drop_failover_ = &reg.counter(mname("drops.failover"));
  m_completed_ = &reg.counter(mname("completed"));
  m_batches_ = &reg.counter(mname("batches"));
  m_disabled_ = &reg.counter(mname("targets_disabled"));
  g_depth_ = &reg.gauge(mname("queue_depth"));
  h_batch_ = &reg.histogram(mname("batch_size"),
                            {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64});
  h_latency_ = &reg.histogram(
      mname("latency_ms"),
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});

  auto& tr = util::tracer();
  if (tr.enabled()) {
    sched_lane_ = tr.lane(lane_prefix_ + "serve sched");
    queue_lane_ = tr.lane(lane_prefix_ + "serve queue");
  }
}

util::Gauge& Session::inflight_gauge(std::size_t i) {
  // Per-target window occupancy (how deep the pipeline actually ran).
  TargetState& ts = states_[i];
  if (!ts.inflight_gauge) {
    ts.inflight_gauge =
        &util::metrics().gauge(mname("inflight.target" + std::to_string(i)));
  }
  return *ts.inflight_gauge;
}

util::Counter& Session::images_counter(std::size_t i) {
  TargetState& ts = states_[i];
  if (!ts.images) {
    ts.images = &util::metrics().counter(
        mname("target" + std::to_string(i) + ".images"));
  }
  return *ts.images;
}

// Per-request trace lanes: a request occupies the lowest free "serve
// slot<k>" lane from admission to completion/drop, so each slot lane
// carries disjoint request spans (with queued/service children nested
// inside) and the whole trace stays lint-clean. The pool is bounded by
// queue capacity + in-flight work.
void Session::alloc_slot(std::size_t idx) {
  auto& tr = util::tracer();
  if (!tr.enabled() || !config_.trace_requests) return;
  if (slot_of_.size() <= idx) {
    slot_of_.resize(idx + 1, -1);
    slot_claim_s_.resize(idx + 1, 0.0);
  }
  slot_claim_s_[idx] = now_;
  int slot;
  if (free_slots_.empty()) {
    slot = next_slot_++;
  } else {
    slot = free_slots_.top();
    free_slots_.pop();
  }
  slot_of_[idx] = slot;
}

void Session::emit_request_spans(std::size_t idx, double end_s) {
  if (idx >= slot_of_.size()) return;
  const int slot = slot_of_[idx];
  if (slot < 0) return;
  auto& tr = util::tracer();
  const RequestRecord& rec = report_.records[idx];
  const double a = std::max(rec.request.arrival_s, slot_claim_s_[idx]);
  const int lane =
      tr.lane(lane_prefix_ + "serve slot" + std::to_string(slot));
  tr.complete("serve.req", "request", lane, a, end_s,
              {util::TraceArg::num("id", rec.request.id),
               util::TraceArg::str("outcome", outcome_name(rec.outcome))});
  if (rec.outcome == Outcome::kCompleted) {
    tr.complete("serve.req", "queued", lane, a, rec.dispatch_s,
                {util::TraceArg::str("target", states_[static_cast<
                     std::size_t>(rec.target)].label)});
    tr.complete("serve.req", "service", lane, rec.dispatch_s, end_s);
  } else {
    tr.complete("serve.req", "queued", lane, a, end_s);
  }
  free_slots_.push(slot);
  slot_of_[idx] = -1;
}

void Session::sample_depth() {
  const auto depth = pending_.size();
  g_depth_->set(static_cast<double>(depth));
  report_.max_queue_depth = std::max(report_.max_queue_depth, depth);
  auto& tr = util::tracer();
  if (tr.enabled()) {
    tr.counter(mname("queue_depth"), now_, static_cast<double>(depth));
  }
}

double Session::head_arrival() const {
  return report_.records[pending_.front()].request.arrival_s;
}

void Session::mark_dropped(std::size_t idx, DropReason reason) {
  RequestRecord& rec = report_.records[idx];
  rec.outcome = Outcome::kDropped;
  rec.drop_reason = reason;
  rec.complete_s = now_;
  ++report_.dropped;
  m_dropped_->add(1);
  switch (reason) {
    case DropReason::kDeadline:
      ++report_.dropped_deadline;
      m_drop_deadline_->add(1);
      break;
    case DropReason::kInflightLost:
      ++report_.dropped_inflight;
      m_drop_inflight_->add(1);
      break;
    case DropReason::kFailover:
      ++report_.dropped_failover;
      m_drop_failover_->add(1);
      break;
    case DropReason::kNone:
      break;
  }
}

void Session::drop_head() {
  const std::size_t idx = pending_.front();
  pending_.pop_front();
  --queued_by_class_[static_cast<int>(report_.records[idx].request.slo)];
  mark_dropped(idx, DropReason::kDeadline);
  auto& tr = util::tracer();
  if (tr.enabled()) {
    if (queue_lane_ >= 0) tr.instant("serve", "drop", queue_lane_, now_);
    emit_request_spans(idx, now_);
  }
  if (observer_) {
    observer_->on_finished(key_of_[idx], Outcome::kDropped,
                           DropReason::kDeadline, now_);
  }
}

// Pick the target with a free window slot expected to clear work
// fastest: unobserved targets first (everyone gets explored early),
// then idle engines before double-buffering a busy one (a batch
// committed to a deep window cannot be rebalanced later), then the
// highest throughput estimate; ties resolve to the lowest index, which
// keeps the whole schedule deterministic.
int Session::pick_target(bool idle_only) const {
  int best = -1;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (!states_[i].has_slot()) continue;
    if (idle_only && !states_[i].flights.empty()) continue;
    const int ci = static_cast<int>(i);
    if (best < 0) {
      best = ci;
      continue;
    }
    const TargetState& b = states_[static_cast<std::size_t>(best)];
    const TargetState& c = states_[i];
    if (!c.tput.observed && b.tput.observed) {
      best = ci;
    } else if (c.tput.observed == b.tput.observed) {
      const bool c_idle = c.flights.empty(), b_idle = b.flights.empty();
      if (c_idle != b_idle ? c_idle : c.tput.est > b.tput.est) best = ci;
    }
  }
  return best;
}

void Session::dispatch(int which, std::size_t n) {
  TargetState& ts = states_[static_cast<std::size_t>(which)];
  Flight fl;
  fl.dispatch_s = now_;
  fl.inflight.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = pending_.front();
    pending_.pop_front();
    --queued_by_class_[static_cast<int>(report_.records[idx].request.slo)];
    report_.records[idx].dispatch_s = now_;
    report_.records[idx].target = which;
    fl.inflight.push_back(idx);
  }
  const int batch = static_cast<int>(std::min<std::size_t>(
      n, static_cast<std::size_t>(ts.max_batch)));
  // Non-blocking hand-off: the ticket's completion timestamp becomes a
  // future event; the loop keeps dispatching to other slots meanwhile.
  // A failed execution still yields a ticket (completing "now"); the
  // wait() at completion surfaces it.
  fl.ticket = ts.target->submit(static_cast<std::int64_t>(n), batch, now_);
  const double promised = ts.target->info(fl.ticket).complete_s;
  fl.complete_s = map_ ? map_(promised) : promised;
  auto& tr = util::tracer();
  if (tr.enabled()) {
    if (ts.free_wlanes.empty()) {
      fl.wlane = ts.next_wlane++;
    } else {
      fl.wlane = ts.free_wlanes.top();
      ts.free_wlanes.pop();
    }
  }
  if (observer_) {
    for (const std::size_t idx : fl.inflight) {
      observer_->on_dispatched(key_of_[idx], now_, promised);
    }
  }
  ts.flights.push_back(std::move(fl));
  inflight_ += n;
  ts.stats.max_inflight = std::max(
      ts.stats.max_inflight, static_cast<int>(ts.flights.size()));
  inflight_gauge(static_cast<std::size_t>(which))
      .set(static_cast<double>(ts.flights.size()));
  m_batches_->add(1);
  h_batch_->record(static_cast<double>(n));
  sample_depth();
}

// Drop expired heads, then dispatch while a target has a free window
// slot and either a full batch waiting or (on `force` / an aged head)
// a partial one. Full batches may double-buffer into a busy engine's
// spare slots — that is the pipelining win — but partial batches only
// go to an idle engine: committed early to a busy one they could
// neither grow with later arrivals nor rebalance to whichever engine
// actually frees first.
void Session::try_dispatch(bool force) {
  for (;;) {
    while (!pending_.empty() &&
           now_ >= head_arrival() + config_.queue_deadline_s) {
      drop_head();
      sample_depth();
    }
    if (pending_.empty()) return;
    int which = pick_target(/*idle_only=*/false);
    if (which >= 0) {
      const auto cap = static_cast<std::size_t>(
          states_[static_cast<std::size_t>(which)].max_batch);
      if (pending_.size() >= cap) {
        dispatch(which, cap);
        force = false;
        continue;
      }
    }
    const bool aged = now_ - head_arrival() >= config_.batch_timeout_s;
    if (!aged && !force) return;
    which = pick_target(/*idle_only=*/true);
    if (which < 0) return;
    dispatch(which, pending_.size());
    force = false;
  }
}

// Drop a flight's requests on the floor (execution failed, or the
// ticket was cancelled when its target left rotation).
void Session::drop_flight(const Flight& fl, DropReason reason) {
  auto& tr = util::tracer();
  for (const std::size_t idx : fl.inflight) {
    mark_dropped(idx, reason);
    if (tr.enabled()) emit_request_spans(idx, now_);
    if (observer_) {
      observer_->on_finished(key_of_[idx], Outcome::kDropped, reason, now_);
    }
  }
}

// A ticket failed (e.g. every stick gone without allow_partial): take
// the target out of rotation — cancel its outstanding tickets, drop
// the affected requests — and keep serving on the remaining targets.
// Only when no target is left does the failure propagate to the
// caller, as the old blocking dispatcher's did.
void Session::fail_target(int which, std::exception_ptr err) {
  TargetState& ts = states_[static_cast<std::size_t>(which)];
  for (const Flight& fl : ts.flights) {
    ts.target->cancel(fl.ticket);
    inflight_ -= fl.inflight.size();
    drop_flight(fl, DropReason::kFailover);
  }
  ts.target->cancel_outstanding();
  ts.flights.clear();
  ts.disabled = true;
  m_disabled_->add(1);
  inflight_gauge(static_cast<std::size_t>(which)).set(0.0);
  const bool any_left = std::any_of(
      states_.begin(), states_.end(),
      [](const TargetState& s) { return !s.disabled; });
  if (!any_left) std::rethrow_exception(err);
}

void Session::complete_flight(int which, std::size_t fidx) {
  auto& tr = util::tracer();
  TargetState& ts = states_[static_cast<std::size_t>(which)];
  Flight fl = std::move(ts.flights[fidx]);
  ts.flights.erase(ts.flights.begin() + static_cast<std::ptrdiff_t>(fidx));
  inflight_ -= fl.inflight.size();
  core::TimedRun run;
  try {
    run = ts.target->wait(fl.ticket);
  } catch (...) {
    drop_flight(fl, DropReason::kInflightLost);
    if (tr.enabled() && fl.wlane >= 0) ts.free_wlanes.push(fl.wlane);
    fail_target(which, std::current_exception());
    return;
  }
  // The engine's own execution span — not dispatch-to-retrieval, which
  // under a deep window also counts time queued behind earlier flights
  // and would sink every estimate at exactly the moment the pipeline
  // fills.
  const double duration = run.seconds;
  const auto issued = static_cast<std::int64_t>(fl.inflight.size());
  const std::int64_t ok = std::min<std::int64_t>(run.images, issued);
  for (std::size_t k = 0; k < fl.inflight.size(); ++k) {
    const std::size_t idx = fl.inflight[k];
    RequestRecord& rec = report_.records[idx];
    rec.complete_s = now_;
    if (static_cast<std::int64_t>(k) < ok) {
      rec.outcome = Outcome::kCompleted;
      ++report_.completed;
      const double ms = rec.latency_s() * 1e3;
      report_.latency_ms.add(ms);
      h_latency_->record(ms);
    } else {
      // Lost in flight: every stick died mid-batch under allow_partial.
      mark_dropped(idx, DropReason::kInflightLost);
    }
    if (tr.enabled()) emit_request_spans(idx, now_);
    if (observer_) {
      observer_->on_finished(
          key_of_[idx], rec.outcome,
          rec.outcome == Outcome::kCompleted ? DropReason::kNone
                                             : DropReason::kInflightLost,
          now_);
    }
  }
  report_.last_complete_s = std::max(report_.last_complete_s, now_);
  m_completed_->add(static_cast<std::uint64_t>(ok));
  images_counter(static_cast<std::size_t>(which))
      .add(static_cast<std::uint64_t>(ok));

  // Feedback: fold the observed clearing rate into the estimate. A
  // batch slowed by retries/quarantines (or with lost images) sinks the
  // estimate, steering later batches to healthier targets.
  const double observed =
      duration > 0.0 ? static_cast<double>(ok) / duration : 0.0;
  ts.tput.observe(observed);
  ++ts.stats.batches;
  ts.stats.images += ok;
  ts.stats.busy_s += duration;
  ts.stats.tput_est = ts.tput.est;
  ts.stats.images_replayed += run.images_replayed;
  ts.stats.images_lost += run.images_lost;
  ts.stats.sticks_recovered += run.sticks_recovered;
  ts.stats.sticks_dead = run.sticks_dead;
  if (tr.enabled() && fl.wlane >= 0) {
    // The ticket span: one per submission, on the w-lane the flight
    // held. Lanes are recycled through the free heap, so spans on a
    // lane are disjoint even when tickets retire out of order.
    const int lane = tr.lane(lane_prefix_ + "serve " + ts.label + " w" +
                             std::to_string(fl.wlane));
    tr.complete("serve", "ticket", lane, fl.dispatch_s, now_,
                {util::TraceArg::num(
                     "ticket", static_cast<std::int64_t>(fl.ticket.id)),
                 util::TraceArg::num("n", issued),
                 util::TraceArg::num("completed", ok),
                 util::TraceArg::num("tput_obs", observed),
                 util::TraceArg::num("tput_est", ts.tput.est)});
    ts.free_wlanes.push(fl.wlane);
  }
  inflight_gauge(static_cast<std::size_t>(which))
      .set(static_cast<double>(ts.flights.size()));
  if (observer_) {
    observer_->on_batch_completed(which, fl.dispatch_s, now_, ok);
  }
}

bool Session::offer(const Request& req, std::size_t key, double now,
                    bool force) {
  times_stale_ = true;
  now_ = std::max(now_, now);
  const std::size_t idx = report_.records.size();
  RequestRecord rec;
  rec.request = req;
  report_.records.push_back(std::move(rec));
  key_of_.push_back(key);
  ++report_.offered;
  m_offered_->add(1);
  const auto slo = static_cast<int>(req.slo);
  if (!force && (pending_.size() >= config_.queue_capacity ||
                 queued_by_class_[slo] >= config_.class_quota[slo])) {
    RequestRecord& r = report_.records[idx];
    r.outcome = Outcome::kRejected;
    r.complete_s = now_;
    ++report_.rejected;
    m_rejected_->add(1);
    auto& tr = util::tracer();
    if (tr.enabled() && queue_lane_ >= 0) {
      tr.instant("serve", "reject", queue_lane_, now_);
    }
    if (observer_) {
      observer_->on_finished(key, Outcome::kRejected, DropReason::kNone, now_);
    }
    return false;
  }
  pending_.push_back(idx);
  ++queued_by_class_[slo];
  ++report_.accepted;
  m_accepted_->add(1);
  alloc_slot(idx);
  sample_depth();
  try_dispatch(false);
  return true;
}

void Session::refresh_event_times() const noexcept {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Earliest ticket completion across every in-flight submission.
  // Flights on one target can retire out of dispatch order (a narrow
  // batch on few sticks can finish before an earlier wide one), so
  // scan them all.
  double complete = kInf;
  bool idle_target = false;
  for (const auto& ts : states_) {
    for (const auto& fl : ts.flights) {
      complete = std::min(complete, fl.complete_s);
    }
    idle_target = idle_target || (!ts.disabled && ts.flights.empty());
  }
  next_complete_ = complete;
  next_drop_ = next_flush_ = kInf;
  if (!pending_.empty()) {
    const double head = head_arrival();
    next_drop_ = head + config_.queue_deadline_s;
    // A flush pushes a partial batch to an idle engine, so it only
    // schedules when one exists; otherwise the next completion
    // re-evaluates dispatch anyway.
    if (idle_target) next_flush_ = head + config_.batch_timeout_s;
  }
  times_stale_ = false;
}

double Session::next_complete_s() const noexcept {
  if (times_stale_) refresh_event_times();
  return next_complete_;
}

double Session::next_drop_s() const noexcept {
  if (times_stale_) refresh_event_times();
  return next_drop_;
}

double Session::next_flush_s() const noexcept {
  if (times_stale_) refresh_event_times();
  return next_flush_;
}

void Session::on_complete(double now) {
  times_stale_ = true;
  now_ = std::max(now_, now);
  // Ties resolve to the lowest target index, then the earliest-
  // dispatched flight — deterministic replay again.
  double t_complete = std::numeric_limits<double>::infinity();
  int done_target = -1;
  std::size_t done_flight = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const auto& flights = states_[i].flights;
    for (std::size_t j = 0; j < flights.size(); ++j) {
      if (flights[j].complete_s < t_complete) {
        t_complete = flights[j].complete_s;
        done_target = static_cast<int>(i);
        done_flight = j;
      }
    }
  }
  if (done_target < 0) return;  // nothing in flight
  complete_flight(done_target, done_flight);
  try_dispatch(false);
}

void Session::on_drop(double now) {
  times_stale_ = true;
  now_ = std::max(now_, now);
  try_dispatch(false);  // expired-head sweep runs first
}

void Session::on_flush(double now) {
  times_stale_ = true;
  now_ = std::max(now_, now);
  try_dispatch(true);
}

std::vector<std::size_t> Session::evict_all(double now) {
  times_stale_ = true;
  now_ = std::max(now_, now);
  auto& tr = util::tracer();
  std::vector<std::size_t> evicted;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    TargetState& ts = states_[i];
    for (const Flight& fl : ts.flights) {
      ts.target->cancel(fl.ticket);
      inflight_ -= fl.inflight.size();
      for (const std::size_t idx : fl.inflight) {
        mark_dropped(idx, DropReason::kFailover);
        evicted.push_back(key_of_[idx]);
        if (tr.enabled()) emit_request_spans(idx, now_);
      }
      if (tr.enabled() && fl.wlane >= 0) ts.free_wlanes.push(fl.wlane);
    }
    if (!ts.flights.empty()) {
      ts.flights.clear();
      inflight_gauge(i).set(0.0);
    }
  }
  while (!pending_.empty()) {
    const std::size_t idx = pending_.front();
    pending_.pop_front();
    --queued_by_class_[static_cast<int>(report_.records[idx].request.slo)];
    mark_dropped(idx, DropReason::kFailover);
    evicted.push_back(key_of_[idx]);
    if (tr.enabled()) emit_request_spans(idx, now_);
  }
  sample_depth();
  return evicted;
}

ServeReport Session::finish() {
  g_depth_->set(0.0);
  // Request conservation: every offered request must hold exactly one
  // terminal outcome now. evict_all / drops / completions all route
  // through the record bookkeeping, so anything unaccounted here is a
  // loop bug, not a policy decision.
  auto& sv = check::serve_verifier();
  if (sv.enabled()) {
    sv.on_session_finish(
        label_, report_.offered, report_.rejected, report_.completed,
        report_.dropped, report_.dropped_deadline, report_.dropped_inflight,
        report_.dropped_failover,
        static_cast<std::int64_t>(pending_.size() + inflight()), now_);
  }
  auto& records = report_.records;
  if (!records.empty()) {
    report_.first_arrival_s = records.front().request.arrival_s;
  }
  OutcomeRollup rollup;
  for (const auto& rec : records) {
    rollup.add(rec.request.slo, rec.outcome, rec.latency_s() * 1e3);
  }
  rollup.finish(report_);
  report_.targets.reserve(states_.size());
  for (const auto& ts : states_) report_.targets.push_back(ts.stats);
  auto& tr = util::tracer();
  if (tr.enabled() && sched_lane_ >= 0 && !records.empty()) {
    tr.complete("serve", "serve", sched_lane_, report_.first_arrival_s,
                std::max(report_.last_complete_s, report_.first_arrival_s),
                {util::TraceArg::num("offered", report_.offered),
                 util::TraceArg::num("completed", report_.completed),
                 util::TraceArg::num("rejected", report_.rejected),
                 util::TraceArg::num("dropped", report_.dropped),
                 util::TraceArg::num("goodput", report_.goodput())});
  }
  return std::move(report_);
}

bool Session::has_capacity() const noexcept {
  return pending_.size() < config_.queue_capacity;
}

bool Session::has_capacity_for(SloClass slo) const noexcept {
  const auto c = static_cast<int>(slo);
  return pending_.size() < config_.queue_capacity &&
         queued_by_class_[c] < config_.class_quota[c];
}

bool Session::idle() const noexcept {
  if (!pending_.empty()) return false;
  for (const auto& ts : states_) {
    if (!ts.flights.empty()) return false;
  }
  return true;
}

bool Session::all_disabled() const noexcept {
  return std::all_of(states_.begin(), states_.end(),
                     [](const TargetState& s) { return s.disabled; });
}

Server::Server(std::vector<core::Target*> targets, ServerConfig config)
    : config_(validate_config(config)), targets_(std::move(targets)) {
  validate_targets(targets_);
}

ServeReport Server::run(core::Source& source,
                        const std::function<double()>& next_arrival_s,
                        std::int64_t limit) {
  if (!next_arrival_s) {
    throw std::invalid_argument("Server::run: null arrival process");
  }
  std::vector<Request> requests;
  std::int64_t id = 0;
  while (limit < 0 || id < limit) {
    auto item = source.next();
    if (!item) break;
    Request req;
    req.id = id++;
    req.arrival_s = next_arrival_s();
    req.label = item->label;
    req.tag = std::move(item->id);
    requests.push_back(std::move(req));
  }
  return run(requests);
}

ServeReport Server::run(const std::vector<Request>& requests) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  require_finite_sorted(requests, "Server::run");

  Session session(targets_, config_);
  std::size_t next_arrival = 0;
  double now = 0.0;
  EventPicker picker(kServerEventOrder);
  for (;;) {
    picker.clear();
    picker.offer(LoopEventKind::kComplete, 0, session.next_complete_s());
    picker.offer(LoopEventKind::kDrop, 0, session.next_drop_s());
    picker.offer(LoopEventKind::kArrive, 0,
                 next_arrival < requests.size()
                     ? requests[next_arrival].arrival_s
                     : kInf);
    picker.offer(LoopEventKind::kFlush, 0, session.next_flush_s());
    const auto ev = picker.pick();
    if (!ev) break;
    now = std::max(now, ev->t);

    switch (ev->kind) {
      case LoopEventKind::kComplete:
        session.on_complete(now);
        break;
      case LoopEventKind::kDrop:
        session.on_drop(now);
        break;
      case LoopEventKind::kArrive:
        session.offer(requests[next_arrival], next_arrival, now);
        ++next_arrival;
        break;
      default:  // kFlush
        session.on_flush(now);
        break;
    }
  }
  return session.finish();
}

}  // namespace ncsw::serve
