#include "core/target.h"

#include <algorithm>
#include <stdexcept>

#include "check/serve_check.h"

namespace ncsw::core {

const char* ticket_state_name(TicketState s) {
  switch (s) {
    case TicketState::kSubmitted: return "submitted";
    case TicketState::kCompleted: return "completed";
    case TicketState::kFailed:    return "failed";
    case TicketState::kCancelled: return "cancelled";
  }
  return "unknown";
}

void Target::set_inflight_window(int window) {
  window_ = std::max(1, window);
}

Ticket Target::submit(std::int64_t images, int batch, double submit_s) {
  if (images < 1) throw std::invalid_argument("submit: images < 1");
  if (batch < 1 || batch > max_batch()) {
    throw std::invalid_argument("submit: bad batch for " + short_name());
  }
  if (window_full()) {
    throw std::runtime_error("submit: in-flight window full on " +
                             short_name() + " (window " +
                             std::to_string(window_) + ")");
  }

  TicketRec rec;
  rec.info.images = images;
  rec.info.batch = batch;
  rec.info.submit_s = submit_s;
  // Execution is eager on the simulated clock: the whole device
  // simulation is synchronous, so the submission's device-time cost is
  // committed here and the ticket merely carries its completion
  // timestamp forward to the caller's poll loop.
  try {
    BatchExec exec = execute_batch(images, batch, submit_s);
    rec.info.start_s = exec.start_s;
    rec.info.complete_s = exec.complete_s;
    rec.run = std::move(exec.run);
  } catch (...) {
    rec.info.state = TicketState::kFailed;
    rec.info.start_s = submit_s;
    rec.info.complete_s = submit_s;
    rec.error = std::current_exception();
  }
  horizon_s_ = std::max(horizon_s_, rec.info.complete_s);

  const Ticket t{next_ticket_++};
  tickets_.emplace(t.id, std::move(rec));
  // The verifier shadows the accepted submission (a window-full submit
  // threw above — that is legal backpressure, not a violation).
  auto& sv = check::serve_verifier();
  if (sv.enabled()) {
    sv.on_submit(this, short_name(), t.id, inflight(), window_, submit_s);
  }
  return t;
}

const Target::TicketRec* Target::find(Ticket t) const {
  const auto it = tickets_.find(t.id);
  return it == tickets_.end() ? nullptr : &it->second;
}

TicketState Target::poll(Ticket t, double now_s) const {
  if (const TicketRec* rec = find(t)) {
    if (rec->info.state != TicketState::kSubmitted) return rec->info.state;
    return now_s >= rec->info.complete_s ? TicketState::kCompleted
                                         : TicketState::kSubmitted;
  }
  for (const auto& [id, info] : retired_) {
    if (id == t.id) return info.state;
  }
  // Evicted from the retired ring, or never issued here: a defined
  // error either way — stale ticket state is never served. In strict
  // mode the verifier's ServeViolationError pre-empts the throw below.
  auto& sv = check::serve_verifier();
  if (sv.enabled()) {
    sv.on_poll_miss(this, short_name(), t.id, next_ticket_ - 1, now_s);
  }
  throw std::out_of_range("poll: unknown ticket " + std::to_string(t.id));
}

TicketInfo Target::info(Ticket t) const {
  if (const TicketRec* rec = find(t)) return rec->info;
  for (const auto& [id, info] : retired_) {
    if (id == t.id) return info;
  }
  auto& sv = check::serve_verifier();
  if (sv.enabled()) {
    sv.on_poll_miss(this, short_name(), t.id, next_ticket_ - 1, horizon_s_);
  }
  throw std::out_of_range("info: unknown ticket " + std::to_string(t.id));
}

TimedRun Target::wait(Ticket t) {
  const auto it = tickets_.find(t.id);
  if (it == tickets_.end()) {
    auto& sv = check::serve_verifier();
    for (const auto& [id, info] : retired_) {
      if (id == t.id) {
        if (sv.enabled()) {
          sv.on_wait_retired(this, short_name(), t.id,
                             ticket_state_name(info.state), horizon_s_);
        }
        throw std::logic_error(std::string("wait: ticket ") +
                               std::to_string(t.id) + " already " +
                               ticket_state_name(info.state));
      }
    }
    if (sv.enabled()) {
      sv.on_wait_miss(this, short_name(), t.id, next_ticket_ - 1, horizon_s_);
    }
    throw std::out_of_range("wait: unknown ticket " + std::to_string(t.id));
  }
  if (it->second.error) {
    std::exception_ptr error = it->second.error;
    retire(t.id, TicketState::kFailed);
    std::rethrow_exception(error);
  }
  TimedRun run = std::move(it->second.run);
  retire(t.id, TicketState::kCompleted);
  return run;
}

bool Target::cancel(Ticket t) {
  if (tickets_.find(t.id) == tickets_.end()) {
    // Cancelling a retired ticket is the documented drain idiom; only
    // an id this target never issued is a caller bug.
    auto& sv = check::serve_verifier();
    if (sv.enabled()) {
      sv.on_cancel_miss(this, short_name(), t.id, next_ticket_ - 1,
                        horizon_s_);
    }
    return false;
  }
  retire(t.id, TicketState::kCancelled);
  return true;
}

int Target::cancel_outstanding() {
  int n = 0;
  while (!tickets_.empty()) {
    retire(tickets_.begin()->first, TicketState::kCancelled);
    ++n;
  }
  return n;
}

void Target::retire(std::uint64_t id, TicketState final_state) {
  const auto it = tickets_.find(id);
  TicketInfo info = it->second.info;
  info.state = final_state;
  tickets_.erase(it);
  retired_.emplace_back(id, info);
  while (retired_.size() > kRetiredKept) retired_.pop_front();
}

TimedRun Target::run_timed(std::int64_t images, int batch) {
  // The synchronous call every bench and figure is built on: one
  // submission at the latest completion seen, retrieved immediately.
  return wait(submit(images, batch, horizon_s_));
}

}  // namespace ncsw::core
