#include "serve/zoo_serve.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>

#include "check/serve_check.h"
#include "serve/arrivals.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::serve {

namespace {

/// One request's lifecycle; `outcome` is final once the request leaves
/// its queue (dispatched requests become kCompleted at their ticket).
struct Rec {
  ZooRequest req;
  Outcome outcome = Outcome::kCompleted;
  bool queued = false;  ///< in its (model, class) queue right now
  double dispatch_s = 0.0;
  double complete_s = 0.0;
};

/// Scheduling priority of a queue head: class first (interactive jumps
/// ahead of batch regardless of age), then arrival, then model index as
/// the deterministic tie-break.
struct HeadKey {
  bool has = false;
  int cls = 0;
  double arrival_s = 0.0;
  int model = 0;

  bool before(const HeadKey& o) const noexcept {
    if (has != o.has) return has;
    if (cls != o.cls) return cls < o.cls;
    if (arrival_s != o.arrival_s) return arrival_s < o.arrival_s;
    return model < o.model;
  }
  bool operator==(const HeadKey&) const = default;
};

/// A model's cached head and residency copy count, for the strict check.
std::string describe(const HeadKey& key, int copies) {
  std::string out = "{";
  out += key.has ? "head class " + std::to_string(key.cls) + " arrival " +
                       std::to_string(key.arrival_s)
                 : std::string("no head");
  return out + ", copies " + std::to_string(copies) + "}";
}

/// One outstanding ticket on one stick.
struct Flight {
  bool active = false;
  core::Ticket ticket;
  int model = -1;
  std::vector<std::size_t> recs;
  double dispatch_s = 0.0;
  double complete_s = 0.0;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ZooServer::ZooServer(core::StickFleet& fleet, ZooConfig config)
    : fleet_(fleet), config_(config) {
  if (config_.queue_capacity < 1) config_.queue_capacity = 1;
  if (config_.max_batch < 1) {
    throw std::invalid_argument("ZooServer: max_batch < 1");
  }
  if (!(config_.queue_deadline_s > 0.0)) {
    throw std::invalid_argument("ZooServer: queue_deadline_s <= 0");
  }
}

ZooReport ZooServer::run(const std::vector<ZooRequest>& requests) {
  const int K = fleet_.devices();
  const int M = fleet_.models();

  // The residency manager mirrors the fleet's current placement and
  // prices evictions with the fleet's calibrated swap-in costs.
  ResidencyManager rm(K, M, config_.residency);
  for (int m = 0; m < M; ++m) rm.set_swap_cost(m, fleet_.swap_in_cost_s(m));
  for (int d = 0; d < K; ++d) {
    if (fleet_.resident_model(d) >= 0) {
      rm.install(d, fleet_.resident_model(d), 0.0);
    }
  }

  std::vector<Rec> recs;
  recs.reserve(requests.size());
  // queues[m][c]: FIFO of record indices for model m, class c. Per-class
  // sub-queues keep the head of each (model, class) pair the earliest
  // deadline of that pair, so deadline drops only ever scan heads.
  std::vector<std::array<std::deque<std::size_t>, kSloClassCount>> queues(
      static_cast<std::size_t>(M));
  std::size_t queued_total = 0;
  std::array<std::size_t, kSloClassCount> queued_by_class{};
  // The oldest record still queued (every record before it has left its
  // queue). `recs` is in arrival order, so it heads its queue and has
  // the earliest deadline of any queued request.
  std::size_t oldest = 0;

  std::vector<Flight> flights(static_cast<std::size_t>(K));
  std::vector<double> busy_until(static_cast<std::size_t>(K), 0.0);
  std::vector<char> swap_pending(static_cast<std::size_t>(K), 0);

  ZooReport report;
  report.models.resize(static_cast<std::size_t>(M));
  for (int m = 0; m < M; ++m) report.models[m].name = fleet_.model_name(m);

  require_finite_sorted(requests, "ZooServer");
  for (const auto& r : requests) {
    if (r.model < 0 || r.model >= M) {
      throw std::invalid_argument("ZooServer: model index out of range");
    }
  }
  report.first_arrival_s = requests.empty() ? 0.0 : requests[0].arrival_s;

  // The serving verifier's mode is resolved once per run: with it off, a
  // dispatch builds none of the hook's name strings.
  auto& sv = check::serve_verifier();
  const bool checking = sv.enabled();

  const auto head_key = [&](int m) {
    HeadKey key;
    for (int c = 0; c < static_cast<int>(kSloClassCount); ++c) {
      const auto& q = queues[m][c];
      if (q.empty()) continue;
      key.has = true;
      key.cls = c;
      key.arrival_s = recs[q.front()].req.arrival_s;
      key.model = m;
      return key;
    }
    return key;
  };
  // heads[m] == head_key(m) at all times: refreshed at the three places
  // that change queues[m] (admission, dispatch, drop).
  std::vector<HeadKey> heads(static_cast<std::size_t>(M));
  const auto refresh_head = [&](int m) { heads[m] = head_key(m); };

  // Strict mode compares each cached head and residency copy count with
  // a fresh scan at every pass; a stale entry's report names the model
  // where the cluster's names a node.
  std::uint64_t cache_checks = 0;
  const auto check_caches = [&](double now) {
    for (int m = 0; m < M; ++m) {
      const HeadKey fresh = head_key(m);
      const int copies = static_cast<int>(rm.sticks_of(m).size());
      ++cache_checks;
      if (heads[m] != fresh || rm.copies(m) != copies) {
        sv.on_stale_event_cache(
            "zoo",
            "model " + std::to_string(m) + " cached " +
                describe(heads[m], rm.copies(m)) + " but a fresh scan reads " +
                describe(fresh, copies) +
                "; a queue or residency change missed its refresh",
            now);
      }
    }
  };

  const auto stick_free = [&](int d, double now) {
    return !flights[d].active && busy_until[d] <= now;
  };

  // One scheduling pass at `now`: repeatedly take the best-priority
  // action (dispatch resident work, or swap a missing model in) until
  // no free stick can make progress. Every action consumes a free
  // stick and needs a queued head, so the pass terminates, and it ends
  // at once when either is missing.
  const auto pass = [&](double now) {
    if (checking) check_caches(now);
    for (;;) {
      if (queued_total == 0) return;
      HeadKey best;
      int best_stick = -1;
      bool best_is_swap = false;
      bool any_free = false;
      for (int d = 0; d < K; ++d) {
        if (!stick_free(d, now)) continue;
        any_free = true;
        const int r = fleet_.resident_model(d);
        if (r < 0) continue;
        const HeadKey& key = heads[r];
        if (key.has && key.before(best)) {
          best = key;
          best_stick = d;
          best_is_swap = false;
        }
      }
      if (!any_free) return;
      for (int m = 0; m < M; ++m) {
        const HeadKey& key = heads[m];
        if (!key.has || !key.before(best) || rm.is_resident(m)) continue;
        const SwapPlan plan = rm.plan_swap(m, now);
        if (plan.stick < 0 || !stick_free(plan.stick, now)) continue;
        best = key;
        best_stick = plan.stick;
        best_is_swap = true;
      }
      if (!best.has) return;

      if (best_is_swap) {
        // swap_to drains + deallocates + allocates under the verifiers
        // and emits the swap trace span on the stick's lane.
        const double done = fleet_.swap_to(best_stick, best.model, now);
        rm.install(best_stick, best.model, done);
        report.swaps += 1;
        report.swap_stall_s += done - now;
        report.models[best.model].swaps_in += 1;
        busy_until[best_stick] = done;
        swap_pending[best_stick] = 1;
        continue;
      }

      Flight& f = flights[best_stick];
      f.recs.clear();
      for (int c = 0; c < static_cast<int>(kSloClassCount) &&
                      static_cast<int>(f.recs.size()) < config_.max_batch;
           ++c) {
        auto& q = queues[best.model][c];
        while (!q.empty() &&
               static_cast<int>(f.recs.size()) < config_.max_batch) {
          f.recs.push_back(q.front());
          recs[q.front()].queued = false;
          q.pop_front();
          --queued_total;
          --queued_by_class[c];
        }
      }
      refresh_head(best.model);
      if (checking) {
        sv.on_zoo_dispatch(fleet_.stick(best_stick).short_name(),
                           fleet_.model_name(fleet_.resident_model(best_stick)),
                           fleet_.model_name(best.model), now);
      }
      auto& stick = fleet_.stick(best_stick);
      f.ticket = stick.submit(static_cast<std::int64_t>(f.recs.size()),
                              /*batch=*/1, now);
      const auto info = stick.info(f.ticket);
      f.active = true;
      f.model = best.model;
      f.dispatch_s = now;
      f.complete_s = info.complete_s;
      busy_until[best_stick] = info.complete_s;
      rm.touch(best_stick, now);
      for (const std::size_t i : f.recs) recs[i].dispatch_s = now;
    }
  };

  auto& tr = util::tracer();
  std::size_t next_arrival = 0;
  double end_s = report.first_arrival_s;
  double last_stall = -kInf;

  const bool deadlines = std::isfinite(config_.queue_deadline_s);
  EventPicker picker(kZooEventOrder);
  for (;;) {
    picker.clear();
    for (int d = 0; d < K; ++d) {
      if (flights[d].active) {
        picker.offer(LoopEventKind::kComplete, d, flights[d].complete_s);
      }
      if (swap_pending[d]) {
        picker.offer(LoopEventKind::kReady, d, busy_until[d]);
      }
    }
    if (queued_total > 0 && deadlines) {
      // The oldest queued record heads its queue and is due first, at
      // d0. Only heads due at d0 can win or tie, so only they are
      // offered. They lie in the run of records from `oldest` whose
      // deadline is d0 (deadline, not arrival: two arrivals can round
      // to one deadline). A run longer than there are queues (a burst)
      // reads the queue heads instead, so no event costs more than
      // offering every head. The head read alone would be exact too;
      // the walk is kept because it is faster (docs/performance.md,
      // "Walk or head read").
      while (!recs[oldest].queued) ++oldest;
      const auto deadline = [&](std::size_t i) {
        return recs[i].req.arrival_s + config_.queue_deadline_s;
      };
      const double d0 = deadline(oldest);
      const std::size_t cap = std::min(
          recs.size(), oldest + static_cast<std::size_t>(M * kSloClassCount));
      std::size_t end = oldest;
      while (end < cap && deadline(end) == d0) ++end;
      if (end == cap && end < recs.size() && deadline(end) == d0) {
        for (int m = 0; m < M; ++m) {
          for (int c = 0; c < kSloClassCount; ++c) {
            const auto& q = queues[m][c];
            if (q.empty() || deadline(q.front()) != d0) continue;
            picker.offer(LoopEventKind::kDrop, m * kSloClassCount + c, d0);
          }
        }
      } else {
        for (std::size_t i = oldest; i < end; ++i) {
          const int m = recs[i].req.model;
          const int c = static_cast<int>(recs[i].req.slo);
          if (!recs[i].queued || queues[m][c].front() != i) continue;
          picker.offer(LoopEventKind::kDrop, m * kSloClassCount + c, d0);
        }
      }
    }
    if (next_arrival < requests.size()) {
      picker.offer(LoopEventKind::kArrive, 0,
                   requests[next_arrival].arrival_s);
    }
    const auto ev = picker.pick();
    if (!ev) {
      if (queued_total == 0) break;
      // All sticks idle, queued work not resident, every stick inside
      // its hysteresis window: advance to the earliest unlock.
      const double now = std::max(end_s, rm.earliest_unlock_s());
      if (now == last_stall) {
        throw std::logic_error("ZooServer: scheduler stalled");
      }
      last_stall = now;
      pass(now);
      continue;
    }
    const double now = ev->t;
    if (ev->kind == LoopEventKind::kComplete) {
      const int stick = ev->index;
      Flight& f = flights[stick];
      fleet_.stick(stick).wait(f.ticket);
      for (const std::size_t i : f.recs) recs[i].complete_s = f.complete_s;
      report.completed += static_cast<std::int64_t>(f.recs.size());
      report.models[f.model].completed +=
          static_cast<std::int64_t>(f.recs.size());
      end_s = std::max(end_s, f.complete_s);
      report.last_complete_s = std::max(report.last_complete_s, f.complete_s);
      if (tr.enabled()) {
        tr.complete("zoo", "batch:" + fleet_.model_name(f.model),
                    tr.lane("zoo " + fleet_.stick(stick).short_name()),
                    f.dispatch_s, f.complete_s,
                    {util::TraceArg::num(
                        "images", static_cast<std::int64_t>(f.recs.size()))});
      }
      f.active = false;
      f.recs.clear();
    } else if (ev->kind == LoopEventKind::kReady) {
      swap_pending[ev->index] = 0;
      end_s = std::max(end_s, now);
    } else if (ev->kind == LoopEventKind::kDrop) {
      const int drop_model = ev->index / kSloClassCount;
      const int drop_class = ev->index % kSloClassCount;
      auto& q = queues[drop_model][drop_class];
      const std::size_t i = q.front();
      q.pop_front();
      --queued_total;
      --queued_by_class[drop_class];
      refresh_head(drop_model);
      recs[i].queued = false;
      recs[i].outcome = Outcome::kDropped;
      recs[i].complete_s = now;
      report.dropped += 1;
      end_s = std::max(end_s, now);
    } else {
      const ZooRequest& req = requests[next_arrival++];
      report.offered += 1;
      report.models[req.model].offered += 1;
      const int cls = static_cast<int>(req.slo);
      const bool admit = queued_total < config_.queue_capacity &&
                         queued_by_class[cls] < config_.class_quota[cls];
      recs.push_back(Rec{req, Outcome::kCompleted, admit, 0.0, 0.0});
      if (!admit) {
        recs.back().outcome = Outcome::kRejected;
        recs.back().complete_s = req.arrival_s;
        report.rejected += 1;
      } else {
        report.accepted += 1;
        // Admission-time residency is the hit/miss the tenant observes:
        // resident -> the request can run without a swap in front of it.
        if (rm.is_resident(req.model)) {
          report.hits += 1;
        } else {
          report.misses += 1;
        }
        queues[req.model][cls].push_back(recs.size() - 1);
        ++queued_total;
        ++queued_by_class[cls];
        refresh_head(req.model);
      }
      end_s = std::max(end_s, req.arrival_s);
    }

    pass(now);
  }

  // ------------------------------------------------------------ finish
  if (checking) sv.on_event_cache_checked(cache_checks);
  OutcomeRollup rollup;
  for (const auto& r : recs) {
    const double ms = (r.complete_s - r.req.arrival_s) * 1e3;
    if (r.outcome == Outcome::kCompleted) report.latency_ms.add(ms);
    rollup.add(r.req.slo, r.outcome, ms);
  }
  rollup.finish(report);
  report.installs = fleet_.installs();
  report.evicts = fleet_.evicts();
  report.resident = fleet_.resident_count();

  auto& metrics = util::metrics();
  metrics.counter("serve.zoo.offered").add(report.offered);
  metrics.counter("serve.zoo.completed").add(report.completed);
  metrics.counter("serve.zoo.hits").add(report.hits);
  metrics.counter("serve.zoo.misses").add(report.misses);

  sv.on_zoo_finish("zoo", report.offered, report.completed, report.rejected,
                   report.dropped, report.installs, report.evicts,
                   report.resident, end_s);

  if (tr.enabled()) {
    tr.complete(
        "zoo", "zoo run", tr.lane("zoo sched"), report.first_arrival_s, end_s,
        {util::TraceArg::num("offered", report.offered),
         util::TraceArg::num("accepted", report.accepted),
         util::TraceArg::num("completed", report.completed),
         util::TraceArg::num("rejected", report.rejected),
         util::TraceArg::num("dropped", report.dropped),
         util::TraceArg::num("hits", report.hits),
         util::TraceArg::num("misses", report.misses),
         util::TraceArg::num("swaps", report.swaps)});
  }
  return report;
}

}  // namespace ncsw::serve
