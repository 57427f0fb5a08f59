#include "cluster/cluster.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "check/serve_check.h"
#include "serve/arrivals.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::cluster {

const char* request_state_name(RequestState s) {
  switch (s) {
    case RequestState::kCompleted: return "completed";
    case RequestState::kRejected: return "rejected";
    case RequestState::kDeadline: return "deadline";
    case RequestState::kLost: return "lost";
  }
  return "?";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Kind = serve::LoopEventKind;

/// Cluster-side lifetime of one request id across all of its copies
/// (the original, failover replays, and hedge duplicates). Ledgers, like
/// the events below, are indexed by the request's position in the
/// trace, which also holds the payload replays and hedges re-offer.
struct Ledger {
  int model = 0;             ///< interned model index
  int live = 0;              ///< copies currently queued or in flight
  int replays = 0;
  int hedges = 0;
  int last_node = -1;        ///< node holding the newest copy
  bool completed = false;    ///< first completion already delivered
  bool terminal = false;     ///< rejected / deadline-dropped, no retry
  RequestState state = RequestState::kLost;
  double finish_s = -1.0;
  int node = -1;             ///< completing node
  double evicted_s = -1.0;   ///< last failover eviction time
};

/// A request termination reported by a node session, queued for
/// processing after the session call returns (observer callbacks must
/// not re-enter the session).
struct FinEvent {
  std::size_t pos = 0;
  serve::Outcome outcome = serve::Outcome::kCompleted;
  serve::DropReason reason = serve::DropReason::kNone;
  double at_s = 0.0;
  int node = -1;
};

/// An armed hedge: fires when a dispatched copy's promised completion
/// has slipped by hedge_slack_s. `seq` breaks fire-time ties in
/// arming order, keeping the replay deterministic.
struct HedgeTimer {
  double fire_s = 0.0;
  std::int64_t seq = 0;
  std::size_t pos = 0;
  int node = -1;  ///< node the armed copy was dispatched on

  bool operator>(const HedgeTimer& o) const noexcept {
    if (fire_s != o.fire_s) return fire_s > o.fire_s;
    return seq > o.seq;
  }
};

/// A request awaiting failover replay; `evicted_s` feeds the failover
/// latency rollup when the replayed copy completes.
struct ReplayItem {
  std::size_t pos = 0;
  double evicted_s = 0.0;
};

/// One node's scheduled events, in kClusterEventOrder with the
/// unscheduled ones left out: what the loop offers the picker for it.
struct NodeEvents {
  /// complete, drop, fault, probe, ready, flush
  static constexpr int kMax = 6;
  std::array<std::pair<Kind, double>, kMax> ev{};
  int n = 0;
  bool stale = true;  ///< the node changed since `ev` was read

  /// t = +inf (or NaN) means "not scheduled", as for EventPicker::offer.
  void add(Kind kind, double t) {
    if (t < kInf) ev[static_cast<std::size_t>(n++)] = {kind, t};
  }
  bool same_events(const NodeEvents& o) const {
    return n == o.n && std::equal(ev.begin(), ev.begin() + n, o.ev.begin());
  }
  std::string describe() const {
    std::string out = "{";
    for (int i = 0; i < n; ++i) {
      const auto& [kind, t] = ev[static_cast<std::size_t>(i)];
      if (i > 0) out += ", ";
      out += std::string(serve::loop_event_kind_name(kind)) + "@" +
             std::to_string(t);
    }
    return out + "}";
  }
};

}  // namespace

Cluster::Cluster(std::vector<std::vector<core::Target*>> node_targets,
                 ClusterConfig config)
    : config_(config), node_targets_(std::move(node_targets)) {
  if (node_targets_.empty()) {
    throw std::invalid_argument("Cluster: no nodes");
  }
  if (config_.models < 1) {
    throw std::invalid_argument("Cluster: models must be >= 1");
  }
  if (config_.max_hedges < 0) {
    throw std::invalid_argument("Cluster: max_hedges must be >= 0");
  }
  if (!(config_.residency_load_s >= 0.0)) {
    throw std::invalid_argument("Cluster: bad residency_load_s");
  }
  if (!(config_.node_prior_tput > 0.0)) {
    throw std::invalid_argument("Cluster: node_prior_tput must be > 0");
  }
  if (!(config_.node_gain > 0.0) || config_.node_gain > 1.0) {
    throw std::invalid_argument("Cluster: node_gain must be in (0, 1]");
  }
  config_.replication = std::max(
      1, std::min(config_.replication,
                  static_cast<int>(node_targets_.size())));
  config_.node.trace_requests = config_.trace_requests;
}

ClusterReport Cluster::run(const std::vector<serve::Request>& requests) {
  serve::require_finite_sorted(requests, "Cluster::run");

  const int n_nodes = static_cast<int>(node_targets_.size());
  ClusterReport report;
  HashRing ring(n_nodes, config_.vnodes, config_.ring_seed);

  // ---- ingestion: ids in order, model key -> index ----
  // Requests are carried by trace position: it is each node session's
  // key for them, and ledgers and events are indexed by it. Records come
  // out in id order, so the positions are sorted by id here (no sort
  // when the trace's ids already ascend); equal ids end up adjacent
  // either way, which is where a duplicate is caught, before any
  // session exists.
  std::vector<std::size_t> by_id(requests.size());
  std::iota(by_id.begin(), by_id.end(), std::size_t{0});
  const auto id_less = [&](std::size_t a, std::size_t b) {
    return requests[a].id < requests[b].id;
  };
  if (!std::is_sorted(by_id.begin(), by_id.end(), id_less)) {
    std::sort(by_id.begin(), by_id.end(), id_less);
  }
  const auto same_id = [&](std::size_t a, std::size_t b) {
    return requests[a].id == requests[b].id;
  };
  if (std::adjacent_find(by_id.begin(), by_id.end(), same_id) !=
      by_id.end()) {
    throw std::invalid_argument("Cluster::run: duplicate request id");
  }
  // A request's model key is its tag, or "m<id % models>" when the tag
  // is empty; the default catalogue "m0".."m<models-1>" takes indices
  // 0..models-1. Every later lookup is by position and index.
  std::vector<Ledger> ledger(requests.size());
  std::unordered_map<std::string, int> model_index;
  std::vector<std::uint64_t> model_hash;  // ring key of each model
  auto intern = [&](const std::string& key) {
    auto [it, fresh] =
        model_index.try_emplace(key, static_cast<int>(model_hash.size()));
    if (fresh) model_hash.push_back(HashRing::hash_key(key));
    return it->second;
  };
  for (int m = 0; m < config_.models; ++m) intern("m" + std::to_string(m));
  const auto models = static_cast<std::int64_t>(config_.models);
  for (std::size_t p = 0; p < requests.size(); ++p) {
    const serve::Request& req = requests[p];
    ledger[p].model = intern(
        req.tag.empty() ? "m" + std::to_string(req.id % models) : req.tag);
  }
  const int n_models = static_cast<int>(model_hash.size());

  // The serving verifier (check/serve_check.h) shadows the ledger:
  // first-completion-wins delivery, live-copy counts, and end-of-run
  // conservation. Every hook is a no-op in kOff mode; the mode is
  // resolved once per run, not once per hook.
  auto& sv = check::serve_verifier();
  sv.on_cluster_begin();
  const bool checking = sv.enabled();

  auto& reg = util::metrics();
  util::Counter& m_offered = reg.counter("cluster.offered");
  util::Counter& m_completed = reg.counter("cluster.completed");
  util::Counter& m_rejected = reg.counter("cluster.rejected");
  util::Counter& m_replays = reg.counter("cluster.replays");
  util::Counter& m_hedges = reg.counter("cluster.hedges");
  util::Counter& m_duplicates = reg.counter("cluster.duplicates");
  util::Counter& m_kills = reg.counter("cluster.node_kills");
  util::Counter& m_rejoins = reg.counter("cluster.node_rejoins");
  util::Counter& m_parked = reg.counter("cluster.parked");
  util::Counter& m_spills = reg.counter("cluster.spills");
  util::Gauge& g_up = reg.gauge("cluster.nodes_up");

  auto& tr = util::tracer();
  int sched_lane = -1, event_lane = -1;
  if (tr.enabled()) {
    sched_lane = tr.lane("cluster sched");
    event_lane = tr.lane("cluster events");
  }
  auto instant = [&](const char* name, double t) {
    if (tr.enabled() && event_lane >= 0) {
      tr.instant("cluster", name, event_lane, t);
    }
  };

  // ---- shared event state (filled by observers, drained between
  // session calls; observers never re-enter a session) ----
  std::deque<FinEvent> fins;
  std::deque<ReplayItem> replays;
  std::deque<ReplayItem> parked;
  std::priority_queue<HedgeTimer, std::vector<HedgeTimer>,
                      std::greater<HedgeTimer>>
      hedges;
  std::int64_t hedge_seq = 0;

  /// Per-node runtime state around its serve::Session.
  struct NodeState {
    std::optional<serve::Session> session;
    std::optional<core::StickHealth> health;
    sim::FaultTimeline timeline;
    std::vector<sim::FaultEvent> fault_starts;  ///< node windows, sorted
    std::size_t fault_cursor = 0;
    bool up = true;
    bool rejoin_pending = false;  ///< probe passed; reloading graphs
    double ready_s = kInf;
    double tput_est = 0.0;
    bool observed = false;
    int resident_models = 0;
    NodeReport stats;
  };
  // Each node's events are cached in `events` and re-read only when the
  // node is stale. The rule that keeps the cache exact: every mutable
  // access to a node (its session, health or event state) goes through
  // `node_mut`, which marks it stale; everything else reads the const
  // view `nodes`. The one other writer is the node's observer, which
  // updates health and the throughput estimate only from inside that
  // node's own session calls, each made through node_mut.
  std::vector<NodeState> node_store(static_cast<std::size_t>(n_nodes));
  const std::vector<NodeState>& nodes = node_store;
  std::vector<NodeEvents> events(static_cast<std::size_t>(n_nodes));
  auto node_mut = [&](int n) -> NodeState& {
    events[static_cast<std::size_t>(n)].stale = true;
    return node_store[static_cast<std::size_t>(n)];
  };

  struct NodeObserver : serve::Session::Observer {
    int node = -1;
    NodeState* ns = nullptr;
    std::deque<FinEvent>* fins = nullptr;
    std::priority_queue<HedgeTimer, std::vector<HedgeTimer>,
                        std::greater<HedgeTimer>>* hedges = nullptr;
    std::vector<Ledger>* ledger = nullptr;
    std::int64_t* hedge_seq = nullptr;
    double hedge_slack_s = 0.0;
    int max_hedges = 0;
    double gain = 0.25;

    void on_dispatched(std::size_t pos, double /*dispatch_s*/,
                       double promised_complete_s) override {
      Ledger& led = (*ledger)[pos];
      led.last_node = node;
      // Arm a hedge against the *promised* completion: if the node
      // wedges, the observed completion slips past this timer and the
      // duplicate fires; if the promise holds, the timer is a no-op.
      if (hedge_slack_s > 0.0 && led.hedges < max_hedges) {
        hedges->push({promised_complete_s + hedge_slack_s, (*hedge_seq)++,
                      pos, node});
      }
    }
    void on_batch_completed(int /*target*/, double dispatch_s,
                            double complete_s,
                            std::int64_t completed) override {
      // Node-granularity feedback: the same clearing-rate EWMA the
      // dispatcher runs per target, lifted to the node. Dispatch-to-
      // observed-completion, so a wedge slip sinks the estimate.
      const double dur = complete_s - dispatch_s;
      if (dur > 0.0) {
        const double obs = static_cast<double>(completed) / dur;
        if (!ns->observed) {
          ns->tput_est = obs;
          ns->observed = true;
        } else {
          ns->tput_est = (1.0 - gain) * ns->tput_est + gain * obs;
        }
      }
      ns->health->on_success();
    }
    void on_finished(std::size_t pos, serve::Outcome outcome,
                     serve::DropReason reason, double at_s) override {
      fins->push_back({pos, outcome, reason, at_s, node});
    }
  };
  std::vector<NodeObserver> observers(static_cast<std::size_t>(n_nodes));

  for (int i = 0; i < n_nodes; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    NodeState& ns = node_mut(i);
    NodeObserver& ob = observers[ui];
    ob.node = i;
    ob.ns = &ns;
    ob.fins = &fins;
    ob.hedges = &hedges;
    ob.ledger = &ledger;
    ob.hedge_seq = &hedge_seq;
    ob.hedge_slack_s = config_.hedge_slack_s;
    ob.max_hedges = config_.max_hedges;
    ob.gain = config_.node_gain;

    ns.timeline = config_.faults.timeline_for(i);
    for (const auto& ev : ns.timeline.events()) {
      if (ev.kind == sim::FaultKind::kNodeCrash ||
          ev.kind == sim::FaultKind::kNodeWedge) {
        ns.fault_starts.push_back(ev);
      }
    }
    ns.health.emplace(i, config_.node_health);
    ns.tput_est = config_.node_prior_tput;
    // Wedge windows slip every completion promised inside them to the
    // window's end — the node accepts work but delivers none meanwhile.
    const sim::FaultTimeline tl = ns.timeline;
    ns.session.emplace(node_targets_[ui], config_.node,
                       "n" + std::to_string(i), &ob, [tl](double t) {
                         return tl.clear_of(sim::FaultKind::kNodeWedge, t);
                       });
  }
  g_up.set(static_cast<double>(n_nodes));

  // ---- model index -> replica preference lists ----
  // Placed on a model's first use: a model outside the default
  // catalogue becomes resident on its replicas (and lengthens their
  // rejoin) only from its first arrival on.
  std::vector<std::vector<int>> prefs_of(static_cast<std::size_t>(n_models));
  auto prefs_for = [&](int model) -> const std::vector<int>& {
    auto& prefs = prefs_of[static_cast<std::size_t>(model)];
    if (prefs.empty()) {
      prefs = ring.preference(model_hash[static_cast<std::size_t>(model)],
                              config_.replication);
      for (const int n : prefs) ++node_mut(n).resident_models;
    }
    return prefs;
  };
  // Pre-warm the default catalogue so rejoin residency costs are known
  // up front and independent of arrival order.
  for (int m = 0; m < config_.models; ++m) prefs_for(m);

  auto eligible = [&](int n) {
    const NodeState& ns = nodes[static_cast<std::size_t>(n)];
    return ns.up && ns.health->schedulable();
  };
  // Route within the replica set: unobserved nodes first (explore),
  // then the least expected wait (queued + in-flight work over the
  // node's clearing-rate estimate); ties keep ring preference order.
  // Capacity is judged per class: a node whose queue has room but whose
  // class quota for this request is exhausted does not count. `exclude`
  // keeps a hedge off the node it is hedging.
  auto pick_node = [&](const std::vector<int>& prefs, bool need_capacity,
                       serve::SloClass slo, int exclude = -1) {
    int best = -1;
    bool best_unobs = false;
    double best_wait = kInf;
    for (const int n : prefs) {
      if (n == exclude || !eligible(n)) continue;
      const NodeState& ns = nodes[static_cast<std::size_t>(n)];
      if (need_capacity && !ns.session->has_capacity_for(slo)) continue;
      const bool unobs = !ns.observed;
      const double backlog = static_cast<double>(ns.session->queue_depth() +
                                                 ns.session->inflight());
      const double wait = backlog / ns.tput_est;
      if (best < 0 || (unobs && !best_unobs) ||
          (unobs == best_unobs && wait < best_wait)) {
        best = n;
        best_unobs = unobs;
        best_wait = wait;
      }
    }
    return best;
  };

  // Overflow routing off the ring: the replica set is capacity-blind,
  // so when all replicas of a model are saturated (or down) a request
  // may run on any healthy node; that node warms the model and counts
  // as resident from then on (it pays the graph re-load on rejoin).
  std::vector<int> all_nodes(static_cast<std::size_t>(n_nodes));
  for (int i = 0; i < n_nodes; ++i) all_nodes[static_cast<std::size_t>(i)] = i;
  // spill_resident[node * n_models + model]: spilled there at least once.
  std::vector<unsigned char> spill_resident(
      static_cast<std::size_t>(n_nodes) * static_cast<std::size_t>(n_models));
  auto pick_spill = [&](int model, bool need_capacity, serve::SloClass slo,
                        double t) {
    if (!config_.spill) return -1;
    const int n = pick_node(all_nodes, need_capacity, slo);
    if (n < 0) return -1;
    unsigned char& resident =
        spill_resident[static_cast<std::size_t>(n) *
                           static_cast<std::size_t>(n_models) +
                       static_cast<std::size_t>(model)];
    if (!resident) {
      resident = 1;
      ++node_mut(n).resident_models;
    }
    ++report.requests_spilled;
    m_spills.add(1);
    instant("spill", t);
    return n;
  };

  double now = 0.0;

  // Failover: every request a dead or quarantined node was holding is
  // re-offered to a live replica (force = the replica must not bounce
  // it) or parked until a replica rejoins. Zero requests lost.
  auto evict_node = [&](int n, double t) {
    NodeState& ns = node_mut(n);
    const auto evicted = ns.session->evict_all(t);
    ns.stats.evicted += static_cast<std::int64_t>(evicted.size());
    for (const std::size_t pos : evicted) {
      Ledger& led = ledger[pos];
      --led.live;
      if (checking) sv.on_ledger_live(requests[pos].id, led.live, t);
      if (!led.completed && !led.terminal) {
        led.evicted_s = t;
        replays.push_back({pos, t});
      }
    }
  };

  // Process queued terminations and failover replays until quiescent.
  // Replaying into a session can surface further terminations (the
  // deadline sweep runs on admission), so loop to a fixed point.
  auto drain = [&](double t) {
    while (!fins.empty() || !replays.empty()) {
      while (!fins.empty()) {
        const FinEvent ev = fins.front();
        fins.pop_front();
        const serve::Request& req = requests[ev.pos];
        Ledger& led = ledger[ev.pos];
        --led.live;
        if (checking) sv.on_ledger_live(req.id, led.live, t);
        switch (ev.outcome) {
          case serve::Outcome::kCompleted:
            if (!led.completed) {
              if (checking) {
                sv.on_ledger_deliver(req.id, ev.node, ev.at_s);
              }
              led.completed = true;
              led.state = RequestState::kCompleted;
              led.finish_s = ev.at_s;
              led.node = ev.node;
              ++report.completed;
              m_completed.add(1);
              const double ms = (ev.at_s - req.arrival_s) * 1e3;
              report.latency_ms.add(ms);
              if (led.evicted_s >= 0.0) {
                report.failover_ms.add((ev.at_s - led.evicted_s) * 1e3);
              }
              report.last_complete_s =
                  std::max(report.last_complete_s, ev.at_s);
            } else {
              ++report.duplicate_completions;
              m_duplicates.add(1);
            }
            break;
          case serve::Outcome::kRejected:
            // Only speculative copies route without force; the
            // original stays live, so nothing terminal happens here.
            break;
          case serve::Outcome::kDropped:
            if (ev.reason == serve::DropReason::kDeadline) {
              // Policy drop, not a fault: the request aged out. It is
              // terminal once no other copy can still complete it.
              if (!led.completed && !led.terminal && led.live <= 0) {
                led.terminal = true;
                led.state = RequestState::kDeadline;
                led.finish_s = ev.at_s;
                ++report.dropped_deadline;
              }
            } else if (!led.completed && !led.terminal) {
              // Lost in flight or abandoned by a failing target:
              // replay it like an eviction.
              led.evicted_s = ev.at_s;
              replays.push_back({ev.pos, ev.at_s});
            }
            break;
        }
      }
      while (!replays.empty()) {
        const ReplayItem item = replays.front();
        replays.pop_front();
        const serve::Request& req = requests[item.pos];
        Ledger& led = ledger[item.pos];
        if (led.completed || led.terminal || led.live > 0) continue;
        int n = pick_node(prefs_for(led.model), /*need_capacity=*/false,
                          req.slo);
        if (n < 0) {
          n = pick_spill(led.model, /*need_capacity=*/false, req.slo, t);
        }
        if (n < 0) {
          parked.push_back(item);
          m_parked.add(1);
          instant("park", t);
          continue;
        }
        ++led.replays;
        ++led.live;
        ++report.requests_replayed;
        m_replays.add(1);
        instant("replay", t);
        node_mut(n).session->offer(req, item.pos, t, /*force=*/true);
      }
    }
  };

  auto unpark_all = [&](double t) {
    while (!parked.empty()) {
      replays.push_back(parked.front());
      parked.pop_front();
    }
    drain(t);
  };

  auto nodes_up = [&] {
    int n = 0;
    for (const auto& ns : nodes) n += ns.up ? 1 : 0;
    return n;
  };

  // A node's whole session failed (every target dead): permanent loss
  // of the node; strand nothing.
  auto node_failed = [&](int n, double t) {
    NodeState& ns = node_mut(n);
    ns.up = false;
    ns.rejoin_pending = false;
    ns.ready_s = kInf;
    ns.health->on_gone(t);
    while (ns.health->state() != core::HealthState::kDead) {
      ns.health->on_probe_failure(t);
    }
    ++report.nodes_dead;
    g_up.set(static_cast<double>(nodes_up()));
    evict_node(n, t);
    drain(t);
  };

  std::size_t next_arrival = 0;
  // Latest fire time of the hedge timers retired below; `now` ends no
  // earlier, as if each had been picked.
  double retired_s = now;

  // What a node's state schedules now; the cache holds its last read.
  auto read_events = [&](const NodeState& ns) {
    NodeEvents ev;
    ev.stale = false;
    ev.add(Kind::kComplete, ns.session->next_complete_s());
    ev.add(Kind::kDrop, ns.session->next_drop_s());
    if (ns.fault_cursor < ns.fault_starts.size()) {
      ev.add(Kind::kFault, ns.fault_starts[ns.fault_cursor].start);
    }
    if (ns.health->state() == core::HealthState::kQuarantined) {
      ev.add(Kind::kProbe, ns.health->next_probe_time());
    }
    if (ns.rejoin_pending) ev.add(Kind::kReady, ns.ready_s);
    ev.add(Kind::kFlush, ns.session->next_flush_s());
    return ev;
  };
  // Strict check of the cache: cached entries compared with a fresh read.
  std::uint64_t cache_checks = 0;

  serve::EventPicker picker(kClusterEventOrder);
  for (;;) {
    // A timer whose request is already completed or terminal (both
    // final) could only fire as a no-op: retire it without an event.
    while (!hedges.empty()) {
      const HedgeTimer& h = hedges.top();
      const Ledger& led = ledger[h.pos];
      if (!led.completed && !led.terminal) break;
      if (h.fire_s < kInf) retired_s = std::max(retired_s, h.fire_s);
      hedges.pop();
    }
    if (checking) {
      for (int i = 0; i < n_nodes; ++i) {
        const NodeEvents& cached = events[static_cast<std::size_t>(i)];
        if (cached.stale) continue;
        ++cache_checks;
        const NodeEvents fresh =
            read_events(nodes[static_cast<std::size_t>(i)]);
        if (!cached.same_events(fresh)) {
          sv.on_stale_event_cache(
              "cluster",
              "node " + std::to_string(i) + " cached events " +
                  cached.describe() + " but its state schedules " +
                  fresh.describe() + "; a mutation missed the node's dirty mark",
              now);
        }
      }
    }
    // Every node's candidates, then the hedge top and the next arrival:
    // the same offers as reading each node afresh, so a tie hook sees
    // the same tie groups.
    picker.clear();
    for (int i = 0; i < n_nodes; ++i) {
      NodeEvents& ev = events[static_cast<std::size_t>(i)];
      if (ev.stale) ev = read_events(nodes[static_cast<std::size_t>(i)]);
      for (int k = 0; k < ev.n; ++k) {
        const auto& [kind, t] = ev.ev[static_cast<std::size_t>(k)];
        picker.offer(kind, i, t);
      }
    }
    if (!hedges.empty()) {
      picker.offer(Kind::kHedge, hedges.top().node, hedges.top().fire_s);
    }
    if (next_arrival < requests.size()) {
      picker.offer(Kind::kArrive, 0, requests[next_arrival].arrival_s);
    }
    const auto ev = picker.pick();
    if (!ev) break;
    const int node = ev->index;
    now = std::max(now, ev->t);

    switch (ev->kind) {
      case Kind::kComplete: {
        NodeState& ns = node_mut(node);
        try {
          ns.session->on_complete(now);
        } catch (...) {
          node_failed(node, now);
          break;
        }
        drain(now);
        break;
      }
      case Kind::kDrop:
        node_mut(node).session->on_drop(now);
        drain(now);
        break;
      case Kind::kFault: {
        NodeState& ns = node_mut(node);
        const sim::FaultEvent fe = ns.fault_starts[ns.fault_cursor++];
        if (fe.kind == sim::FaultKind::kNodeCrash) {
          ns.up = false;
          ns.rejoin_pending = false;
          ns.ready_s = kInf;
          ns.health->on_gone(now);
          ++ns.stats.crashes;
          ++report.node_kills;
          m_kills.add(1);
          g_up.set(static_cast<double>(nodes_up()));
          instant("kill", now);
          evict_node(node, now);
          drain(now);
        } else {  // kNodeWedge: state change is implicit — promised
                  // completions slip via the session's completion map,
                  // and hedges below quarantine the node if it lingers.
          ++ns.stats.wedges;
          ++report.node_wedges;
          instant("wedge", now);
        }
        break;
      }
      case Kind::kProbe: {
        NodeState& ns = node_mut(node);
        const bool still_faulted =
            ns.timeline.active(sim::FaultKind::kNodeCrash, now) != nullptr ||
            ns.timeline.active(sim::FaultKind::kNodeWedge, now) != nullptr;
        if (still_faulted) {
          ns.health->on_probe_failure(now);
          if (ns.health->state() == core::HealthState::kDead) {
            ++report.nodes_dead;
            instant("dead", now);
          }
        } else {
          const bool replug = ns.health->needs_replug();
          ns.health->on_probe_success();
          if (replug) {
            // Crash recovery: the node's resident graphs re-load
            // before it takes traffic again.
            ns.rejoin_pending = true;
            ns.ready_s = now + static_cast<double>(ns.resident_models) *
                                   config_.residency_load_s;
            instant("probe-ok", now);
          } else {
            // Wedge quarantine lift: graphs never left; back in the
            // schedule immediately.
            instant("requalified", now);
            unpark_all(now);
          }
        }
        break;
      }
      case Kind::kReady: {
        NodeState& ns = node_mut(node);
        ns.rejoin_pending = false;
        ns.ready_s = kInf;
        ns.up = true;
        ++ns.stats.rejoins;
        ++report.node_rejoins;
        m_rejoins.add(1);
        g_up.set(static_cast<double>(nodes_up()));
        instant("rejoin", now);
        unpark_all(now);
        break;
      }
      case Kind::kHedge: {
        const HedgeTimer h = hedges.top();
        hedges.pop();
        const serve::Request& req = requests[h.pos];
        Ledger& led = ledger[h.pos];
        // Stale timers (final requests were retired above): the copy
        // moved nodes or was evicted — nothing slipped on this node.
        if (led.live <= 0 || led.last_node != h.node) {
          break;
        }
        if (!eligible(h.node)) break;
        NodeState& slow = node_mut(h.node);
        // The node promised and did not deliver: that is a transient
        // failure at node granularity. Enough of them quarantine the
        // node through the same ladder a flaky stick descends.
        const bool was_schedulable = slow.health->schedulable();
        slow.health->on_transient_failure(now);
        const bool quarantined =
            was_schedulable && !slow.health->schedulable();
        // Deadline-aware duplicate: only hedge when the copy could
        // still beat its queue deadline on another replica, and only
        // for classes up to hedge_max_class — batch work never pays
        // for speculative duplicates.
        const double deadline_s =
            req.arrival_s + config_.node.queue_deadline_s;
        if (led.hedges < config_.max_hedges && now < deadline_s &&
            static_cast<int>(req.slo) <=
                static_cast<int>(config_.hedge_max_class)) {
          const int best = pick_node(prefs_for(led.model),
                                     /*need_capacity=*/true, req.slo, h.node);
          if (best >= 0) {
            ++led.hedges;
            ++led.live;
            ++report.requests_hedged;
            m_hedges.add(1);
            instant("hedge", now);
            node_mut(best).session->offer(req, h.pos, now);
          }
        }
        if (quarantined) {
          instant("quarantine", now);
          evict_node(h.node, now);
        }
        drain(now);
        break;
      }
      case Kind::kArrive: {
        const std::size_t pos = next_arrival++;
        const serve::Request& req = requests[pos];
        Ledger& led = ledger[pos];
        ++report.offered;
        m_offered.add(1);
        int n = pick_node(prefs_for(led.model), /*need_capacity=*/true,
                          req.slo);
        if (n < 0) {
          n = pick_spill(led.model, /*need_capacity=*/true, req.slo, now);
        }
        if (n < 0) {
          // Admission control at cluster granularity: every live
          // replica of this model is saturated (or down).
          led.terminal = true;
          led.state = RequestState::kRejected;
          led.finish_s = now;
          ++report.rejected;
          m_rejected.add(1);
        } else {
          led.live = 1;
          NodeState& ns = node_mut(n);
          ++ns.stats.routed;
          ns.session->offer(req, pos, now);
        }
        drain(now);
        break;
      }
      case Kind::kFlush:
        node_mut(node).session->on_flush(now);
        drain(now);
        break;
    }
  }

  now = std::max(now, retired_s);

  // Whatever is still parked has no replica left to run on.
  for (const auto& item : parked) {
    Ledger& led = ledger[item.pos];
    if (!led.completed && !led.terminal) {
      led.state = RequestState::kLost;
      led.finish_s = now;
    }
  }
  parked.clear();

  // ---- seal the report ----
  if (checking) sv.on_event_cache_checked(cache_checks);
  report.nodes.reserve(nodes.size());
  for (NodeState& ns : node_store) {
    NodeReport nr = std::move(ns.stats);
    nr.serve = ns.session->finish();
    nr.health = core::health_state_name(ns.health->state());
    nr.tput_est = ns.tput_est;
    report.nodes.push_back(std::move(nr));
  }
  // Records come out in id order (`by_id`, from ingestion).
  report.records.reserve(requests.size());
  serve::OutcomeRollup rollup;
  for (const std::size_t pos : by_id) {
    const serve::Request& req = requests[pos];
    const Ledger& led = ledger[pos];
    ClusterRecord rec;
    rec.id = req.id;
    rec.state = led.completed ? RequestState::kCompleted : led.state;
    rec.arrival_s = req.arrival_s;
    rec.finish_s = led.finish_s;
    rec.node = led.node;
    rec.replays = led.replays;
    rec.hedges = led.hedges;
    rec.evicted_s = led.evicted_s;
    if (!led.completed && !led.terminal) {
      rec.state = RequestState::kLost;
      ++report.requests_lost;
    }
    // Deadline drops and lost requests both roll up as dropped.
    const serve::Outcome outcome =
        rec.state == RequestState::kCompleted  ? serve::Outcome::kCompleted
        : rec.state == RequestState::kRejected ? serve::Outcome::kRejected
                                               : serve::Outcome::kDropped;
    rollup.add(req.slo, outcome, (rec.finish_s - rec.arrival_s) * 1e3);
    report.records.push_back(rec);
  }
  rollup.finish(report);
  // Crash replays and hedge duplicates are copies of one ledger entry,
  // so the terminal states must still partition what was admitted.
  if (checking) {
    sv.on_cluster_finish(report.offered, report.completed, report.rejected,
                         report.dropped_deadline, report.requests_lost, now);
  }
  if (!requests.empty()) {
    report.first_arrival_s = requests.front().arrival_s;
  }
  if (tr.enabled() && sched_lane >= 0 && !requests.empty()) {
    tr.complete("cluster", "cluster", sched_lane, report.first_arrival_s,
                std::max(report.last_complete_s, report.first_arrival_s),
                {util::TraceArg::num("offered", report.offered),
                 util::TraceArg::num("completed", report.completed),
                 util::TraceArg::num("rejected", report.rejected),
                 util::TraceArg::num("deadline", report.dropped_deadline),
                 util::TraceArg::num("replayed", report.requests_replayed),
                 util::TraceArg::num("hedged", report.requests_hedged),
                 util::TraceArg::num("duplicates",
                                     report.duplicate_completions),
                 util::TraceArg::num("lost", report.requests_lost),
                 util::TraceArg::num("goodput", report.goodput())});
  }
  return report;
}

}  // namespace ncsw::cluster
