// The always-on serving frontend: admission control + dynamic batching
// + a heterogeneous dispatcher over the paper's Target abstraction.
//
// The paper's Section III closes with applications that "run a specific
// subset of inputs on a GPU, and at the same time another subset on ...
// several VPUs". This layer serves that heterogeneous node online: an
// open-loop stream of requests flows through
//
//   arrivals --> [admission queue] --> [batcher] --> [dispatcher] --> Targets
//                 bounded, reject      size/timeout   online per-target
//                 on full; deadline    hybrid flush   throughput EWMA,
//                 drops                               submit/poll window
//                                                     per target, picks
//                                                     the one that clears
//                                                     work fastest
//
// entirely on the simulated clock: the server is a single-threaded
// discrete-event loop (arrival / ticket-completion / flush-timeout /
// deadline-drop events, ties broken by kServerEventOrder), so a given
// arrival trace always produces byte-identical results. The split
// across targets follows a feedback estimator, not a one-shot plan: when
// a batch returns slow — e.g. the health machinery quarantined a stick
// mid-batch — the target's throughput estimate sinks and the dispatcher
// rebalances the following batches toward the healthy engines.
//
// The dispatcher pipelines over the async Target API
// (docs/async-targets.md): each batch becomes a core::Ticket via
// Target::submit and the event loop advances on ticket completion
// timestamps, so up to inflight_window batches overlap per target — the
// serving-side analogue of NCAPI's LoadTensor/GetResult split — instead
// of the dispatcher blocking on each shard. A target whose ticket fails
// (every stick gone) has its outstanding tickets cancelled and is taken
// out of rotation; the failure only propagates once no target is left.
//
// Observability (schemas in docs/architecture.md): serve.* counters and
// gauges in the metrics registry (incl. per-target serve.inflight.*
// window occupancy), and when the tracer is armed, ticket spans on per-
// window "serve <target> w<k>" lanes, queue instants + a queue-depth
// counter track, and a per-request lifecycle span (request ⊃ queued +
// service) on a bounded pool of "serve slot<k>" lanes so spans on every
// lane nest.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "core/source.h"
#include "core/target.h"
#include "serve/event_picker.h"
#include "util/metrics.h"
#include "util/stats.h"

namespace ncsw::serve {

/// Service-level objective class of a request. Multi-tenant serving
/// (serve::ZooServer, the cluster router) differentiates admission and
/// hedging by class; the plain Server treats every class alike unless
/// ServerConfig::class_quota says otherwise.
enum class SloClass : int {
  kInteractive = 0,  ///< latency-sensitive; hedged, dispatched first
  kStandard = 1,     ///< the default
  kBatch = 2,        ///< throughput work; never hedged, evicted first
};

constexpr int kSloClassCount = 3;

/// Stable lowercase name ("interactive", "standard", "batch").
const char* slo_class_name(SloClass c);

/// One inference request entering the frontend (one image of work).
struct Request {
  std::int64_t id = 0;
  double arrival_s = 0.0;  ///< simulated arrival time (non-decreasing)
  int label = -1;          ///< optional ground-truth passthrough
  std::string tag;         ///< stable identifier for traces / joins
  SloClass slo = SloClass::kStandard;  ///< admission/hedging class
};

/// What became of a request.
enum class Outcome : int {
  kCompleted = 0,  ///< served; latency_s() is meaningful
  kRejected = 1,   ///< bounced at admission (queue full)
  kDropped = 2,    ///< left the queue past its deadline, or lost in-flight
};

/// Stable lowercase name ("completed", "rejected", "dropped").
const char* outcome_name(Outcome o);

/// Why a kDropped request was dropped (kNone otherwise). Admission
/// rejects are a separate Outcome, not a drop reason.
enum class DropReason : int {
  kNone = 0,
  kDeadline,      ///< aged out of the admission queue (queue_deadline_s)
  kInflightLost,  ///< lost mid-batch (every stick died under allow_partial)
  kFailover,      ///< abandoned when its target or node left rotation
};

/// Stable lowercase name ("none", "deadline", "inflight-lost", "failover").
const char* drop_reason_name(DropReason r);

/// Per-request lifecycle log entry.
struct RequestRecord {
  Request request;
  Outcome outcome = Outcome::kCompleted;
  DropReason drop_reason = DropReason::kNone;
  int target = -1;          ///< index into the server's target list, -1 none
  double dispatch_s = 0.0;  ///< when its batch left the queue
  double complete_s = 0.0;  ///< batch completion / drop / reject time

  double latency_s() const noexcept { return complete_s - request.arrival_s; }
  double queue_wait_s() const noexcept {
    return dispatch_s - request.arrival_s;
  }
};

/// Frontend policy knobs.
struct ServerConfig {
  /// Admission bound: requests allowed to wait in the queue; an arrival
  /// finding it full is rejected (clamped to >= 1).
  std::size_t queue_capacity = 64;
  /// A request not dispatched within this much simulated time of its
  /// arrival is dropped from the queue (infinity = never).
  double queue_deadline_s = std::numeric_limits<double>::infinity();
  /// Flush a partial batch once its oldest member waited this long.
  double batch_timeout_s = 0.050;
  /// Global batch cap, clamped to each target's max_batch() (>= 1).
  int max_batch = 8;
  /// EWMA weight of a new completed-batch throughput observation.
  double estimator_gain = 0.25;
  /// Assumed img/s for a target with no completed batch yet (free
  /// unobserved targets are explored first regardless).
  double prior_tput = 25.0;
  /// Emit per-request slot-lane spans when the tracer is armed (batch
  /// spans and queue instants are always emitted when it is).
  bool trace_requests = true;
  /// Per-class admission bound: at most this many queued requests of
  /// each SloClass (indexed by the enum). The default (unbounded) keeps
  /// admission byte-identical to the class-blind frontend; a zoo/cluster
  /// deployment caps kBatch below queue_capacity so bulk tenants cannot
  /// starve interactive ones out of the shared queue.
  std::array<std::size_t, kSloClassCount> class_quota = {
      std::numeric_limits<std::size_t>::max(),
      std::numeric_limits<std::size_t>::max(),
      std::numeric_limits<std::size_t>::max()};
  /// In-flight window applied to every target at the start of a run
  /// (Target::set_inflight_window): how many submitted batches may
  /// overlap per target. 0 = leave each target's own window untouched
  /// (targets default to 1, i.e. the classic one-batch-per-target
  /// dispatcher).
  int inflight_window = 0;
};

/// Per-target serving statistics.
struct TargetStats {
  std::string label;  ///< target short name
  std::int64_t batches = 0;
  std::int64_t images = 0;
  double busy_s = 0.0;     ///< total simulated service time (flights can
                           ///< overlap, so this may exceed the makespan)
  double tput_est = 0.0;   ///< final online throughput estimate (img/s)
  int window = 1;          ///< in-flight window the run used
  int max_inflight = 0;    ///< peak concurrently submitted batches
  /// Self-healing rollups summed over this target's TimedRuns.
  std::int64_t images_replayed = 0;
  std::int64_t images_lost = 0;
  int sticks_recovered = 0;
  int sticks_dead = 0;
};

/// Per-SloClass rollup inside a ServeReport (computed from the request
/// records at finish(); zero for classes the trace never used).
struct ClassStats {
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t dropped = 0;
  double p99_ms = 0.0;  ///< completed requests of this class only
};

/// The summary every serving report (ServeReport, ZooReport,
/// cluster::ClusterReport) carries.
struct RunSummary {
  std::int64_t completed = 0;
  double first_arrival_s = 0.0;
  double last_complete_s = 0.0;
  util::RunningStats latency_ms;  ///< completed requests only
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  /// Per-SloClass accounting, indexed by the enum. Each class partitions
  /// (offered == completed + rejected + dropped) and the classes sum to
  /// the run's totals.
  std::array<ClassStats, kSloClassCount> classes{};

  /// Wall of the simulated run: first arrival to last completion.
  double makespan_s() const noexcept {
    return last_complete_s > first_arrival_s
               ? last_complete_s - first_arrival_s
               : 0.0;
  }
  /// Completed requests per simulated second — the serving metric that
  /// admission control protects (rejected work costs nothing here).
  double goodput() const noexcept {
    const double m = makespan_s();
    return m > 0.0 ? static_cast<double>(completed) / m : 0.0;
  }
};

/// Folds terminal request outcomes into a RunSummary's percentiles and
/// per-class partition.
class OutcomeRollup {
 public:
  /// `latency_ms` is read only for kCompleted outcomes.
  void add(SloClass slo, Outcome outcome, double latency_ms);
  /// Write p50/p95/p99_ms (completed requests) and `classes` into
  /// `summary`. Call once: it reads the percentiles of each kept
  /// latency vector by selection, reordering it in place.
  void finish(RunSummary& summary);

 private:
  std::vector<double> latencies_;
  std::array<std::vector<double>, kSloClassCount> by_class_;
  std::array<ClassStats, kSloClassCount> classes_{};
};

/// Result of serving one arrival trace.
struct ServeReport : RunSummary {
  std::int64_t offered = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t dropped = 0;
  /// `dropped` broken out by DropReason (sums to `dropped`).
  std::int64_t dropped_deadline = 0;
  std::int64_t dropped_inflight = 0;
  std::int64_t dropped_failover = 0;
  std::size_t max_queue_depth = 0;
  std::vector<TargetStats> targets;
  /// Per-request log in arrival order (one entry per offered request).
  std::vector<RequestRecord> records;
};

/// A steppable serving session: the Server event loop's state machine
/// (admission queue, batcher, EWMA dispatcher, per-request records and
/// traces) factored out so higher layers can interleave several
/// sessions on one discrete-event clock. Server::run drives exactly one
/// session per trace; the cluster router (src/cluster) drives one per
/// serve node, injecting routed arrivals, fault-mapped completion
/// times, and failover evictions between events.
///
/// The caller owns the clock: it asks the session for its next event
/// times (next_complete_s / next_drop_s / next_flush_s), picks the
/// earliest across all its event sources, and invokes the matching
/// handler with that time. Handlers never move session time backwards.
/// Driven in the Server's event order with an empty label, no observer
/// and no completion map, a session is byte-identical (records, traces,
/// metrics) to the pre-refactor monolithic loop.
///
/// Not thread-safe; single use (offer/step until done, then finish()).
class Session {
 public:
  /// Hooks for a routing layer above the session. Callbacks fire from
  /// inside session methods, so an observer must not call back into the
  /// session re-entrantly — defer follow-up work (e.g. failover
  /// replays) until the session call returns. Requests are named by the
  /// key the caller gave offer().
  class Observer {
   public:
    virtual ~Observer() = default;
    /// A request's batch left the queue. `promised_complete_s` is the
    /// engine's own completion timestamp, before any completion map —
    /// the basis for deadline-aware hedging.
    virtual void on_dispatched(std::size_t key, double dispatch_s,
                               double promised_complete_s) {
      (void)key; (void)dispatch_s; (void)promised_complete_s;
    }
    /// A batch retired: `completed` of its requests finished OK.
    virtual void on_batch_completed(int target, double dispatch_s,
                                    double complete_s,
                                    std::int64_t completed) {
      (void)target; (void)dispatch_s; (void)complete_s; (void)completed;
    }
    /// A request reached a terminal state (not fired for evict_all —
    /// the evicted requests' keys are the return value there).
    virtual void on_finished(std::size_t key, Outcome outcome,
                             DropReason reason, double at_s) {
      (void)key; (void)outcome; (void)reason; (void)at_s;
    }
  };

  /// Maps an engine-promised ticket completion time to the time the
  /// session's event loop will observe (identity when empty). The
  /// cluster uses this to model node wedges: completions promised
  /// inside a wedge window slip to the window's end.
  using CompletionMap = std::function<double(double)>;

  /// `label` namespaces observability: metrics become
  /// "serve.<label>.*" and trace lanes "<label> serve ..." (empty label
  /// = the Server's classic "serve.*" names). Targets stay caller-owned.
  Session(std::vector<core::Target*> targets, ServerConfig config,
          std::string label = {}, Observer* observer = nullptr,
          CompletionMap completion_map = {});
  ~Session();  // out of line: TargetState is incomplete here
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Admit one request at time `now` under the caller's `key`, which
  /// names it in the Observer hooks and evict_all (Server::run and the
  /// cluster pass its trace position). Returns false when bounced at
  /// admission (queue full); `force` bypasses the capacity check for
  /// failover replays that must not bounce.
  bool offer(const Request& req, std::size_t key, double now,
             bool force = false);

  /// Next event times (+inf when that event class is not scheduled).
  double next_complete_s() const noexcept;
  double next_drop_s() const noexcept;
  double next_flush_s() const noexcept;

  /// Event handlers; call with the time returned by the matching
  /// next_*_s(). May throw only when every target has failed.
  void on_complete(double now);
  void on_drop(double now);
  void on_flush(double now);

  /// Node failover: cancel every in-flight ticket and drain the queue,
  /// marking all affected requests kDropped/kFailover at `now`, and
  /// return their keys (in-flight first, then queued, both in order) for
  /// replay elsewhere. Targets stay usable (rejoin resubmits to them).
  std::vector<std::size_t> evict_all(double now);

  /// Seal the session: final percentiles, per-target stats, scheduler
  /// span. Call exactly once, after the last event.
  ServeReport finish();

  bool has_capacity() const noexcept;
  /// Room for one more request of class `slo`: queue capacity AND the
  /// class's quota both have headroom. With default quotas this is
  /// exactly has_capacity() — the router's class-aware admission probe.
  bool has_capacity_for(SloClass slo) const noexcept;
  std::size_t queue_depth() const noexcept { return pending_.size(); }
  /// Requests inside tickets.
  std::size_t inflight() const noexcept { return inflight_; }
  bool idle() const noexcept;             ///< nothing queued or in flight
  bool all_disabled() const noexcept;     ///< every target failed
  const std::string& label() const noexcept { return label_; }

 private:
  struct Flight;
  struct TargetState;

  void bind_observability();
  std::string mname(const std::string& suffix) const;
  util::Gauge& inflight_gauge(std::size_t i);
  util::Counter& images_counter(std::size_t i);
  void refresh_event_times() const noexcept;
  void alloc_slot(std::size_t idx);
  void emit_request_spans(std::size_t idx, double end_s);
  void sample_depth();
  double head_arrival() const;
  void mark_dropped(std::size_t idx, DropReason reason);
  void drop_head();
  int pick_target(bool idle_only) const;
  void dispatch(int which, std::size_t n);
  void try_dispatch(bool force);
  void drop_flight(const Flight& fl, DropReason reason);
  void fail_target(int which, std::exception_ptr err);
  void complete_flight(int which, std::size_t fidx);

  ServerConfig config_;
  std::string label_;
  std::string lane_prefix_;
  Observer* observer_ = nullptr;
  CompletionMap map_;
  std::vector<TargetState> states_;
  ServeReport report_;
  std::deque<std::size_t> pending_;
  /// The caller's key for each record (offer's `key`).
  std::vector<std::size_t> key_of_;
  /// Requests inside tickets: the sum of every flight's size.
  std::size_t inflight_ = 0;
  /// Queued requests per SloClass (class_quota admission bookkeeping).
  std::array<std::size_t, kSloClassCount> queued_by_class_{};
  double now_ = 0.0;
  /// next_*_s() memo: the three times are recomputed together on the
  /// first read after a public mutator (each marks them stale on entry,
  /// before anything can throw).
  mutable bool times_stale_ = true;
  mutable double next_complete_ = 0.0;
  mutable double next_drop_ = 0.0;
  mutable double next_flush_ = 0.0;

  util::Counter* m_offered_ = nullptr;
  util::Counter* m_accepted_ = nullptr;
  util::Counter* m_rejected_ = nullptr;
  util::Counter* m_dropped_ = nullptr;
  util::Counter* m_drop_deadline_ = nullptr;
  util::Counter* m_drop_inflight_ = nullptr;
  util::Counter* m_drop_failover_ = nullptr;
  util::Counter* m_completed_ = nullptr;
  util::Counter* m_batches_ = nullptr;
  util::Counter* m_disabled_ = nullptr;
  util::Gauge* g_depth_ = nullptr;
  util::Histogram* h_batch_ = nullptr;
  util::Histogram* h_latency_ = nullptr;

  int queue_lane_ = -1;
  int sched_lane_ = -1;
  std::priority_queue<int, std::vector<int>, std::greater<>> free_slots_;
  int next_slot_ = 0;
  /// Slot lane of each record, -1 none. Like slot_claim_s_, sized only
  /// when request spans are emitted (alloc_slot), so records past its
  /// end hold no slot.
  std::vector<int> slot_of_;
  /// When each request claimed its slot lane (admission time). Request
  /// spans start here, not at arrival_s: a failover replay keeps its
  /// original arrival, which may predate the recycled lane's previous
  /// span — spans on a slot lane must stay disjoint.
  std::vector<double> slot_claim_s_;
};

/// Server::run's tie order at equal timestamps: completions free
/// capacity before drops fire, drops before new arrivals are admitted,
/// arrivals before a flush batches them up.
inline constexpr std::array<LoopEventKind, 4> kServerEventOrder = {
    LoopEventKind::kComplete, LoopEventKind::kDrop, LoopEventKind::kArrive,
    LoopEventKind::kFlush};

/// The serving frontend. Owns no targets — callers keep them alive for
/// the server's lifetime. Not thread-safe (one run at a time).
class Server {
 public:
  Server(std::vector<core::Target*> targets, ServerConfig config = {});

  /// Serve a finite arrival trace (sorted by arrival_s; throws
  /// std::invalid_argument otherwise) to completion.
  ServeReport run(const std::vector<Request>& requests);

  /// Pull up to `limit` items (-1 = until exhaustion) from `source`,
  /// stamping each with the next arrival time from `next_arrival_s`
  /// (e.g. PoissonArrivals), then serve the trace: Sources produce the
  /// payloads, the arrival process produces the times.
  ServeReport run(core::Source& source,
                  const std::function<double()>& next_arrival_s,
                  std::int64_t limit = -1);

  const ServerConfig& config() const noexcept { return config_; }
  std::size_t target_count() const noexcept { return targets_.size(); }

 private:
  ServerConfig config_;
  std::vector<core::Target*> targets_;
};

}  // namespace ncsw::serve
