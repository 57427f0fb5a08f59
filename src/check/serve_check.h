// Serving-layer runtime verifier: the protocol.h idea lifted one level
// up the stack. PR3's ProtocolVerifier shadows the NCAPI's
// LoadTensor/GetResult contract; the layers PRs 5-7 grew on top of it
// (async core::Target tickets, serve::Session admission/dispatch, the
// src/cluster ledger) carry contracts of their own that nothing
// re-checked at runtime:
//
//  * Ticket lifecycle (docs/async-targets.md): submit -> poll/wait ->
//    retire legality, the in-flight window as a hard bound, wait() at
//    most once, poll()/info() answered from the bounded retired ring
//    only while the ticket is still in it.
//  * Request conservation (serve::Session): every offered request must
//    reach exactly one terminal outcome by finish() —
//    offered == completed + rejected + dropped, with the drop count
//    partitioned by DropReason and nothing still queued or in flight.
//  * Ledger conservation (cluster): admitted == completed + rejected +
//    deadline-dropped + lost at the end of a run (crash replays conserve
//    requests — a replayed copy is the same ledger entry), first
//    completion wins with duplicates counted but never delivered twice,
//    and the live-copy count never goes negative.
//  * Event-cache freshness (cluster, zoo): each cluster node's cached
//    event candidates equal a fresh read of its session and health at
//    every pick; each zoo model's cached queue head and residency copy
//    count equal a fresh scan at every scheduling pass.
//
// The hooks are wired into core::Target, serve::Session::finish and the
// cluster event loop, so every bench and test exercises them; modes
// match protocol.h:
//
//  - kOff: one relaxed atomic load per hook, nothing recorded;
//    behaviour and output are byte-identical to an unchecked build.
//  - kLog: violations are recorded (check.violation.* counters, a
//    "serve check" trace instant, a bounded list) and the API call
//    proceeds to its documented behaviour (which for the misuse classes
//    is itself a defined exception).
//  - kStrict: as kLog, then ServeViolationError is thrown.
//  - kDefault: resolved through set_default_mode() / $NCSW_CHECK per
//    hook (the environment read once and cached, check/protocol.h), so
//    `--check` on a bench and CI's NCSW_CHECK=strict arm this verifier
//    and the NCAPI one together.
//
// The violation catalogue lives in docs/checking.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/protocol.h"

namespace ncsw::check {

/// The serving-layer contract-violation classes.
enum class ServeViolationKind : int {
  kWindowExceeded = 0,   ///< accepted submissions exceed the in-flight window
  kWaitAfterCancel,      ///< wait() on a cancelled ticket
  kDoubleWait,           ///< wait() on an already-waited (retired) ticket
  kPollAfterRetire,      ///< poll/info on a ticket evicted from the ring
  kUnknownTicket,        ///< poll/info/wait/cancel of an id never issued
  kRequestConservation,  ///< session finished with requests unaccounted
  kDuplicateDelivery,    ///< cluster delivered one request id twice
  kLedgerConservation,   ///< cluster totals do not partition admitted
  kNegativeLive,         ///< a ledger live-copy count went below zero
  kSwapWhileInflight,    ///< graph swap started with tickets outstanding
  kWrongModelDispatch,   ///< work dispatched to a stick resident elsewhere
  kResidencyConservation,  ///< zoo installs/evicts/residents do not balance
  kStaleEventCache,        ///< a loop's cached events/queue heads went stale
};

constexpr int kServeViolationKindCount = 13;

/// Stable kebab-case name ("window-exceeded", "wait-after-cancel", ...),
/// used for metrics ("check.violation.<name>") and trace instants.
const char* serve_violation_name(ServeViolationKind kind);

/// One detected serving-layer violation.
struct ServeViolation {
  ServeViolationKind kind = ServeViolationKind::kWindowExceeded;
  std::string scope;      ///< target short name / session label / "cluster"
  double sim_time = 0.0;  ///< simulated time at the offending call
  std::string detail;

  /// "double-wait on VPU at t=1.25s: ..." — the thrown what() string.
  std::string to_string() const;
};

/// Thrown by the verifier in kStrict mode.
class ServeViolationError : public std::logic_error {
 public:
  explicit ServeViolationError(ServeViolation v)
      : std::logic_error(v.to_string()), violation(std::move(v)) {}
  ServeViolation violation;
};

/// Shadows the async Target API, serve::Session accounting and the
/// cluster ledger. All hooks are no-ops in kOff mode. Thread-safe like
/// ProtocolVerifier (the serving loops are single-threaded, but tests
/// run sessions from several threads of one process).
class ServeVerifier {
 public:
  /// Install `mode` and forget all tracked state and recorded
  /// violations. Pass CheckMode::kDefault to resolve through
  /// set_default_mode() / $NCSW_CHECK at each hook (the initial state).
  void configure(CheckMode mode);

  CheckMode mode() const noexcept {
    const auto raw =
        static_cast<CheckMode>(mode_.load(std::memory_order_relaxed));
    return raw == CheckMode::kDefault ? resolve_mode(raw) : raw;
  }
  bool enabled() const noexcept { return mode() != CheckMode::kOff; }

  // -- Ticket lifecycle (called from core::Target). --
  /// A submission was accepted; `inflight` is the window occupancy with
  /// it included. Flags kWindowExceeded when inflight > window (a
  /// rejected submit is legal backpressure and never reaches here).
  void on_submit(const void* target, const std::string& name,
                 std::uint64_t id, int inflight, int window, double t);
  /// poll()/info() missed both the outstanding map and the retired
  /// ring. `last_issued` is the target's newest ticket id (0 = none).
  void on_poll_miss(const void* target, const std::string& name,
                    std::uint64_t id, std::uint64_t last_issued, double t);
  /// wait() hit a retired ticket (terminal `state`), or missed
  /// entirely (`known` false distinguishes ring-evicted from never
  /// issued via `last_issued`).
  void on_wait_retired(const void* target, const std::string& name,
                       std::uint64_t id, const char* state, double t);
  void on_wait_miss(const void* target, const std::string& name,
                    std::uint64_t id, std::uint64_t last_issued, double t);
  /// cancel() of an id this target never issued (cancel of a retired
  /// ticket returns false and is legal).
  void on_cancel_miss(const void* target, const std::string& name,
                      std::uint64_t id, std::uint64_t last_issued, double t);

  // -- Request conservation (called from serve::Session::finish). --
  /// `unaccounted` is what is still queued or in flight at finish().
  void on_session_finish(const std::string& label, std::int64_t offered,
                         std::int64_t rejected, std::int64_t completed,
                         std::int64_t dropped, std::int64_t dropped_deadline,
                         std::int64_t dropped_inflight,
                         std::int64_t dropped_failover,
                         std::int64_t unaccounted, double t);

  // -- Graph residency (called from core::StickFleet / serve::ZooServer).
  /// A stick is about to swap its resident graph. `inflight` is the
  /// stick target's outstanding-ticket count at the swap decision;
  /// anything above zero is kSwapWhileInflight — the drain-then-swap
  /// lifecycle (docs/architecture.md) was bypassed.
  void on_swap_begin(const std::string& stick, const std::string& from_model,
                     const std::string& to_model, int inflight, double t);
  /// Work for `requested` is being dispatched to `stick`, whose resident
  /// model is `resident`. A mismatch is kWrongModelDispatch: the router
  /// handed a tenant's request to a stick serving another tenant.
  void on_zoo_dispatch(const std::string& stick, const std::string& resident,
                       const std::string& requested, double t);
  /// A zoo serving run ended. Requests must partition (offered ==
  /// completed + rejected + dropped) and residency must conserve:
  /// `installs` - `evicts` must equal `resident` graphs still installed.
  void on_zoo_finish(const std::string& scope, std::int64_t offered,
                     std::int64_t completed, std::int64_t rejected,
                     std::int64_t dropped, std::int64_t installs,
                     std::int64_t evicts, std::int64_t resident, double t);

  // -- Ledger conservation (called from the cluster event loop). --
  /// A cluster run is starting: forget per-run delivery/live state.
  void on_cluster_begin();
  /// A completion is being *delivered* (counted into the report as the
  /// request's first completion). A second delivery for the same id is
  /// kDuplicateDelivery — duplicates must be counted, never delivered.
  void on_ledger_deliver(std::int64_t id, int node, double t);
  /// A ledger live-copy count changed to `live`.
  void on_ledger_live(std::int64_t id, int live, double t);
  /// The run ended; the terminal states must partition `offered`.
  void on_cluster_finish(std::int64_t offered, std::int64_t completed,
                         std::int64_t rejected, std::int64_t deadline,
                         std::int64_t lost, double t);
  /// A loop's cached entry differs from a fresh read of the state it
  /// stands for: kStaleEventCache, a mutation that missed the cache's
  /// refresh. Each loop names itself in `scope` and writes `detail`
  /// itself: Cluster::run ("cluster") names the node and its cached and
  /// fresh event candidates; ZooServer::run ("zoo") names the model in
  /// the node's place and its cached and fresh queue head and residency
  /// copy count.
  void on_stale_event_cache(const std::string& scope,
                            const std::string& detail, double t);
  /// A run compared `comparisons` cached entries (cluster nodes, zoo
  /// models) with a fresh read (accumulated into event_cache_checks()).
  void on_event_cache_checked(std::uint64_t comparisons);

  // -- Report access (for tests and tools). --
  std::uint64_t count(ServeViolationKind kind) const;
  std::uint64_t total() const;
  /// Cached entries (cluster nodes, zoo models) compared since
  /// configure(): a strict run that reports zero never exercised the
  /// cache check.
  std::uint64_t event_cache_checks() const;
  /// Recorded violations, oldest first (bounded; see kMaxRecorded).
  std::vector<ServeViolation> violations() const;
  /// Drop recorded violations and counts; tracked state survives.
  void clear_violations();

  /// Recorded-violation list cap; counts keep accumulating past it.
  static constexpr std::size_t kMaxRecorded = 256;

 private:
  /// Record + count + trace the violation; throws in kStrict. Caller
  /// holds mutex_ (it is released before the throw).
  void report(std::unique_lock<std::mutex>& lock, ServeViolationKind kind,
              std::string scope, double t, std::string detail);
  void miss(const char* call, ServeViolationKind evicted_kind,
            const void* target, const std::string& name, std::uint64_t id,
            std::uint64_t last_issued, double t);

  /// kDefault = resolve per hook (the initial state), so CI's
  /// NCSW_CHECK and a bench's --check are honoured without an explicit
  /// configure() call.
  std::atomic<int> mode_{static_cast<int>(CheckMode::kDefault)};

  mutable std::mutex mutex_;
  std::unordered_set<std::int64_t> delivered_;  ///< per cluster run
  std::vector<ServeViolation> recorded_;
  std::uint64_t counts_[kServeViolationKindCount] = {};
  std::uint64_t total_ = 0;
  std::uint64_t event_cache_checks_ = 0;
};

/// The process-wide verifier the serving layers report to.
ServeVerifier& serve_verifier();

}  // namespace ncsw::check
