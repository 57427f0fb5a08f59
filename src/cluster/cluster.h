// A fault-tolerant multi-node serving cluster on the simulated clock.
//
// The paper's fleet of cheap hot-pluggable co-processors inevitably
// loses members mid-flight; PR2 made one node self-healing at stick
// granularity, and this layer scales the same guarantee to a cluster
// of serve nodes. N serve::Session-backed nodes — each owning a slice
// of heterogeneous targets — sit behind a router:
//
//   arrivals --> [consistent-hash router] --> node 0: serve::Session
//                 model -> replica set        node 1: serve::Session
//                 EWMA least-expected-wait    node 2: ...
//                 pick among live replicas
//
// Each model in the catalogue is resident on `replication` nodes (its
// replica preference list on the HashRing), so a node loss never
// strands a model. The router reuses the dispatcher's feedback idea
// one level up: per-node throughput EWMAs steer arrivals to the
// replica expected to clear them first. The ring is capacity-blind, so
// when every replica of a model is saturated (or down) the router
// spills the request to any healthy node with room — the spilled node
// warms the model on first use — before admission control bounces it.
//
// Faults arrive as node-granularity FaultPlan windows (device = node
// id): kNodeCrash takes a node off the cluster for the window —
// every queued and in-flight request on it is evicted and replayed to
// a live replica (zero requests lost) — and the core::health state
// machine drives quarantine, exponential-backoff probing, and rejoin
// with per-model graph re-residency. kNodeWedge models the
// whole-runtime hang of the fault-injection literature: the node keeps
// accepting work but completes none until the window ends; deadline-
// aware hedges fire a duplicate to another replica when a promised
// completion slips, and repeated hedges quarantine the wedged node
// through the same health ladder. First completion wins; duplicates
// are counted, never double-delivered.
//
// Everything runs on one discrete-event clock with a fixed event
// tie-break (kClusterEventOrder, then node index), so a given arrival
// trace + fault plan always produces byte-identical reports and traces.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/ring.h"
#include "core/health.h"
#include "serve/server.h"
#include "sim/fault.h"
#include "util/stats.h"

namespace ncsw::cluster {

/// Cluster policy knobs.
struct ClusterConfig {
  /// Per-node frontend policy (queue bound, batcher, dispatcher EWMA).
  serve::ServerConfig node;
  /// Nodes each model is resident on (clamped to the node count; a
  /// request only routes inside its model's replica set).
  int replication = 2;
  /// Model catalogue size: a request's model key is its tag, or
  /// "m<id % models>" when the tag is empty.
  int models = 4;
  /// Virtual nodes per node on the hash ring.
  int vnodes = 64;
  std::uint64_t ring_seed = 0x6e637377636c7573ULL;
  /// A hedge duplicate fires this long after a dispatched request's
  /// promised completion fails to materialise (<= 0 disables hedging).
  double hedge_slack_s = 0.050;
  /// Per-request hedge budget (replays after an eviction are always
  /// allowed — bounding them would turn a crash into lost requests).
  int max_hedges = 1;
  /// Most latency-tolerant SLO class still allowed to hedge: classes
  /// beyond it (kBatch by default) ride out a wedge instead of firing
  /// speculative duplicates — batch work has no deadline worth paying
  /// duplicate device time for.
  serve::SloClass hedge_max_class = serve::SloClass::kStandard;
  /// Overflow routing: when every replica of a model is saturated (or
  /// down), route to any healthy node with capacity instead of
  /// rejecting/parking. The spilled node becomes resident for the
  /// model (it pays the graph re-load on rejoin like a replica).
  bool spill = true;
  /// Node-granularity quarantine/probe policy.
  core::HealthPolicy node_health;
  /// Node-granularity fault plan: device = node id; only kNodeCrash
  /// and kNodeWedge windows apply (other kinds are ignored here).
  sim::FaultPlan faults;
  /// Emit per-request slot spans inside each node's session.
  bool trace_requests = true;
};

/// How one request left the cluster.
enum class RequestState : int {
  kCompleted = 0,  ///< served (first completion wins)
  kRejected = 1,   ///< bounced at cluster admission (all replicas full)
  kDeadline = 2,   ///< aged out of a node queue (policy, not a loss)
  kLost = 3,       ///< never completed and no replica left to replay to
};

/// Stable lowercase name ("completed", "rejected", "deadline", "lost").
const char* request_state_name(RequestState s);

/// Cluster-level view of one request's lifetime.
struct ClusterRecord {
  std::int64_t id = 0;
  RequestState state = RequestState::kCompleted;
  double arrival_s = 0.0;
  double finish_s = 0.0;   ///< first completion / reject / drop time
  int node = -1;           ///< node that completed it, -1 otherwise
  int replays = 0;         ///< failover re-offers of this request
  int hedges = 0;          ///< speculative duplicates fired
  double evicted_s = -1.0; ///< last failover eviction, -1 = never evicted
};

/// Per-node rollup inside a ClusterReport.
struct NodeReport {
  serve::ServeReport serve;     ///< the node session's own report
  std::string health = "healthy";  ///< final health state name
  double tput_est = 0.0;        ///< final node-level EWMA (req/s)
  std::int64_t routed = 0;      ///< arrivals routed here (excl. replays)
  std::int64_t evicted = 0;     ///< requests evicted in failovers
  int crashes = 0;
  int wedges = 0;
  int rejoins = 0;
};

/// Result of serving one arrival trace across the cluster. In `classes`,
/// deadline drops and lost requests both count as dropped.
struct ClusterReport : serve::RunSummary {
  std::int64_t offered = 0;
  std::int64_t rejected = 0;
  std::int64_t dropped_deadline = 0;
  /// Requests that were accepted but never completed with no replica
  /// left to replay to. The tentpole guarantee: 0 under node kills.
  std::int64_t requests_lost = 0;
  std::int64_t requests_replayed = 0;  ///< failover re-offers
  std::int64_t requests_hedged = 0;    ///< speculative duplicates
  std::int64_t requests_spilled = 0;   ///< overflow-routed off the ring
  std::int64_t duplicate_completions = 0;
  int node_kills = 0;
  int node_wedges = 0;
  int node_rejoins = 0;
  int nodes_dead = 0;  ///< nodes that exhausted their probe budget
  /// Eviction-to-completion latency of replayed requests (failover
  /// visibility: how long a request stranded by a kill waited for its
  /// replica to serve it).
  util::RunningStats failover_ms;
  std::vector<NodeReport> nodes;
  /// One entry per offered request, ordered by request id.
  std::vector<ClusterRecord> records;
};

/// Cluster::run's tie order at equal timestamps (same-kind ties go to
/// the lowest node index): completions retire work before faults or
/// drops reroute it, probes and rejoins restore capacity before hedges
/// and arrivals claim it, flushes batch up whatever remains.
inline constexpr std::array<serve::LoopEventKind, 8> kClusterEventOrder = {
    serve::LoopEventKind::kComplete, serve::LoopEventKind::kDrop,
    serve::LoopEventKind::kFault,    serve::LoopEventKind::kProbe,
    serve::LoopEventKind::kReady,    serve::LoopEventKind::kHedge,
    serve::LoopEventKind::kArrive,   serve::LoopEventKind::kFlush};

/// The cluster router. Owns its per-node sessions for the duration of
/// one run; targets stay caller-owned (node i uses node_targets[i]).
/// Not thread-safe; single use (one run per instance).
class Cluster {
 public:
  Cluster(std::vector<std::vector<core::Target*>> node_targets,
          ClusterConfig config = {});

  /// Serve a finite arrival trace (sorted by arrival_s, finite; throws
  /// std::invalid_argument otherwise) to completion.
  ClusterReport run(const std::vector<serve::Request>& requests);

  const ClusterConfig& config() const noexcept { return config_; }

 private:
  ClusterConfig config_;
  std::vector<std::vector<core::Target*>> node_targets_;
};

}  // namespace ncsw::cluster
