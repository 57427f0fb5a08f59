// Multi-node serving cluster: consistent-hash routing, replication,
// node-crash failover with zero lost requests, wedge-triggered hedging,
// the loss-accounting negative control, trace/lint cleanliness, and the
// byte-determinism contract.
#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <stdexcept>

#include "check/serve_check.h"
#include "check/tracelint.h"
#include "cluster/ring.h"
#include "serve/arrivals.h"
#include "util/trace.h"

namespace {

using namespace ncsw;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::HashRing;
using cluster::RequestState;
using serve::Request;

/// Deterministic analytic target: every image takes `per_image_s`,
/// regardless of batch size (same fake the serve tests use).
class FakeTarget : public core::Target {
 public:
  FakeTarget(std::string label, double per_image_s, int max_batch)
      : label_(std::move(label)),
        per_image_s_(per_image_s),
        max_batch_(max_batch) {}

  std::string name() const override { return "fake " + label_; }
  std::string short_name() const override { return label_; }
  double tdp_w(int) const override { return 1.0; }
  int max_batch() const override { return max_batch_; }

  std::vector<core::Prediction> classify(
      const std::vector<tensor::TensorF>&) override {
    throw std::logic_error("timing-only fake");
  }

 protected:
  core::TimedRun execute_batch(std::int64_t images, int,
                               double) override {
    core::TimedRun run;
    run.images = images;
    run.seconds = per_image_s_ * static_cast<double>(images);
    return run;
  }

 private:
  std::string label_;
  double per_image_s_;
  int max_batch_;
};

/// A cluster node's worth of fakes, owned by the test.
struct FakeNode {
  FakeTarget a;
  FakeTarget b;
  FakeNode(int i, double per_image_s)
      : a("n" + std::to_string(i) + "a", per_image_s, 8),
        b("n" + std::to_string(i) + "b", per_image_s, 8) {}
  std::vector<core::Target*> targets() { return {&a, &b}; }
};

std::int64_t accounted(const cluster::ClusterReport& r) {
  return r.completed + r.rejected + r.dropped_deadline + r.requests_lost;
}

TEST(Ring, PreferenceIsDeterministicAndDistinct) {
  HashRing a(3, 64, 7), b(3, 64, 7), c(3, 64, 8);
  bool any_diff = false;
  for (int k = 0; k < 200; ++k) {
    const auto h = HashRing::hash_key("model-" + std::to_string(k));
    const auto pa = a.preference(h, 2);
    ASSERT_EQ(pa.size(), 2u);
    EXPECT_NE(pa[0], pa[1]);
    EXPECT_EQ(pa, b.preference(h, 2));  // same seed, same placement
    any_diff = any_diff || pa != c.preference(h, 2);
  }
  EXPECT_TRUE(any_diff);  // the seed actually moves the ring
  // count clamps to the node population.
  EXPECT_EQ(a.preference(123, 9).size(), 3u);
  EXPECT_THROW(HashRing(0), std::invalid_argument);
  EXPECT_THROW(HashRing(2, 0), std::invalid_argument);
}

TEST(Ring, VirtualNodesSpreadPrimaries) {
  HashRing ring(3, 64);
  int primaries[3] = {0, 0, 0};
  for (int k = 0; k < 900; ++k) {
    const auto h = HashRing::hash_key("m" + std::to_string(k));
    primaries[ring.preference(h, 1)[0]]++;
  }
  // 64 vnodes keep every node's share of key space within sane bounds
  // (an unweighted hash would park ~1/3 = 300 on each).
  for (int n = 0; n < 3; ++n) {
    EXPECT_GT(primaries[n], 150) << "node " << n;
    EXPECT_LT(primaries[n], 500) << "node " << n;
  }
}

TEST(Cluster, ValidatesConfigAndArrivals) {
  EXPECT_THROW(Cluster({}, {}), std::invalid_argument);
  FakeNode n0(0, 0.01);
  ClusterConfig bad;
  bad.models = 0;
  EXPECT_THROW(Cluster({n0.targets()}, bad), std::invalid_argument);
  bad = {};
  bad.node_gain = 1.5;
  EXPECT_THROW(Cluster({n0.targets()}, bad), std::invalid_argument);
  bad = {};
  bad.max_hedges = -1;
  EXPECT_THROW(Cluster({n0.targets()}, bad), std::invalid_argument);

  // Replication is clamped to the node population, not rejected.
  ClusterConfig wide;
  wide.replication = 5;
  Cluster cl({n0.targets()}, wide);
  EXPECT_EQ(cl.config().replication, 1);

  auto unsorted = serve::poisson_trace(4, 100.0, 1);
  std::swap(unsorted[1], unsorted[2]);
  std::swap(unsorted[1].id, unsorted[2].id);
  FakeNode n1(1, 0.01);
  EXPECT_THROW(Cluster({n1.targets()}).run(unsorted), std::invalid_argument);

  auto dup = serve::poisson_trace(3, 100.0, 1);
  dup[2].id = dup[0].id;
  FakeNode n2(2, 0.01);
  EXPECT_THROW(Cluster({n2.targets()}).run(dup), std::invalid_argument);

  // Ids that otherwise ascend (the index needs no sort) and scrambled
  // ids (the index is sorted) catch a duplicate alike.
  auto ascending = serve::poisson_trace(6, 100.0, 2);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i].id = 10 * static_cast<std::int64_t>(i);
  }
  ascending[3].id = ascending[2].id;
  FakeNode n3(3, 0.01);
  EXPECT_THROW(Cluster({n3.targets()}).run(ascending),
               std::invalid_argument);
  auto scrambled = serve::poisson_trace(6, 100.0, 2);
  const std::array<std::int64_t, 6> ids = {50, 7, 31, 7 + 24, 2, 90};
  for (std::size_t i = 0; i < scrambled.size(); ++i) {
    scrambled[i].id = ids[i];
  }
  FakeNode n4(4, 0.01);
  EXPECT_THROW(Cluster({n4.targets()}).run(scrambled),
               std::invalid_argument);
  // Without the duplicate the same scrambled trace runs.
  scrambled[3].id = 33;
  FakeNode n5(5, 0.01);
  EXPECT_EQ(Cluster({n5.targets()}).run(scrambled).records.size(), 6u);
}

// The event cache under the strict verifier: through a crash, a wedge,
// hedges, replays and rejoins, every pick compares each clean node's
// cached events with a fresh read, and none differs.
TEST(Cluster, StrictRunFindsEveryCachedNodeEventFresh) {
  auto& sv = check::serve_verifier();
  sv.configure(check::CheckMode::kStrict);
  struct RestoreDefault {
    ~RestoreDefault() {
      check::serve_verifier().configure(check::CheckMode::kDefault);
    }
  } restore;
  FakeNode n0(0, 0.004), n1(1, 0.006), n2(2, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.batch_timeout_s = 0.01;
  cfg.node.queue_deadline_s = 0.2;
  cfg.hedge_slack_s = 0.02;
  cfg.faults.add(1, sim::FaultKind::kNodeCrash, 0.3, 0.4);
  cfg.faults.add(2, sim::FaultKind::kNodeWedge, 0.5, 0.9);
  const auto r = Cluster({n0.targets(), n1.targets(), n2.targets()}, cfg)
                     .run(serve::poisson_trace(600, 400.0, 11));
  EXPECT_GT(r.requests_replayed, 0);
  EXPECT_GT(r.requests_hedged, 0);
  EXPECT_GT(r.node_rejoins, 0);
  EXPECT_GT(sv.event_cache_checks(), 1000u);
  EXPECT_EQ(sv.count(check::ServeViolationKind::kStaleEventCache), 0u);
  EXPECT_EQ(sv.total(), 0u);
}

// A failover replay changes the node it lands on, and the loop must see
// that at once. Node 1 (slow) crashes holding two requests while node 0
// (fast) sits idle with an empty queue. The replays re-offer requests
// whose batch timeout passed long ago, so node 0 flushes them at the
// crash. A loop that kept node 0's old events would leave them queued
// until node 0's next arrival, seconds later, or for good.
TEST(Cluster, ReplayOntoAnIdleNodeRunsAtTheCrash) {
  FakeNode n0(0, 0.001), n1(1, 0.1);
  ClusterConfig cfg;
  cfg.models = 1;
  cfg.replication = 2;
  cfg.node.batch_timeout_s = 0.01;
  cfg.faults.add(/*device=*/1, sim::FaultKind::kNodeCrash, 0.2, 1.0);
  std::vector<Request> trace(5);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = static_cast<std::int64_t>(i);
    trace[i].arrival_s = i < 4 ? 0.1 : 5.0;
  }
  const auto r = Cluster({n0.targets(), n1.targets()}, cfg).run(trace);
  EXPECT_EQ(r.requests_lost, 0);
  EXPECT_EQ(r.requests_replayed, 2);
  for (const auto& rec : r.records) {
    if (rec.replays == 0) continue;
    EXPECT_EQ(rec.node, 0) << rec.id;
    EXPECT_DOUBLE_EQ(rec.evicted_s, 0.2) << rec.id;
    EXPECT_LT(rec.finish_s, 0.21) << rec.id;
  }
}

TEST(Cluster, RoutesAcrossReplicasAndCompletesEverything) {
  FakeNode n0(0, 0.005), n1(1, 0.005), n2(2, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.batch_timeout_s = 0.01;
  Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
  const auto r = cl.run(serve::poisson_trace(300, 300.0, 3));

  EXPECT_EQ(r.offered, 300);
  EXPECT_EQ(r.completed, 300);
  EXPECT_EQ(r.requests_lost, 0);
  EXPECT_EQ(r.requests_replayed, 0);
  EXPECT_EQ(accounted(r), r.offered);
  ASSERT_EQ(r.records.size(), 300u);
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    EXPECT_EQ(r.records[i].id, static_cast<std::int64_t>(i));
    EXPECT_EQ(r.records[i].state, RequestState::kCompleted);
    EXPECT_GE(r.records[i].node, 0);
  }
  // The load actually spreads: every node serves some share.
  std::int64_t nodes_used = 0;
  for (const auto& nr : r.nodes) nodes_used += nr.routed > 0 ? 1 : 0;
  EXPECT_EQ(nodes_used, 3);
}

// The tentpole guarantee: a node crash mid-run strands its queued and
// in-flight requests, every one is replayed to a live replica, and the
// cluster ends with zero lost requests.
TEST(Cluster, NodeCrashReplaysEverythingWithZeroLoss) {
  FakeNode n0(0, 0.005), n1(1, 0.005), n2(2, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.batch_timeout_s = 0.01;
  cfg.faults.add(/*device=*/1, sim::FaultKind::kNodeCrash, 0.3, 0.5);
  Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
  const auto r = cl.run(serve::poisson_trace(400, 350.0, 5));

  EXPECT_EQ(r.node_kills, 1);
  EXPECT_EQ(r.offered, 400);
  EXPECT_EQ(r.requests_lost, 0) << "a crash must never lose a request";
  EXPECT_GT(r.requests_replayed, 0) << "the kill should strand something";
  EXPECT_EQ(r.completed + r.rejected + r.dropped_deadline, 400);
  EXPECT_GT(r.nodes[1].evicted, 0);
  EXPECT_EQ(r.nodes[1].crashes, 1);
  // Failover latency was observed for the replayed requests.
  EXPECT_GT(r.failover_ms.count(), 0u);
  // The crash window [0.3, 0.8) ends well before the trace drains, so
  // the health ladder probes the node back in.
  EXPECT_EQ(r.node_rejoins, 1);
  EXPECT_EQ(r.nodes[1].rejoins, 1);
  for (const auto& rec : r.records) {
    EXPECT_NE(rec.state, RequestState::kLost) << "request " << rec.id;
  }
}

// Negative control: with one node and a crash that outlives the trace,
// stranded requests have no replica to land on — they park and the
// report must call them lost (proving the zero-loss assertion bites).
TEST(Cluster, LoneNodeCrashIsAccountedAsLost) {
  FakeNode n0(0, 0.005);
  ClusterConfig cfg;
  cfg.spill = false;  // nowhere to overflow to anyway
  cfg.node.batch_timeout_s = 0.01;
  cfg.faults.add(0, sim::FaultKind::kNodeCrash, 0.2, 1000.0);
  Cluster cl({n0.targets()}, cfg);
  const auto r = cl.run(serve::poisson_trace(100, 200.0, 7));

  EXPECT_EQ(r.node_kills, 1);
  EXPECT_EQ(r.node_rejoins, 0);
  EXPECT_EQ(r.nodes_dead, 1);  // the probe budget runs out
  EXPECT_GT(r.requests_lost, 0);
  EXPECT_EQ(accounted(r), r.offered);
  bool saw_lost = false;
  for (const auto& rec : r.records) {
    saw_lost = saw_lost || rec.state == RequestState::kLost;
  }
  EXPECT_TRUE(saw_lost);
}

// A wedged node keeps accepting work but completes none of it; the
// promised completions slip, deadline-aware hedges fire duplicates on a
// replica, and repeated hedges quarantine the wedge. First completion
// wins, duplicates are counted, nothing is lost or double-delivered.
TEST(Cluster, WedgeTriggersHedgesAndQuarantine) {
  FakeNode n0(0, 0.005), n1(1, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.batch_timeout_s = 0.01;
  cfg.hedge_slack_s = 0.02;
  cfg.faults.add(0, sim::FaultKind::kNodeWedge, 0.2, 0.6);
  Cluster cl({n0.targets(), n1.targets()}, cfg);
  const auto r = cl.run(serve::poisson_trace(200, 250.0, 9));

  EXPECT_EQ(r.node_wedges, 1);
  EXPECT_EQ(r.nodes[0].wedges, 1);
  EXPECT_GT(r.requests_hedged, 0) << "slipped promises should hedge";
  EXPECT_EQ(r.requests_lost, 0);
  EXPECT_EQ(r.completed + r.rejected + r.dropped_deadline, r.offered);
  // Completed exactly once each: completions minus duplicates equals
  // the completed count, and every completed record has one node.
  std::int64_t completed_records = 0;
  for (const auto& rec : r.records) {
    if (rec.state == RequestState::kCompleted) {
      ++completed_records;
      EXPECT_GE(rec.node, 0);
    }
  }
  EXPECT_EQ(completed_records, r.completed);
}

TEST(Cluster, ClassRollupsPartitionTheClusterTotals) {
  FakeNode n0(0, 0.005), n1(1, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.queue_capacity = 8;
  Cluster cl({n0.targets(), n1.targets()}, cfg);
  auto trace = serve::poisson_trace(200, 300.0, 13);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].slo = static_cast<serve::SloClass>(i % serve::kSloClassCount);
  }
  const auto r = cl.run(trace);
  std::int64_t offered = 0, completed = 0;
  for (const auto& c : r.classes) {
    EXPECT_EQ(c.offered, c.completed + c.rejected + c.dropped);
    offered += c.offered;
    completed += c.completed;
  }
  EXPECT_EQ(offered, r.offered);
  EXPECT_EQ(completed, r.completed);
  EXPECT_GT(completed, 0);
}

TEST(Cluster, BatchClassNeverHedgesUnderTheDefaultGate) {
  // Same wedge scenario as above, but every request is kBatch: with
  // hedge_max_class = kStandard (the default) no hedge may fire — batch
  // work rides out the wedge on the replay path instead.
  FakeNode n0(0, 0.005), n1(1, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.batch_timeout_s = 0.01;
  cfg.hedge_slack_s = 0.02;
  cfg.faults.add(0, sim::FaultKind::kNodeWedge, 0.2, 0.6);
  Cluster cl({n0.targets(), n1.targets()}, cfg);
  auto trace = serve::poisson_trace(200, 250.0, 9);
  for (auto& req : trace) req.slo = serve::SloClass::kBatch;
  const auto r = cl.run(trace);
  EXPECT_EQ(r.node_wedges, 1);
  EXPECT_EQ(r.requests_hedged, 0);
  EXPECT_EQ(r.requests_lost, 0);
  EXPECT_EQ(r.completed + r.rejected + r.dropped_deadline, r.offered);

  // Raising the gate to kBatch restores hedging for the same trace.
  cfg.hedge_max_class = serve::SloClass::kBatch;
  FakeNode m0(0, 0.005), m1(1, 0.005);
  Cluster cl2({m0.targets(), m1.targets()}, cfg);
  const auto r2 = cl2.run(trace);
  EXPECT_GT(r2.requests_hedged, 0);
}

TEST(Cluster, ChaosReplayIsByteDeterministic) {
  auto run_once = [] {
    FakeNode n0(0, 0.004), n1(1, 0.006), n2(2, 0.005);
    ClusterConfig cfg;
    cfg.models = 8;
    cfg.node.batch_timeout_s = 0.01;
    cfg.hedge_slack_s = 0.02;
    cfg.faults.add(1, sim::FaultKind::kNodeCrash, 0.3, 0.4);
    cfg.faults.add(2, sim::FaultKind::kNodeWedge, 0.5, 0.9);
    Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
    return cl.run(serve::poisson_trace(300, 300.0, 11));
  };
  const auto r1 = run_once(), r2 = run_once();

  EXPECT_EQ(r1.requests_lost, 0);
  EXPECT_GT(r1.requests_replayed, 0);
  ASSERT_EQ(r1.records.size(), r2.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].state, r2.records[i].state) << i;
    EXPECT_EQ(r1.records[i].node, r2.records[i].node) << i;
    EXPECT_EQ(r1.records[i].replays, r2.records[i].replays) << i;
    EXPECT_EQ(r1.records[i].hedges, r2.records[i].hedges) << i;
    EXPECT_DOUBLE_EQ(r1.records[i].finish_s, r2.records[i].finish_s) << i;
  }
  EXPECT_DOUBLE_EQ(r1.p99_ms, r2.p99_ms);
  EXPECT_DOUBLE_EQ(r1.last_complete_s, r2.last_complete_s);
  EXPECT_EQ(r1.duplicate_completions, r2.duplicate_completions);
}

// FNV-1a over a ClusterReport: doubles by bit pattern, so any change to
// a finish time or percentile, however small, moves the digest.
struct ReportDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void u64(std::uint64_t v) {
    for (int s = 0; s < 64; s += 8) {
      h ^= (v >> s) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void summary(const serve::RunSummary& s) {
    i64(s.completed);
    f64(s.first_arrival_s);
    f64(s.last_complete_s);
    i64(static_cast<std::int64_t>(s.latency_ms.count()));
    f64(s.latency_ms.mean());
    f64(s.p50_ms);
    f64(s.p95_ms);
    f64(s.p99_ms);
    for (const auto& c : s.classes) {
      i64(c.offered);
      i64(c.completed);
      i64(c.rejected);
      i64(c.dropped);
      f64(c.p99_ms);
    }
  }
  void report(const cluster::ClusterReport& r) {
    summary(r);
    for (const std::int64_t v :
         {r.offered, r.rejected, r.dropped_deadline, r.requests_lost,
          r.requests_replayed, r.requests_hedged, r.requests_spilled,
          r.duplicate_completions}) {
      i64(v);
    }
    for (const int v :
         {r.node_kills, r.node_wedges, r.node_rejoins, r.nodes_dead}) {
      i64(v);
    }
    i64(static_cast<std::int64_t>(r.failover_ms.count()));
    f64(r.failover_ms.mean());
    for (const auto& nr : r.nodes) {
      summary(nr.serve);
      i64(nr.serve.offered);
      i64(nr.serve.dropped);
      f64(nr.tput_est);
      i64(nr.routed);
      i64(nr.evicted);
      i64(nr.crashes);
      i64(nr.wedges);
      i64(nr.rejoins);
    }
    for (const auto& rec : r.records) {
      i64(rec.id);
      i64(static_cast<int>(rec.state));
      f64(rec.arrival_s);
      f64(rec.finish_s);
      i64(rec.node);
      i64(rec.replays);
      i64(rec.hedges);
      f64(rec.evicted_s);
    }
  }
};

// Every ledger path at once, frozen: the digest below was recorded from
// the map-keyed ledger and string-keyed replica lists that the dense
// ledger and interned model index replaced, so the report must match it
// bit for bit. Ids are scrambled against arrival order (records come
// out in id order), some tags are empty (model "m<id % models>"), and
// one tag outside the default catalogue has the crashed node among its
// replicas but first arrives after that node's rejoin delay was set:
// placed eagerly, it would lengthen that rejoin and move the digest.
TEST(Cluster, ChaosReportMatchesFrozenDigest) {
  constexpr int kNodes = 4, kCrashed = 1;
  ClusterConfig cfg;
  cfg.models = 4;
  cfg.node.queue_capacity = 6;
  cfg.node.queue_deadline_s = 0.08;
  cfg.node.batch_timeout_s = 0.01;
  cfg.hedge_slack_s = 0.02;
  cfg.node_health.max_retries = 8;  // let the wedge hedge a while first
  cfg.faults.add(kCrashed, sim::FaultKind::kNodeCrash, 0.1, 0.15);
  cfg.faults.add(2, sim::FaultKind::kNodeWedge, 0.35, 0.2);

  const HashRing ring(kNodes, cfg.vnodes, cfg.ring_seed);
  std::string extra;
  for (int k = 0; extra.empty(); ++k) {
    const std::string tag = "extra" + std::to_string(k);
    const auto prefs = ring.preference(HashRing::hash_key(tag), 2);
    if (prefs[0] == kCrashed || prefs[1] == kCrashed) extra = tag;
  }

  auto trace = serve::poisson_trace(1200, 1000.0, 25);
  const auto n = static_cast<std::int64_t>(trace.size());
  std::int64_t empty_tags = 0, extra_tags = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    auto& req = trace[static_cast<std::size_t>(i)];
    req.id = 5000 - (i * 37) % n;  // 37 is coprime to 1200: a permutation
    req.slo = static_cast<serve::SloClass>(i % serve::kSloClassCount);
    if (i % 5 == 0) {
      ++empty_tags;
    } else if (i % 13 == 4 && req.arrival_s > 0.5) {
      req.tag = extra;  // first used after node 1's rejoin delay is set
      ++extra_tags;
    } else {
      req.tag = "m" + std::to_string(i % 3);
    }
  }
  ASSERT_GT(empty_tags, 0);
  ASSERT_GT(extra_tags, 0);

  std::vector<FakeNode> fakes;
  fakes.reserve(kNodes);
  std::vector<std::vector<core::Target*>> targets;
  for (int i = 0; i < kNodes; ++i) {
    fakes.emplace_back(i, 0.004 + 0.001 * (i % 3));
    targets.push_back(fakes.back().targets());
  }
  const auto r = Cluster(targets, cfg).run(trace);

  EXPECT_EQ(r.node_kills, 1);
  EXPECT_GT(r.node_rejoins, 0);
  EXPECT_GT(r.requests_replayed, 0);
  EXPECT_EQ(r.node_wedges, 1);
  EXPECT_GT(r.requests_hedged, 0);
  EXPECT_GT(r.dropped_deadline, 0);
  EXPECT_GT(r.requests_spilled, 0);
  EXPECT_EQ(accounted(r), r.offered);
  ASSERT_EQ(r.records.size(), trace.size());
  for (std::size_t i = 1; i < r.records.size(); ++i) {
    EXPECT_LT(r.records[i - 1].id, r.records[i].id);
  }

  ReportDigest d;
  d.report(r);
  EXPECT_EQ(d.h, 0x9064e039a355d0b3ULL);
}

// The clock a run ends on. Lost requests finish at the run's last event
// time, and with hedging on, the last events of this run are the hedge
// timers of requests that already completed. The loop retires such timers
// without an event, but their fire times must still reach that clock.
// Node 0, the sole replica of one of the two models, crashes for good;
// the requests it held are lost, while node 1 serves the other model to
// the end of the trace. The finish time and the digest were recorded when
// every stale timer still fired as an event.
TEST(Cluster, LostRequestsFinishAfterTheLastHedgeTimer) {
  ClusterConfig cfg;
  cfg.replication = 1;
  cfg.spill = false;
  cfg.node.batch_timeout_s = 0.01;
  cfg.node_health.max_probes = 1;  // node 0 is declared dead early
  cfg.faults.add(0, sim::FaultKind::kNodeCrash, 0.1, 1000.0);
  ASSERT_GT(cfg.hedge_slack_s, 0.0);

  const HashRing ring(2, cfg.vnodes, cfg.ring_seed);
  std::array<std::string, 2> tag;  // tag[n]: a model whose replica is n
  for (int k = 0; tag[0].empty() || tag[1].empty(); ++k) {
    const std::string t = "t" + std::to_string(k);
    std::string& slot = tag[static_cast<std::size_t>(
        ring.preference(HashRing::hash_key(t), 1).front())];
    if (slot.empty()) slot = t;
  }
  auto trace = serve::poisson_trace(300, 600.0, 11);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i].tag = tag[i % 2];

  FakeNode n0(0, 0.005), n1(1, 0.005);
  const auto r = Cluster({n0.targets(), n1.targets()}, cfg).run(trace);

  EXPECT_EQ(r.nodes_dead, 1);
  EXPECT_EQ(accounted(r), r.offered);
  ASSERT_GT(r.requests_lost, 0);
  for (const auto& rec : r.records) {
    if (rec.state != RequestState::kLost) continue;
    // Past the last completion: a completed request's timer fired last.
    EXPECT_GT(rec.finish_s, r.last_complete_s) << "request " << rec.id;
    EXPECT_EQ(rec.finish_s, 0x1.26808cef700e2p-1) << "request " << rec.id;
  }
  ReportDigest d;
  d.report(r);
  EXPECT_EQ(d.h, 0x9768efc3eadc255dULL);
}

// Spill-over routing: when every replica of a model is saturated the
// router overflows to any healthy node instead of bouncing the request.
TEST(Cluster, SpillAbsorbsReplicaHotspots) {
  auto run_with = [](bool spill) {
    FakeNode n0(0, 0.02), n1(1, 0.02), n2(2, 0.02);
    ClusterConfig cfg;
    cfg.models = 2;  // tiny catalogue concentrates load on few replicas
    cfg.spill = spill;
    cfg.node.queue_capacity = 4;
    cfg.node.batch_timeout_s = 0.01;
    Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
    return cl.run(serve::poisson_trace(200, 400.0, 13));
  };
  const auto without = run_with(false);
  const auto with = run_with(true);
  EXPECT_GT(without.rejected, 0);
  EXPECT_GT(with.requests_spilled, 0);
  EXPECT_LT(with.rejected, without.rejected);
  EXPECT_GT(with.completed, without.completed);
  EXPECT_EQ(without.requests_spilled, 0);
}

// The cluster trace must satisfy every offline invariant under chaos —
// the same bar the CI smoke holds cluster_loadgen to.
TEST(Cluster, StrictTraceIsLintClean) {
  auto& tracer = util::tracer();
  tracer.reset();
  tracer.set_enabled(true);
  tracer.set_lane_prefix("test-cluster ");
  {
    FakeNode n0(0, 0.005), n1(1, 0.005), n2(2, 0.005);
    ClusterConfig cfg;
    cfg.models = 8;
    cfg.node.batch_timeout_s = 0.01;
    cfg.faults.add(1, sim::FaultKind::kNodeCrash, 0.3, 0.4);
    Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
    const auto r = cl.run(serve::poisson_trace(200, 300.0, 15));
    EXPECT_EQ(r.requests_lost, 0);
  }
  const std::string json = tracer.to_json();
  tracer.set_enabled(false);
  tracer.set_lane_prefix("");

  std::string error;
  const auto lint = check::lint_trace_text(json, {}, &error);
  ASSERT_TRUE(lint.has_value()) << error;
  EXPECT_TRUE(lint->ok()) << lint->to_string();
  EXPECT_GT(lint->spans, 0u);
}

}  // namespace
