// Serving frontend: admission control, deadline drops, the size/timeout
// batcher, the feedback dispatcher, trace/lint cleanliness, and the
// determinism contract.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "check/tracelint.h"
#include "core/host_target.h"
#include "core/vpu_target.h"
#include "serve/arrivals.h"
#include "util/trace.h"

namespace {

using namespace ncsw;
using serve::Outcome;
using serve::Request;
using serve::Server;
using serve::ServerConfig;

/// Deterministic analytic target: every image takes `per_image_s`,
/// regardless of batch size.
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

  int runs = 0;

 protected:
  core::TimedRun execute_batch(std::int64_t images, int,
                               double) override {
    ++runs;
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

std::vector<Request> burst_at(double t, std::int64_t n) {
  std::vector<Request> reqs(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    reqs[static_cast<std::size_t>(i)].id = i;
    reqs[static_cast<std::size_t>(i)].arrival_s = t;
  }
  return reqs;
}

TEST(Arrivals, PoissonIsSeededAndStrictlyIncreasing) {
  serve::PoissonArrivals a(100.0, 7), b(100.0, 7), c(100.0, 8);
  double prev = 0.0;
  bool any_diff = false;
  for (int i = 0; i < 1000; ++i) {
    const double t = a.next();
    EXPECT_GT(t, prev);
    prev = t;
    EXPECT_EQ(t, b.next());  // same seed, same trace
    any_diff = any_diff || t != c.next();
  }
  // 1000 arrivals at 100/s land near t = 10 s.
  EXPECT_NEAR(prev, 10.0, 2.0);
  EXPECT_TRUE(any_diff);
  EXPECT_THROW(serve::PoissonArrivals(0.0, 1), std::invalid_argument);
}

TEST(Arrivals, UniformPacesExactly) {
  serve::UniformArrivals u(0.5, 1.0);
  EXPECT_DOUBLE_EQ(u.next(), 1.0);
  EXPECT_DOUBLE_EQ(u.next(), 1.5);
}

TEST(Server, RejectsBadConfigAndUnsortedArrivals) {
  FakeTarget t("T", 0.01, 8);
  EXPECT_THROW(Server({}, {}), std::invalid_argument);
  EXPECT_THROW(Server({nullptr}, {}), std::invalid_argument);
  ServerConfig bad;
  bad.estimator_gain = 0.0;
  EXPECT_THROW(Server({&t}, bad), std::invalid_argument);

  Server server({&t});
  std::vector<Request> reqs = burst_at(1.0, 2);
  reqs[1].arrival_s = 0.5;
  EXPECT_THROW(server.run(reqs), std::invalid_argument);
}

TEST(Server, AdmissionRejectsWhenQueueIsFull) {
  FakeTarget t("T", 1.0, 1);
  ServerConfig cfg;
  cfg.queue_capacity = 4;
  cfg.max_batch = 1;
  Server server({&t}, cfg);
  const auto report = server.run(burst_at(0.0, 10));

  // First request dispatches immediately (batch of 1), four wait, the
  // other five bounce off the full queue.
  EXPECT_EQ(report.offered, 10);
  EXPECT_EQ(report.rejected, 5);
  EXPECT_EQ(report.completed, 5);
  EXPECT_EQ(report.dropped, 0);
  EXPECT_EQ(report.records[0].outcome, Outcome::kCompleted);
  for (int i = 5; i < 10; ++i) {
    EXPECT_EQ(report.records[static_cast<std::size_t>(i)].outcome,
              Outcome::kRejected);
  }
  EXPECT_EQ(report.max_queue_depth, 4u);
  EXPECT_EQ(report.offered,
            report.completed + report.rejected + report.dropped);
}

TEST(Server, QueueDeadlineDropsStaleRequests) {
  FakeTarget t("T", 1.0, 1);
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.queue_deadline_s = 0.1;
  Server server({&t}, cfg);
  std::vector<Request> reqs = burst_at(0.0, 1);
  Request late;
  late.id = 1;
  late.arrival_s = 0.01;  // queued behind a 1 s service; expires at 0.11
  reqs.push_back(late);
  const auto report = server.run(reqs);

  EXPECT_EQ(report.completed, 1);
  EXPECT_EQ(report.dropped, 1);
  EXPECT_EQ(report.records[1].outcome, Outcome::kDropped);
  EXPECT_DOUBLE_EQ(report.records[1].complete_s, 0.11);
  // Drops carry their reason: this one aged out of the queue.
  EXPECT_EQ(report.records[1].drop_reason, serve::DropReason::kDeadline);
  EXPECT_EQ(report.dropped_deadline, 1);
  EXPECT_EQ(report.dropped_inflight, 0);
  EXPECT_EQ(report.dropped_failover, 0);
  EXPECT_EQ(report.dropped,
            report.dropped_deadline + report.dropped_inflight +
                report.dropped_failover);
  EXPECT_STREQ(serve::drop_reason_name(serve::DropReason::kDeadline),
               "deadline");
  EXPECT_STREQ(serve::drop_reason_name(serve::DropReason::kInflightLost),
               "inflight-lost");
  EXPECT_STREQ(serve::drop_reason_name(serve::DropReason::kFailover),
               "failover");
}

TEST(Server, PartialBatchFlushesOnTimeout) {
  FakeTarget t("T", 0.001, 8);
  ServerConfig cfg;
  cfg.batch_timeout_s = 0.05;
  Server server({&t}, cfg);
  std::vector<Request> reqs = burst_at(0.0, 1);
  Request second;
  second.id = 1;
  second.arrival_s = 0.01;
  reqs.push_back(second);
  const auto report = server.run(reqs);

  // Neither arrival fills the batch; both leave in one flush at 0.05 s.
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(t.runs, 1);
  EXPECT_DOUBLE_EQ(report.records[0].dispatch_s, 0.05);
  EXPECT_DOUBLE_EQ(report.records[1].dispatch_s, 0.05);
  EXPECT_EQ(report.targets[0].batches, 1);
  EXPECT_EQ(report.targets[0].images, 2);
}

TEST(Server, FullBatchDispatchesWithoutWaiting) {
  FakeTarget t("T", 0.001, 8);
  Server server({&t});
  const auto report = server.run(burst_at(0.25, 8));
  EXPECT_EQ(t.runs, 1);
  EXPECT_EQ(report.completed, 8);
  EXPECT_DOUBLE_EQ(report.records[7].dispatch_s, 0.25);
  EXPECT_DOUBLE_EQ(report.records[0].queue_wait_s(), 0.0);
}

TEST(Server, DispatcherLearnsAndPrefersTheFasterTarget) {
  FakeTarget fast("fast", 0.002, 8);
  FakeTarget slow("slow", 0.02, 8);
  ServerConfig cfg;
  cfg.batch_timeout_s = 0.001;
  Server server({&slow, &fast}, cfg);  // slow listed first on purpose
  serve::UniformArrivals pace(0.002);
  std::vector<Request> reqs(400);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = static_cast<std::int64_t>(i);
    reqs[i].arrival_s = pace.next();
  }
  const auto report = server.run(reqs);

  EXPECT_EQ(report.completed, 400);
  // Both explored once, then the EWMA steers the bulk to the fast engine.
  EXPECT_GE(report.targets[0].batches, 1);
  EXPECT_GT(report.targets[1].images, 4 * report.targets[0].images);
  EXPECT_GT(report.targets[1].tput_est, report.targets[0].tput_est);
}

TEST(Server, SourceOverloadPullsPayloadsAndStampsArrivals) {
  FakeTarget t("T", 0.001, 8);
  Server server({&t});
  int produced = 0;
  core::StreamSource stream([&]() -> std::optional<core::SourceItem> {
    if (produced >= 5) return std::nullopt;
    core::SourceItem item;
    item.label = produced;
    item.id = "req" + std::to_string(produced++);
    return item;
  });
  serve::UniformArrivals pace(0.01);
  const auto report =
      server.run(stream, [&] { return pace.next(); }, /*limit=*/-1);

  EXPECT_EQ(report.offered, 5);
  EXPECT_EQ(report.completed, 5);
  EXPECT_EQ(report.records[3].request.tag, "req3");
  EXPECT_EQ(report.records[3].request.label, 3);
  EXPECT_DOUBLE_EQ(report.records[0].request.arrival_s, 0.0);
  EXPECT_DOUBLE_EQ(report.records[1].request.arrival_s, 0.01);
}

TEST(Server, ReplayIsByteDeterministic) {
  auto serve_once = [](std::uint64_t seed) {
    FakeTarget a("A", 0.004, 4), b("B", 0.009, 8);
    ServerConfig cfg;
    cfg.queue_capacity = 8;
    cfg.queue_deadline_s = 0.2;
    Server server({&a, &b}, cfg);
    return server.run(serve::poisson_trace(300, 400.0, seed));
  };
  const auto r1 = serve_once(11), r2 = serve_once(11), r3 = serve_once(12);
  ASSERT_EQ(r1.records.size(), r2.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].outcome, r2.records[i].outcome);
    EXPECT_EQ(r1.records[i].target, r2.records[i].target);
    EXPECT_DOUBLE_EQ(r1.records[i].complete_s, r2.records[i].complete_s);
  }
  EXPECT_DOUBLE_EQ(r1.p99_ms, r2.p99_ms);
  // Different seed, different trace (sanity that the comparison bites).
  EXPECT_NE(r1.last_complete_s, r3.last_complete_s);
}

// The session memoises next_complete_s/next_drop_s/next_flush_s and
// recomputes them only after a public mutator ran, and keeps its
// in-flight count as it goes. Step one session through each of the five
// mutators and check the exact times and count after every call: a
// mutator that forgot to invalidate or to count leaves a stale value.
TEST(Session, NextEventTimesTrackEveryMutation) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  FakeTarget a("A", 0.01, 4), b("B", 0.02, 4);
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_timeout_s = 0.02;   // flush before the deadline...
  cfg.queue_deadline_s = 0.03;  // ...unless no engine is idle
  serve::Session s({&a, &b}, cfg);
  auto expect_times = [&](double complete, double drop, double flush) {
    EXPECT_EQ(s.next_complete_s(), complete);
    EXPECT_EQ(s.next_drop_s(), drop);
    EXPECT_EQ(s.next_flush_s(), flush);
  };
  std::int64_t id = 0;
  auto offer = [&](double t) {
    Request req;
    req.id = id++;
    req.arrival_s = t;
    return s.offer(req, static_cast<std::size_t>(req.id), t);
  };

  {
    SCOPED_TRACE("fresh");
    expect_times(kInf, kInf, kInf);
    EXPECT_EQ(s.inflight(), 0u);
  }
  {
    SCOPED_TRACE("offer: one queued request, both engines idle");
    ASSERT_TRUE(offer(0.0));
    expect_times(kInf, 0.0 + 0.03, 0.0 + 0.02);
  }
  {
    SCOPED_TRACE("on_flush: the partial batch goes to A");
    s.on_flush(0.02);
    expect_times(0.02 + 0.01 * 1.0, kInf, kInf);
    EXPECT_EQ(s.inflight(), 1u);
  }
  {
    SCOPED_TRACE("offer: a full batch fills B's window");
    ASSERT_TRUE(offer(0.025));
    expect_times(0.02 + 0.01 * 1.0, 0.025 + 0.03, 0.025 + 0.02);
    for (int k = 0; k < 3; ++k) ASSERT_TRUE(offer(0.025));
    expect_times(0.02 + 0.01 * 1.0, kInf, kInf);
    EXPECT_EQ(s.inflight(), 5u);
  }
  {
    SCOPED_TRACE("offer: queued behind two busy engines, no flush");
    ASSERT_TRUE(offer(0.026));
    expect_times(0.02 + 0.01 * 1.0, 0.026 + 0.03, kInf);
  }
  {
    SCOPED_TRACE("on_complete: A frees up, so the flush reappears");
    s.on_complete(0.03);
    expect_times(0.025 + 0.02 * 4.0, 0.026 + 0.03, 0.026 + 0.02);
    EXPECT_EQ(s.inflight(), 4u);
  }
  {
    SCOPED_TRACE("offer: a second full batch takes A again");
    for (int k = 0; k < 3; ++k) ASSERT_TRUE(offer(0.031));
    expect_times(0.031 + 0.01 * 4.0, kInf, kInf);
    ASSERT_TRUE(offer(0.032));
    expect_times(0.031 + 0.01 * 4.0, 0.032 + 0.03, kInf);
    EXPECT_EQ(s.inflight(), 8u);
  }
  {
    SCOPED_TRACE("on_drop: the stranded head ages out");
    s.on_drop(0.032 + 0.03);
    expect_times(0.031 + 0.01 * 4.0, kInf, kInf);
  }
  {
    SCOPED_TRACE("evict_all: both flights and the queue leave");
    ASSERT_TRUE(offer(0.064));
    expect_times(0.031 + 0.01 * 4.0, 0.064 + 0.03, kInf);
    EXPECT_EQ(s.evict_all(0.065).size(), 9u);
    expect_times(kInf, kInf, kInf);
    EXPECT_EQ(s.inflight(), 0u);
  }
  {
    SCOPED_TRACE("offer after eviction: both engines idle again");
    ASSERT_TRUE(offer(0.07));
    expect_times(kInf, 0.07 + 0.03, 0.07 + 0.02);
  }
}

TEST(Server, AccountingIdentityHoldsUnderOverload) {
  FakeTarget t("T", 0.05, 2);
  ServerConfig cfg;
  cfg.queue_capacity = 3;
  cfg.queue_deadline_s = 0.15;
  Server server({&t}, cfg);
  serve::PoissonArrivals arrivals(200.0, 3);  // ~10x the capacity
  std::vector<Request> reqs(500);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = static_cast<std::int64_t>(i);
    reqs[i].arrival_s = arrivals.next();
  }
  const auto report = server.run(reqs);
  EXPECT_EQ(report.offered, 500);
  EXPECT_GT(report.rejected, 0);
  EXPECT_GT(report.dropped, 0);
  EXPECT_EQ(report.offered,
            report.completed + report.rejected + report.dropped);
  // The by-reason breakdown partitions the drop count.
  EXPECT_EQ(report.dropped,
            report.dropped_deadline + report.dropped_inflight +
                report.dropped_failover);
  EXPECT_EQ(report.dropped_deadline, report.dropped);  // no faults here
  std::int64_t target_images = 0;
  for (const auto& ts : report.targets) target_images += ts.images;
  EXPECT_EQ(target_images, report.completed);
}

// A stick dies mid-serve: the self-healing VPU runner replays its images
// and the dispatcher's estimate sinks, shifting load to the CPU — but no
// accepted request is lost.
TEST(Server, QuarantineRebalancesWithZeroLostImages) {
  auto bundle = core::ModelBundle::googlenet_reference();
  auto cpu = core::make_cpu_target(bundle);
  core::VpuTargetConfig vcfg;
  vcfg.devices = 2;
  vcfg.faults.add(1, sim::FaultKind::kDetach, 0.05, 30.0);
  core::VpuTarget vpu(bundle, vcfg);
  ServerConfig cfg;
  cfg.queue_capacity = 256;
  cfg.batch_timeout_s = 0.02;
  Server server({cpu.get(), &vpu}, cfg);
  serve::PoissonArrivals arrivals(60.0, 5);
  std::vector<Request> reqs(120);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = static_cast<std::int64_t>(i);
    reqs[i].arrival_s = arrivals.next();
  }
  const auto report = server.run(reqs);

  EXPECT_EQ(report.completed, 120);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.dropped, 0);
  std::int64_t lost = 0, vpu_images = 0;
  for (const auto& ts : report.targets) lost += ts.images_lost;
  EXPECT_EQ(lost, 0);
  EXPECT_EQ(report.targets[0].images + report.targets[1].images, 120);
  vpu_images = report.targets[1].images;
  EXPECT_GT(vpu_images, 0);
  EXPECT_GT(report.targets[0].images, 0);
}

// The serve trace must satisfy every offline invariant (monotonic clock,
// nested-or-disjoint spans per lane) with the runtime verifier in strict
// mode — the same bar the CI smoke holds serve_loadgen to.
TEST(Server, ClassQuotaCapsOneClassWithoutTouchingOthers) {
  FakeTarget t("T", 0.01, 4);
  ServerConfig cfg;
  cfg.queue_capacity = 32;
  cfg.class_quota[static_cast<int>(serve::SloClass::kBatch)] = 2;
  Server server({&t}, cfg);
  auto reqs = burst_at(0.0, 12);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].slo = i < 8 ? serve::SloClass::kBatch
                        : serve::SloClass::kInteractive;
  }
  const auto report = server.run(reqs);
  const auto& batch = report.classes[static_cast<int>(serve::SloClass::kBatch)];
  const auto& inter =
      report.classes[static_cast<int>(serve::SloClass::kInteractive)];
  // The burst lands at one instant: only 2 batch requests fit the quota,
  // the other 6 bounce; interactive admission is untouched.
  EXPECT_EQ(batch.offered, 8);
  EXPECT_EQ(batch.rejected, 6);
  EXPECT_EQ(batch.completed, 2);
  EXPECT_EQ(inter.offered, 4);
  EXPECT_EQ(inter.rejected, 0);
  EXPECT_EQ(inter.completed, 4);
}

TEST(Server, ClassRollupsPartitionTheSessionTotals) {
  FakeTarget t("T", 0.02, 2);
  ServerConfig cfg;
  cfg.queue_capacity = 4;
  Server server({&t}, cfg);
  auto reqs = burst_at(0.0, 9);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].slo = static_cast<serve::SloClass>(i % serve::kSloClassCount);
  }
  const auto report = server.run(reqs);
  std::int64_t offered = 0, completed = 0, rejected = 0, dropped = 0;
  for (const auto& c : report.classes) {
    EXPECT_EQ(c.offered, c.completed + c.rejected + c.dropped);
    offered += c.offered;
    completed += c.completed;
    rejected += c.rejected;
    dropped += c.dropped;
  }
  EXPECT_EQ(offered, report.offered);
  EXPECT_EQ(completed, report.completed);
  EXPECT_EQ(rejected, report.rejected);
  EXPECT_EQ(dropped, report.dropped);
  const auto& std_class =
      report.classes[static_cast<int>(serve::SloClass::kStandard)];
  EXPECT_GT(std_class.completed, 0);
  EXPECT_GT(std_class.p99_ms, 0.0);
}

TEST(Server, DefaultQuotasKeepClassBlindAccountingIdentical) {
  // The same trace with and without SloClass stamps must produce the
  // same aggregate outcome: unbounded quotas are class-blind.
  auto run_with = [](bool stamp) {
    FakeTarget t("T", 0.01, 4);
    ServerConfig cfg;
    cfg.queue_capacity = 8;
    Server server({&t}, cfg);
    auto reqs = burst_at(0.0, 20);
    if (stamp) {
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].slo = static_cast<serve::SloClass>(i % serve::kSloClassCount);
      }
    }
    return server.run(reqs);
  };
  const auto plain = run_with(false);
  const auto stamped = run_with(true);
  EXPECT_EQ(plain.completed, stamped.completed);
  EXPECT_EQ(plain.rejected, stamped.rejected);
  EXPECT_DOUBLE_EQ(plain.last_complete_s, stamped.last_complete_s);
}

TEST(Server, StrictTraceIsLintClean) {
  auto& tracer = util::tracer();
  tracer.reset();
  tracer.set_enabled(true);
  tracer.set_lane_prefix("test-serve ");
  {
    auto bundle = core::ModelBundle::googlenet_reference();
    auto cpu = core::make_cpu_target(bundle);
    core::VpuTargetConfig vcfg;
    vcfg.devices = 2;
    vcfg.check = check::CheckMode::kStrict;
    core::VpuTarget vpu(bundle, vcfg);
    ServerConfig cfg;
    cfg.queue_capacity = 16;
    cfg.queue_deadline_s = 0.5;
    Server server({cpu.get(), &vpu}, cfg);
    serve::PoissonArrivals arrivals(80.0, 9);
    std::vector<Request> reqs(150);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].id = static_cast<std::int64_t>(i);
      reqs[i].arrival_s = arrivals.next();
    }
    const auto report = server.run(reqs);
    EXPECT_EQ(report.offered,
              report.completed + report.rejected + report.dropped);
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
