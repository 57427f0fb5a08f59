// Schedule-perturbation determinism checker (check/schedfuzz.h): the
// fuzzer must leave commuting schedules invariant, catch a genuinely
// order-dependent tie, and minimise a divergence to the single tie
// decision that flips the result.
#include "check/schedfuzz.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/stick_fleet.h"
#include "core/target.h"
#include "serve/event_picker.h"
#include "serve/server.h"
#include "serve/zoo_serve.h"

namespace {

using namespace ncsw;
using check::Fingerprint;
using check::SchedFuzzConfig;
using check::SchedFuzzReport;
using check::Scenario;
using serve::EventPicker;
using serve::LoopEvent;
using serve::LoopEventKind;

/// Deterministic analytic target (same shape as test_serve's).
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
  BatchExec execute_batch(std::int64_t images, int,
                          double submit_s) override {
    BatchExec exec;
    exec.run.images = images;
    exec.run.seconds = per_image_s_ * static_cast<double>(images);
    exec.start_s = std::max(submit_s, free_s_);
    exec.complete_s = exec.start_s + exec.run.seconds;
    free_s_ = exec.complete_s;
    return exec;
  }

 private:
  std::string label_;
  double per_image_s_;
  int max_batch_;
  double free_s_ = 0.0;
};

/// Requests every `gap_s`, ids 0..n-1.
std::vector<serve::Request> paced(std::int64_t n, double gap_s) {
  std::vector<serve::Request> reqs(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    reqs[static_cast<std::size_t>(i)].id = i;
    reqs[static_cast<std::size_t>(i)].arrival_s =
        gap_s * static_cast<double>(i + 1);
  }
  return reqs;
}

// ---- EventPicker -----------------------------------------------------------

/// Records every tie group handed to the installed hook and answers
/// with a fixed pick.
struct RecordingHook {
  std::vector<std::vector<LoopEvent>> groups;
  std::size_t answer = 0;

  serve::TieBreak hook() {
    return [this](double, const std::vector<LoopEvent>& tied) {
      groups.push_back(tied);
      return answer;
    };
  }
};

TEST(EventPicker, PicksTheLexicographicMinOfTimeTableAndIndex) {
  EventPicker picker(cluster::kClusterEventOrder);
  picker.clear();
  EXPECT_FALSE(picker.pick().has_value());
  // Unscheduled candidates (+inf, NaN) are never picked.
  picker.offer(LoopEventKind::kArrive, 0,
               std::numeric_limits<double>::infinity());
  picker.offer(LoopEventKind::kArrive, 0,
               std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(picker.pick().has_value());
  // Time first: a later complete loses to an earlier flush.
  picker.offer(LoopEventKind::kComplete, 0, 2.0);
  picker.offer(LoopEventKind::kFlush, 3, 1.0);
  EXPECT_EQ(picker.pick()->kind, LoopEventKind::kFlush);
  // Then table position: at t = 1 the fault outranks the flush.
  picker.offer(LoopEventKind::kFault, 5, 1.0);
  EXPECT_EQ(picker.pick()->kind, LoopEventKind::kFault);
  // Then index, whatever the offer order.
  picker.offer(LoopEventKind::kFault, 2, 1.0);
  picker.offer(LoopEventKind::kFault, 4, 1.0);
  const auto ev = picker.pick();
  EXPECT_EQ(ev->kind, LoopEventKind::kFault);
  EXPECT_EQ(ev->index, 2);
  EXPECT_EQ(ev->t, 1.0);
  picker.clear();
  EXPECT_FALSE(picker.pick().has_value());
}

TEST(EventPicker, OrderComesFromTheTableNotTheEnum) {
  // The enum lists kDrop before kReady; the zoo table puts ready first.
  EventPicker zoo(serve::kZooEventOrder);
  zoo.clear();
  zoo.offer(LoopEventKind::kDrop, 0, 1.0);
  zoo.offer(LoopEventKind::kReady, 7, 1.0);
  EXPECT_EQ(zoo.pick()->kind, LoopEventKind::kReady);
  EventPicker cluster_picker(cluster::kClusterEventOrder);
  cluster_picker.clear();
  cluster_picker.offer(LoopEventKind::kReady, 0, 1.0);
  cluster_picker.offer(LoopEventKind::kDrop, 7, 1.0);
  EXPECT_EQ(cluster_picker.pick()->kind, LoopEventKind::kDrop);
  // A kind the loop's table does not list is a logic error.
  EXPECT_THROW(zoo.offer(LoopEventKind::kFlush, 0, 1.0), std::logic_error);
}

TEST(EventPicker, HookSeesTheFullTiedSetInProductionOrder) {
  RecordingHook rec;
  const serve::ScopedTieBreak scope(rec.hook());
  EventPicker picker(serve::kZooEventOrder);
  picker.clear();
  picker.offer(LoopEventKind::kArrive, 0, 3.0);
  picker.offer(LoopEventKind::kDrop, 5, 3.0);
  picker.offer(LoopEventKind::kComplete, 1, 9.0);  // later: not tied
  picker.offer(LoopEventKind::kDrop, 2, 3.0);
  picker.offer(LoopEventKind::kReady, 1, 3.0);
  picker.offer(LoopEventKind::kComplete, 0, 3.0);
  (void)picker.pick();
  ASSERT_EQ(rec.groups.size(), 1u);
  const auto& g = rec.groups[0];
  ASSERT_EQ(g.size(), 5u);
  const std::vector<std::pair<LoopEventKind, int>> want = {
      {LoopEventKind::kComplete, 0}, {LoopEventKind::kReady, 1},
      {LoopEventKind::kDrop, 2},     {LoopEventKind::kDrop, 5},
      {LoopEventKind::kArrive, 0}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(g[i].kind, want[i].first) << i;
    EXPECT_EQ(g[i].index, want[i].second) << i;
    EXPECT_EQ(g[i].t, 3.0);
  }
  // A lone candidate at the earliest time is no tie: the hook stays out.
  picker.clear();
  picker.offer(LoopEventKind::kArrive, 0, 1.0);
  picker.offer(LoopEventKind::kComplete, 0, 2.0);
  EXPECT_EQ(picker.pick()->kind, LoopEventKind::kArrive);
  EXPECT_EQ(rec.groups.size(), 1u);
}

TEST(EventPicker, HookIndexZeroMatchesTheProductionPick) {
  // Same candidates, same order of offers: with and without a hook that
  // always answers 0, every pick agrees.
  auto run = [] {
    std::vector<LoopEvent> picks;
    EventPicker picker(cluster::kClusterEventOrder);
    for (int round = 0; round < 6; ++round) {
      picker.clear();
      for (int node = 3; node >= 0; --node) {
        picker.offer(LoopEventKind::kFlush, node, 1.0 + (node + round) % 2);
        picker.offer(LoopEventKind::kProbe, node, 1.0 + (node * round) % 3);
        picker.offer(LoopEventKind::kComplete, node, 1.0 + node % 2);
      }
      picks.push_back(*picker.pick());
    }
    return picks;
  };
  const auto plain = run();
  RecordingHook rec;
  std::vector<LoopEvent> hooked;
  {
    const serve::ScopedTieBreak scope(rec.hook());
    hooked = run();
  }
  EXPECT_FALSE(rec.groups.empty());
  ASSERT_EQ(plain.size(), hooked.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].kind, hooked[i].kind) << i;
    EXPECT_EQ(plain[i].index, hooked[i].index) << i;
    EXPECT_EQ(plain[i].t, hooked[i].t) << i;
  }
  // The scope restored the previous (absent) hook.
  const std::size_t seen = rec.groups.size();
  (void)run();
  EXPECT_EQ(rec.groups.size(), seen);
}

TEST(EventPicker, OutOfRangeHookPickWrapsModuloTheTieCount) {
  RecordingHook rec;
  rec.answer = 7;  // 7 % 3 == 1
  const serve::ScopedTieBreak scope(rec.hook());
  EventPicker picker(serve::kServerEventOrder);
  picker.clear();
  picker.offer(LoopEventKind::kFlush, 0, 1.0);
  picker.offer(LoopEventKind::kArrive, 0, 1.0);
  picker.offer(LoopEventKind::kComplete, 0, 1.0);
  EXPECT_EQ(picker.pick()->kind, LoopEventKind::kArrive);
}

TEST(Fingerprint, IsSensitiveToReportDifferences) {
  serve::ServeReport a;
  a.offered = 10;
  a.completed = 8;
  serve::ServeReport b = a;
  EXPECT_EQ(check::fingerprint(a), check::fingerprint(b));
  b.completed = 7;
  EXPECT_NE(check::fingerprint(a), check::fingerprint(b));
  // Per-record changes show up even when every total agrees.
  serve::RequestRecord rec;
  rec.request.id = 1;
  a.records.push_back(rec);
  b = a;
  b.records[0].complete_s = 0.5;
  b.completed = 8;
  EXPECT_NE(check::fingerprint(a), check::fingerprint(b));
}

TEST(SchedFuzz, SyntheticCommutingScenarioIsInvariant) {
  // The scenario presents tie groups but its result ignores the picks.
  Scenario scenario = [] {
    serve::EventPicker picker(serve::kServerEventOrder);
    for (int i = 0; i < 5; ++i) {
      picker.clear();
      picker.offer(serve::LoopEventKind::kComplete, 0, 1.0);
      picker.offer(serve::LoopEventKind::kArrive, 0, 1.0);
      (void)picker.pick();
    }
    return Fingerprint{{"result", "constant"}};
  };
  SchedFuzzConfig cfg;
  cfg.seeds = 8;
  const SchedFuzzReport report = check::fuzz_schedule(scenario, cfg);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.seeds_run, 8);
  EXPECT_EQ(report.ties_seen, 40);
  EXPECT_GT(report.perturbed, 0);
}

TEST(SchedFuzz, SyntheticOrderDependenceIsCaughtAndMinimized) {
  // The third of four tie groups is the only one whose pick leaks into
  // the result: minimisation must land exactly there.
  Scenario scenario = [] {
    bool leak = false;
    serve::EventPicker picker(serve::kServerEventOrder);
    for (int i = 0; i < 4; ++i) {
      picker.clear();
      picker.offer(serve::LoopEventKind::kFlush, 0, 2.0);
      picker.offer(serve::LoopEventKind::kDrop, 0, 2.0);
      const bool flushed =
          picker.pick()->kind == serve::LoopEventKind::kFlush;
      if (i == 2) leak = flushed;
    }
    return Fingerprint{{"leak", leak ? "flush" : "drop"}};
  };
  SchedFuzzConfig cfg;
  cfg.seeds = 32;  // plenty of chances to flip decision #2
  const SchedFuzzReport report = check::fuzz_schedule(scenario, cfg);
  ASSERT_FALSE(report.ok());
  const auto& div = report.divergences.front();
  EXPECT_EQ(div.minimized_index, 2);
  EXPECT_NE(div.minimized_choice.find("drop"), std::string::npos);
  ASSERT_FALSE(div.diffs.empty());
  EXPECT_NE(div.diffs[0].find("leak"), std::string::npos);
}

TEST(SchedFuzz, RealServeTieDivergenceIsDetected) {
  // A genuinely order-ambiguous schedule: service takes 0.10s, arrivals
  // land every 0.05s, the queue holds one waiter. At t = 0.15 a batch
  // completion (freeing the queue) and an arrival (finding it full)
  // tie; complete-first admits the arrival, arrive-first rejects it.
  Scenario scenario = [] {
    FakeTarget t("T", 0.10, 1);
    serve::ServerConfig cfg;
    cfg.queue_capacity = 1;
    cfg.max_batch = 1;
    cfg.trace_requests = false;
    serve::Server server({&t}, cfg);
    return check::fingerprint(server.run(paced(12, 0.05)));
  };
  SchedFuzzConfig cfg;
  cfg.seeds = 16;
  const SchedFuzzReport report = check::fuzz_schedule(scenario, cfg);
  EXPECT_GT(report.ties_seen, 0);
  ASSERT_FALSE(report.ok());
  const auto& div = report.divergences.front();
  EXPECT_GE(div.minimized_index, 0);
  ASSERT_FALSE(div.diffs.empty());
  // The admission decision is what flipped.
  bool mentions_admission = false;
  for (const auto& d : div.diffs) {
    if (d.find("rejected") != std::string::npos ||
        d.find("completed") != std::string::npos ||
        d.find("records") != std::string::npos) {
      mentions_admission = true;
    }
  }
  EXPECT_TRUE(mentions_admission);
}

TEST(SchedFuzz, RealServeCommutingTiesStayInvariant) {
  // Same tie times, but the queue never fills: completion-vs-arrival
  // order cannot change admission, so every permutation agrees.
  Scenario scenario = [] {
    FakeTarget t("T", 0.10, 1);
    serve::ServerConfig cfg;
    cfg.queue_capacity = 64;
    cfg.max_batch = 1;
    cfg.trace_requests = false;
    serve::Server server({&t}, cfg);
    return check::fingerprint(server.run(paced(12, 0.05)));
  };
  SchedFuzzConfig cfg;
  cfg.seeds = 16;
  const SchedFuzzReport report = check::fuzz_schedule(scenario, cfg);
  EXPECT_GT(report.ties_seen, 0);
  EXPECT_TRUE(report.ok()) << report.divergences.front().to_string();
}

/// A 2-stick StickFleet serving four zoo tenants under cost-aware
/// residency; requests cycle through models and SLO classes.
Scenario zoo_scenario(std::size_t capacity, double deadline_s,
                      std::vector<double> arrivals) {
  return [=] {
    std::vector<core::ZooModel> zoo;
    for (const char* name : {"googlenet", "alexnet", "squeezenet", "tiny"}) {
      zoo.push_back({name, core::ModelBundle::zoo_reference(name)});
    }
    core::StickFleetConfig fcfg;
    fcfg.devices = 2;
    fcfg.check = check::CheckMode::kOff;
    core::StickFleet fleet(std::move(zoo), fcfg);
    serve::ZooConfig cfg;
    cfg.residency.placement = serve::Placement::kCostAware;
    cfg.queue_capacity = capacity;
    cfg.queue_deadline_s = deadline_s;
    std::vector<serve::ZooRequest> trace(arrivals.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      trace[i].id = static_cast<std::int64_t>(i);
      trace[i].arrival_s = arrivals[i];
      trace[i].model = static_cast<int>((i * 5 / 3) % 4 == 1 ? 3 : i % 3);
      trace[i].slo = static_cast<serve::SloClass>(i % serve::kSloClassCount);
    }
    serve::ZooServer server(fleet, cfg);
    return check::fingerprint(server.run(trace));
  };
}

TEST(SchedFuzz, RealZooCommutingTiesStayInvariant) {
  // Arrivals on a 40ms grid with deadlines on the same grid: drops tie
  // with arrivals and with each other. The queue never fills, so
  // admission is order-blind, and in this shape every permutation of
  // those ties yields the same report.
  std::vector<double> arrivals;
  for (int i = 0; i < 60; ++i) arrivals.push_back(0.040 * (i / 2 + 1));
  SchedFuzzConfig cfg;
  cfg.seeds = 8;
  const SchedFuzzReport report =
      check::fuzz_schedule(zoo_scenario(64, 0.400, arrivals), cfg);
  EXPECT_EQ(report.seeds_run, 8);
  EXPECT_GT(report.ties_seen, 0);
  EXPECT_TRUE(report.ok()) << report.divergences.front().to_string();
}

TEST(SchedFuzz, RealZooDeadlineTieDivergenceIsDetected) {
  // Pairs of arrivals every 10ms, deadlines on the same grid: at
  // t = 0.22 a queue head's deadline ties with an arrival. Drop-first
  // runs the swap-or-dispatch pass without the stale head; arrive-first
  // runs it with the head still queued, and the swap plan differs.
  std::vector<double> arrivals;
  for (int i = 0; i < 48; ++i) arrivals.push_back(0.010 * (i / 2 + 1));
  SchedFuzzConfig cfg;
  cfg.seeds = 8;
  const SchedFuzzReport report =
      check::fuzz_schedule(zoo_scenario(16, 0.200, arrivals), cfg);
  EXPECT_GT(report.ties_seen, 0);
  ASSERT_FALSE(report.ok());
  const auto& div = report.divergences.front();
  EXPECT_GE(div.minimized_index, 0);
  EXPECT_NE(div.minimized_choice.find("drop"), std::string::npos)
      << div.to_string();
}

}  // namespace
