// The multi-tenant residency stack: serve::ResidencyManager placement
// policies, core::StickFleet calibration + swap lifecycle (under the
// strict NCAPI + serve verifiers), the serve::ZooServer event loop's
// accounting identities, and the trace lint's zoo-accounting rule.
#include "serve/residency.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/serve_check.h"
#include "check/tracelint.h"
#include "core/model.h"
#include "core/stick_fleet.h"
#include "mvnc/sim_host.h"
#include "serve/arrivals.h"
#include "serve/zoo_serve.h"
#include "util/rng.h"
#include "util/trace.h"

namespace {

using namespace ncsw;
using serve::Placement;
using serve::ResidencyConfig;
using serve::ResidencyManager;

// ---- ResidencyManager (pure policy) ---------------------------------------

TEST(Residency, PlacementNamesRoundTrip) {
  for (auto p :
       {Placement::kStatic, Placement::kLru, Placement::kCostAware}) {
    EXPECT_EQ(serve::placement_from_name(serve::placement_name(p)), p);
  }
  EXPECT_THROW(serve::placement_from_name("mru"), std::invalid_argument);
}

TEST(Residency, StaticPinsModelToStickModuloK) {
  ResidencyConfig cfg;
  cfg.placement = Placement::kStatic;
  ResidencyManager rm(2, 4, cfg);
  rm.install(0, 0, 0.0);
  rm.install(1, 1, 0.0);
  // Model 2 pins to stick 0, model 3 to stick 1 — regardless of recency.
  rm.touch(1, 5.0);  // stick 1 is hotter; static must not care
  EXPECT_EQ(rm.plan_swap(2, 10.0).stick, 0);
  EXPECT_EQ(rm.plan_swap(3, 10.0).stick, 1);
  EXPECT_EQ(rm.plan_swap(2, 10.0).victim, 0);
}

TEST(Residency, LruEvictsTheColdestStick) {
  ResidencyConfig cfg;
  cfg.placement = Placement::kLru;
  ResidencyManager rm(3, 4, cfg);
  rm.install(0, 0, 0.0);
  rm.install(1, 1, 0.0);
  rm.install(2, 2, 0.0);
  rm.touch(0, 3.0);
  rm.touch(1, 1.0);
  rm.touch(2, 2.0);
  const auto plan = rm.plan_swap(3, 10.0);
  EXPECT_EQ(plan.stick, 1);  // least recently used
  EXPECT_EQ(plan.victim, 1);
}

TEST(Residency, CostAwarePrefersTheCheapColdVictim) {
  ResidencyConfig cfg;
  cfg.placement = Placement::kCostAware;
  ResidencyManager rm(2, 3, cfg);
  rm.set_swap_cost(0, 10.0);  // expensive to bring back
  rm.set_swap_cost(1, 0.1);   // nearly free to bring back
  rm.set_swap_cost(2, 1.0);
  rm.install(0, 0, 0.0);
  rm.install(1, 1, 0.0);
  // Stick 0 (holding the expensive model) is *colder*, but the re-fetch
  // price dominates: evict stick 1's cheap graph instead.
  rm.touch(0, 1.0);
  rm.touch(1, 2.0);
  const auto plan = rm.plan_swap(2, 10.0);
  EXPECT_EQ(plan.stick, 1);
  EXPECT_EQ(plan.victim, 1);
}

TEST(Residency, EmptyStickAlwaysWins) {
  ResidencyConfig cfg;
  cfg.placement = Placement::kCostAware;
  ResidencyManager rm(2, 3, cfg);
  rm.set_swap_cost(0, 0.0);
  rm.install(0, 0, 0.0);
  rm.touch(0, 100.0);
  const auto plan = rm.plan_swap(2, 100.0);
  EXPECT_EQ(plan.stick, 1);
  EXPECT_EQ(plan.victim, -1);  // nothing evicted
}

TEST(Residency, HysteresisBlocksFreshInstallsThenUnlocks) {
  ResidencyConfig cfg;
  cfg.placement = Placement::kLru;
  cfg.min_residency_s = 5.0;
  ResidencyManager rm(2, 4, cfg);
  rm.install(0, 0, 0.0);
  rm.install(1, 1, 2.0);
  // At t=1 both sticks are inside their window: no victim.
  EXPECT_EQ(rm.plan_swap(2, 1.0).stick, -1);
  EXPECT_DOUBLE_EQ(rm.earliest_unlock_s(), 5.0);
  // At t=5 stick 0's window expired; stick 1 is locked until t=7.
  EXPECT_EQ(rm.plan_swap(2, 5.0).stick, 0);
  ResidencyConfig none;
  none.placement = Placement::kLru;
  ResidencyManager open(2, 4, none);
  open.install(0, 0, 0.0);
  EXPECT_LE(open.earliest_unlock_s(), 0.0);
}

TEST(Residency, RejectsNegativeOrNonFiniteHysteresis) {
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    ResidencyConfig cfg;
    cfg.min_residency_s = bad;
    EXPECT_THROW(ResidencyManager(2, 4, cfg), std::invalid_argument) << bad;
  }
}

TEST(Residency, ResidencyQueriesReflectInstalls) {
  ResidencyManager rm(3, 4);
  rm.install(0, 2, 0.0);
  rm.install(2, 2, 0.0);
  rm.install(1, 1, 0.0);
  EXPECT_TRUE(rm.is_resident(2));
  EXPECT_FALSE(rm.is_resident(3));
  EXPECT_EQ(rm.sticks_of(2), (std::vector<int>{0, 2}));
  EXPECT_EQ(rm.resident(1), 1);
}

// is_resident reads a per-model copy count that install() keeps. With
// more sticks than models the initial placement d % M holds a model on
// two sticks, so replacing one copy must leave the model resident.
TEST(ResidencyManager, IsResidentMatchesAScanOverRandomInstalls) {
  constexpr int kSticks = 5;
  constexpr int kModels = 3;
  util::Xoshiro256 rng(0x5eedULL);
  for (int round = 0; round < 20; ++round) {
    ResidencyManager rm(kSticks, kModels);
    for (int d = 0; d < kSticks; ++d) rm.install(d, d % kModels, 0.0);
    for (int step = 0; step < 200; ++step) {
      for (int m = 0; m < kModels; ++m) {
        ASSERT_EQ(rm.is_resident(m), !rm.sticks_of(m).empty())
            << "round " << round << " step " << step << " model " << m;
        ASSERT_EQ(rm.copies(m), static_cast<int>(rm.sticks_of(m).size()))
            << "round " << round << " step " << step << " model " << m;
      }
      rm.install(static_cast<int>(rng.next() % kSticks),
                 static_cast<int>(rng.next() % kModels),
                 static_cast<double>(step));
    }
  }
}

// ---- StickFleet (mvnc-backed swaps) ---------------------------------------

core::StickFleet make_fleet(int devices,
                            check::CheckMode mode = check::CheckMode::kOff) {
  std::vector<core::ZooModel> zoo;
  for (const auto& name : {"googlenet", "alexnet", "squeezenet", "tiny"}) {
    zoo.push_back({name, core::ModelBundle::zoo_reference(name)});
  }
  core::StickFleetConfig cfg;
  cfg.devices = devices;
  cfg.check = mode;
  return core::StickFleet(std::move(zoo), cfg);
}

TEST(StickFleet, CalibratedSwapCostsTrackBlobSize) {
  auto fleet = make_fleet(1);
  // alexnet's FC-heavy blob dwarfs the others; tiny is the smallest.
  const double alexnet = fleet.swap_in_cost_s(1);
  const double squeezenet = fleet.swap_in_cost_s(2);
  const double tiny = fleet.swap_in_cost_s(3);
  EXPECT_GT(tiny, 0.0);
  EXPECT_GT(alexnet, 10.0 * squeezenet);
  EXPECT_GT(squeezenet, tiny);
}

TEST(StickFleet, SwapInstallsNewResidentAndConserves) {
  auto fleet = make_fleet(2, check::CheckMode::kStrict);
  EXPECT_EQ(fleet.resident_model(0), 0);
  EXPECT_EQ(fleet.resident_model(1), 1);
  const std::int64_t installs0 = fleet.installs();
  const double done = fleet.swap_to(0, 2, 1.0);
  EXPECT_EQ(fleet.resident_model(0), 2);
  EXPECT_DOUBLE_EQ(done, 1.0 + fleet.swap_in_cost_s(2));
  EXPECT_EQ(fleet.installs(), installs0 + 1);
  EXPECT_EQ(fleet.swaps(), 1);
  // Conservation: installs - evicts == graphs still resident.
  EXPECT_EQ(fleet.installs() - fleet.evicts(), fleet.resident_count());
  // Swapping to the already-resident model is a free no-op returning
  // when the stick is next free.
  EXPECT_DOUBLE_EQ(fleet.swap_to(0, 2, 0.5), done);
  EXPECT_DOUBLE_EQ(fleet.swap_to(0, 2, done + 4.0), done + 4.0);
  EXPECT_EQ(fleet.swaps(), 1);
  EXPECT_THROW(fleet.swap_to(0, 99, 0.0), std::out_of_range);
}

TEST(StickFleet, SwapCarriesTheDeviceEpochForward) {
  check::serve_verifier().configure(check::CheckMode::kStrict);
  auto fleet = make_fleet(1, check::CheckMode::kStrict);
  // Run work so the resident graph's device clock advances past the
  // device's allocation cursor, then swap: the fresh graph must chain at
  // or after the retired work, not time-travel behind it.
  const auto before = fleet.stick(0).run_timed(4, 1);
  EXPECT_GT(before.seconds, 0.0);
  fleet.swap_to(0, 3, 0.0);
  const auto after = fleet.stick(0).run_timed(1, 1);
  EXPECT_GT(after.seconds, 0.0);
  EXPECT_EQ(check::serve_verifier().total(), 0u);
  check::serve_verifier().configure(check::CheckMode::kDefault);
}

// ---- ZooServer (event loop) -----------------------------------------------

std::vector<serve::ZooRequest> make_zoo_trace(std::int64_t n, double rate,
                                              std::uint64_t seed,
                                              int models) {
  serve::PoissonArrivals arrivals(rate, seed);
  std::vector<serve::ZooRequest> trace(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    auto& req = trace[static_cast<std::size_t>(i)];
    req.id = i;
    req.arrival_s = arrivals.next();
    req.model = static_cast<int>(i % models);
    req.slo = static_cast<serve::SloClass>(i % serve::kSloClassCount);
  }
  return trace;
}

TEST(ZooServer, AccountingIdentitiesHold) {
  check::serve_verifier().configure(check::CheckMode::kStrict);
  auto fleet = make_fleet(2, check::CheckMode::kStrict);
  serve::ZooConfig cfg;
  cfg.queue_capacity = 8;
  serve::ZooServer server(fleet, cfg);
  const auto report = server.run(make_zoo_trace(120, 30.0, 11, 4));
  EXPECT_EQ(report.offered, 120);
  EXPECT_EQ(report.offered,
            report.completed + report.rejected + report.dropped);
  EXPECT_EQ(report.hits + report.misses, report.accepted);
  EXPECT_EQ(report.installs - report.evicts, report.resident);
  std::int64_t class_offered = 0;
  for (const auto& c : report.classes) {
    EXPECT_EQ(c.offered, c.completed + c.rejected + c.dropped);
    class_offered += c.offered;
  }
  EXPECT_EQ(class_offered, report.offered);
  std::int64_t model_offered = 0;
  for (const auto& m : report.models) model_offered += m.offered;
  EXPECT_EQ(model_offered, report.offered);
  EXPECT_GT(report.completed, 0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
  check::serve_verifier().configure(check::CheckMode::kDefault);
}

TEST(ZooServer, ReplayIsByteDeterministic) {
  const auto trace = make_zoo_trace(100, 25.0, 3, 4);
  auto run_once = [&] {
    auto fleet = make_fleet(2);
    serve::ZooServer server(fleet);
    return server.run(trace);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_DOUBLE_EQ(a.swap_stall_s, b.swap_stall_s);
  EXPECT_DOUBLE_EQ(a.last_complete_s, b.last_complete_s);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
}

TEST(ZooServer, ClassQuotaRejectsOnlyTheThrottledClass) {
  auto fleet = make_fleet(1);
  serve::ZooConfig cfg;
  cfg.queue_capacity = 64;
  cfg.class_quota[static_cast<int>(serve::SloClass::kBatch)] = 0;
  serve::ZooServer server(fleet, cfg);
  const auto report = server.run(make_zoo_trace(60, 40.0, 5, 4));
  const auto& batch =
      report.classes[static_cast<int>(serve::SloClass::kBatch)];
  EXPECT_EQ(batch.completed, 0);
  EXPECT_EQ(batch.rejected, batch.offered);
  const auto& inter =
      report.classes[static_cast<int>(serve::SloClass::kInteractive)];
  EXPECT_GT(inter.completed, 0);
}

TEST(ZooServer, QueueDeadlineDropsStaleWork) {
  auto fleet = make_fleet(1);
  serve::ZooConfig cfg;
  cfg.queue_deadline_s = 1e-3;  // far below a swap's stall
  serve::ZooServer server(fleet, cfg);
  const auto report = server.run(make_zoo_trace(40, 50.0, 7, 4));
  EXPECT_GT(report.dropped, 0);
  EXPECT_EQ(report.offered,
            report.completed + report.rejected + report.dropped);
}

TEST(ZooServer, RejectsUnsortedTraces) {
  auto fleet = make_fleet(1);
  serve::ZooServer server(fleet);
  std::vector<serve::ZooRequest> bad(2);
  bad[0].arrival_s = 1.0;
  bad[1].arrival_s = 0.5;
  EXPECT_THROW(server.run(bad), std::invalid_argument);
  serve::ZooServer server2(fleet);
  std::vector<serve::ZooRequest> oob(1);
  oob[0].model = 99;
  EXPECT_THROW(server2.run(oob), std::invalid_argument);
  // Non-finite arrivals are rejected, not silently never offered.
  for (const double t : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    serve::ZooServer server3(fleet);
    std::vector<serve::ZooRequest> bad_time(2);
    bad_time[0].arrival_s = 1.0;
    bad_time[1].arrival_s = t;
    EXPECT_THROW(server3.run(bad_time), std::invalid_argument) << t;
  }
}

// ---- trace lint: zoo-accounting -------------------------------------------

class ZooLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::tracer().reset();
    util::tracer().set_enabled(true);
  }
  void TearDown() override {
    util::tracer().set_enabled(false);
    util::tracer().reset();
  }

  static bool has_issue(const check::LintReport& report,
                        const std::string& kind) {
    for (const auto& issue : report.issues) {
      if (issue.kind == kind) return true;
    }
    return false;
  }

  static check::LintReport lint_now() {
    std::string error;
    const auto report =
        check::lint_trace_text(util::tracer().to_json(), {}, &error);
    EXPECT_TRUE(report.has_value()) << error;
    return report.value_or(check::LintReport{});
  }
};

TEST_F(ZooLintTest, CleanZooRunPassesAndBrokenSummaryIsFlagged) {
  {
    auto fleet = make_fleet(2);
    serve::ZooServer server(fleet);
    const auto report = server.run(make_zoo_trace(80, 30.0, 17, 4));
    EXPECT_GT(report.swaps, 0);
  }
  const auto clean = lint_now();
  EXPECT_TRUE(clean.ok()) << clean.to_string();

  // A "zoo run" summary whose requests do not partition must trip the
  // zoo-accounting rule.
  util::tracer().reset();
  auto& t = util::tracer();
  t.complete("zoo", "zoo run", t.lane("zoo sched"), 0.0, 1.0,
             {util::TraceArg::num("offered", std::int64_t{10}),
              util::TraceArg::num("accepted", std::int64_t{8}),
              util::TraceArg::num("completed", std::int64_t{5}),
              util::TraceArg::num("rejected", std::int64_t{2}),
              util::TraceArg::num("dropped", std::int64_t{1}),
              util::TraceArg::num("hits", std::int64_t{4}),
              util::TraceArg::num("misses", std::int64_t{4}),
              util::TraceArg::num("swaps", std::int64_t{0})});
  EXPECT_TRUE(has_issue(lint_now(), "zoo-accounting"));
}

TEST_F(ZooLintTest, SwapSpanCountMustMatchTheSummaries) {
  auto& t = util::tracer();
  t.complete("zoo", "zoo run", t.lane("zoo sched"), 0.0, 1.0,
             {util::TraceArg::num("offered", std::int64_t{4}),
              util::TraceArg::num("accepted", std::int64_t{4}),
              util::TraceArg::num("completed", std::int64_t{4}),
              util::TraceArg::num("rejected", std::int64_t{0}),
              util::TraceArg::num("dropped", std::int64_t{0}),
              util::TraceArg::num("hits", std::int64_t{2}),
              util::TraceArg::num("misses", std::int64_t{2}),
              util::TraceArg::num("swaps", std::int64_t{2})});
  // Only one "swap" span for two reported swaps.
  t.complete("zoo", "swap", t.lane("zoo stick0"), 0.1, 0.2,
             {util::TraceArg::str("from", "a"),
              util::TraceArg::str("to", "b")});
  EXPECT_TRUE(has_issue(lint_now(), "zoo-accounting"));
}

}  // namespace
