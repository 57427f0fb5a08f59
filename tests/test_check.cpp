// NCAPI protocol verifier (check/protocol.h) and offline trace lint
// (check/tracelint.h): one case per violation class, strict-vs-log
// behaviour, the zero-overhead/byte-identical guarantee of kOff, and
// the lint's invariants over well-formed and hand-broken traces.
#include "check/protocol.h"
#include "check/serve_check.h"
#include "check/tracelint.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/application.h"
#include "core/model.h"
#include "core/vpu_target.h"
#include "dataset/synthetic.h"
#include "mvnc/mvnc.h"
#include "mvnc/sim_host.h"
#include "nn/googlenet.h"
#include "sim/fault.h"
#include "util/trace.h"

namespace {

using namespace ncsw;
using namespace ncsw::mvnc;
using check::CheckMode;
using check::ProtocolViolation;
using check::verifier;
using check::ViolationKind;

std::vector<std::uint8_t> tiny_blob() {
  static const auto blob = graphc::serialize(graphc::compile(
      nn::build_tiny_googlenet({32, 10}), graphc::Precision::kFP16));
  return blob;
}

// Drives the NCAPI directly with a chosen verifier mode; every case
// resets the host (and with it the verifier's tracked state).
class CheckTest : public ::testing::Test {
 protected:
  void TearDown() override {
    HostConfig empty;
    empty.devices = 0;
    empty.check = CheckMode::kOff;
    host_reset(empty);
    check::set_default_mode(CheckMode::kDefault);
  }

  void reset(CheckMode mode, sim::FaultPlan faults = {}) {
    HostConfig cfg;
    cfg.devices = 2;
    cfg.check = mode;
    cfg.faults = std::move(faults);
    host_reset(cfg);
  }

  void* open(int index = 0) {
    char name[64];
    EXPECT_EQ(mvncGetDeviceName(index, name, sizeof(name)), MVNC_OK);
    void* dev = nullptr;
    EXPECT_EQ(mvncOpenDevice(name, &dev), MVNC_OK);
    return dev;
  }

  void* allocate(void* dev) {
    const auto blob = tiny_blob();
    void* graph = nullptr;
    EXPECT_EQ(mvncAllocateGraph(dev, &graph, blob.data(),
                                static_cast<unsigned int>(blob.size())),
              MVNC_OK);
    return graph;
  }

  mvncStatus load(void* graph) {
    std::vector<fp16::half> input(3 * 32 * 32);
    return mvncLoadTensor(graph, input.data(),
                          static_cast<unsigned int>(input.size() * 2),
                          nullptr);
  }

  mvncStatus get(void* graph) {
    void* out = nullptr;
    unsigned int len = 0;
    return mvncGetResult(graph, &out, &len, nullptr);
  }
};

// ---- mode plumbing --------------------------------------------------------

TEST_F(CheckTest, ModeNamesAndParsingRoundTrip) {
  EXPECT_STREQ(check::check_mode_name(CheckMode::kOff), "off");
  EXPECT_STREQ(check::check_mode_name(CheckMode::kLog), "log");
  EXPECT_STREQ(check::check_mode_name(CheckMode::kStrict), "strict");
  EXPECT_STREQ(check::check_mode_name(CheckMode::kDefault), "default");
  EXPECT_EQ(check::parse_check_mode("log"), CheckMode::kLog);
  EXPECT_EQ(check::parse_check_mode("strict"), CheckMode::kStrict);
  EXPECT_EQ(check::parse_check_mode("off"), CheckMode::kOff);
  EXPECT_EQ(check::parse_check_mode("garbage"), CheckMode::kOff);
}

TEST_F(CheckTest, DefaultModeResolvesThroughSetterThenEnvironment) {
  // Explicit modes pass through untouched.
  EXPECT_EQ(check::resolve_mode(CheckMode::kLog), CheckMode::kLog);
  EXPECT_EQ(check::resolve_mode(CheckMode::kStrict), CheckMode::kStrict);

  const char* saved = std::getenv("NCSW_CHECK");
  const std::string saved_value = saved ? saved : "";

  // set_default_mode wins over the environment.
  ::setenv("NCSW_CHECK", "log", 1);
  check::set_default_mode(CheckMode::kStrict);
  EXPECT_EQ(check::resolve_mode(CheckMode::kDefault), CheckMode::kStrict);

  // Unsetting the default falls back to $NCSW_CHECK, then to kOff.
  check::set_default_mode(CheckMode::kDefault);
  EXPECT_EQ(check::resolve_mode(CheckMode::kDefault), CheckMode::kLog);
  ::unsetenv("NCSW_CHECK");
  check::set_default_mode(CheckMode::kDefault);  // drops the cached "log"
  EXPECT_EQ(check::resolve_mode(CheckMode::kDefault), CheckMode::kOff);

  if (saved) ::setenv("NCSW_CHECK", saved_value.c_str(), 1);
}

TEST_F(CheckTest, EnvironmentIsReadOnceUntilTheDefaultIsReset) {
  const char* saved = std::getenv("NCSW_CHECK");
  const std::string saved_value = saved ? saved : "";

  ::setenv("NCSW_CHECK", "log", 1);
  check::set_default_mode(CheckMode::kDefault);
  EXPECT_EQ(check::resolve_mode(CheckMode::kDefault), CheckMode::kLog);
  // Resolved once, the value is cached: later changes to the
  // environment are not seen by the hooks...
  ::setenv("NCSW_CHECK", "strict", 1);
  EXPECT_EQ(check::resolve_mode(CheckMode::kDefault), CheckMode::kLog);
  check::ServeVerifier serve;
  EXPECT_EQ(serve.mode(), CheckMode::kLog);
  // ...until set_default_mode(kDefault) drops the cache.
  check::set_default_mode(CheckMode::kDefault);
  EXPECT_EQ(check::resolve_mode(CheckMode::kDefault), CheckMode::kStrict);
  EXPECT_EQ(serve.mode(), CheckMode::kStrict);

  if (saved) {
    ::setenv("NCSW_CHECK", saved_value.c_str(), 1);
  } else {
    ::unsetenv("NCSW_CHECK");
  }
}

TEST_F(CheckTest, OffModeRecordsNothing) {
  reset(CheckMode::kOff);
  EXPECT_FALSE(verifier().enabled());
  void* dev = open();
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_INVALID_PARAMETERS);  // double close
  EXPECT_EQ(verifier().total(), 0u);
  EXPECT_TRUE(verifier().violations().empty());
}

// ---- one case per violation class (log mode) ------------------------------

TEST_F(CheckTest, OverIssueLogged) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_EQ(load(graph), MVNC_OK);
  EXPECT_EQ(load(graph), MVNC_OK);    // FIFO depth 2: now full
  EXPECT_EQ(load(graph), MVNC_BUSY);  // over-issue
  EXPECT_EQ(verifier().count(ViolationKind::kOverIssue), 1u);
}

TEST_F(CheckTest, UnmatchedGetResultLogged) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_EQ(get(graph), MVNC_NO_DATA);
  EXPECT_EQ(verifier().count(ViolationKind::kUnmatchedGetResult), 1u);
}

TEST_F(CheckTest, UseAfterDeallocLogged) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_OK);
  EXPECT_EQ(load(graph), MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(verifier().count(ViolationKind::kUseAfterDealloc), 1u);
}

TEST_F(CheckTest, UseAfterCloseLogged) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);  // invalidates the graph too
  EXPECT_EQ(load(graph), MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(verifier().count(ViolationKind::kUseAfterClose), 1u);
}

TEST_F(CheckTest, DoubleCloseLogged) {
  reset(CheckMode::kLog);
  void* dev = open();
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(verifier().count(ViolationKind::kDoubleClose), 1u);
}

TEST_F(CheckTest, DoubleOpenLogged) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* again = nullptr;
  EXPECT_EQ(mvncOpenDevice("/sim/ncs0", &again), MVNC_BUSY);
  EXPECT_EQ(verifier().count(ViolationKind::kDoubleOpen), 1u);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);
}

TEST_F(CheckTest, UndrainedAtDeallocLogged) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_EQ(load(graph), MVNC_OK);
  EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_OK);  // one result still queued
  EXPECT_EQ(verifier().count(ViolationKind::kUndrainedAtDealloc), 1u);
}

TEST_F(CheckTest, UndrainedAtCloseLogged) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_EQ(load(graph), MVNC_OK);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);  // graph dies with a result queued
  EXPECT_EQ(verifier().count(ViolationKind::kUndrainedAtDealloc), 1u);
}

TEST_F(CheckTest, ReplugWithoutReallocLogged) {
  sim::FaultPlan plan;
  plan.add(0, sim::FaultKind::kDetach, 1.0, 0.5);  // off the bus [1.0, 1.5)
  reset(CheckMode::kLog, plan);
  void* dev = open();
  void* graph = allocate(dev);
  set_host_time(graph, 2.0);  // inside: the detach has latched by now
  EXPECT_EQ(load(graph), MVNC_GONE);
  const auto ready = replug_device(dev, 2.0);
  ASSERT_TRUE(ready.has_value());
  // The firmware rebooted: the old graph handle must be re-allocated.
  load(graph);
  EXPECT_EQ(verifier().count(ViolationKind::kReplugWithoutRealloc), 1u);
}

TEST_F(CheckTest, WatchdogMisuseLogged) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_FALSE(set_watchdog(graph, -1.0));  // rejected, not a violation
  EXPECT_EQ(verifier().count(ViolationKind::kWatchdogMisuse), 0u);
  EXPECT_TRUE(set_watchdog(graph, 0.0));  // guarantees TIMEOUT forever
  EXPECT_EQ(verifier().count(ViolationKind::kWatchdogMisuse), 1u);
  EXPECT_TRUE(set_watchdog(graph, 10.0));  // fine: nothing in flight
  EXPECT_EQ(verifier().count(ViolationKind::kWatchdogMisuse), 1u);
  EXPECT_EQ(load(graph), MVNC_OK);
  EXPECT_TRUE(set_watchdog(graph, 5.0));  // changed mid-flight
  EXPECT_EQ(verifier().count(ViolationKind::kWatchdogMisuse), 2u);
}

// ---- strict vs log --------------------------------------------------------

TEST_F(CheckTest, StrictThrowsOnOverIssue) {
  reset(CheckMode::kStrict);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_EQ(load(graph), MVNC_OK);
  EXPECT_EQ(load(graph), MVNC_OK);
  try {
    load(graph);
    FAIL() << "expected ProtocolViolation";
  } catch (const ProtocolViolation& e) {
    EXPECT_EQ(e.violation.kind, ViolationKind::kOverIssue);
    EXPECT_EQ(e.violation.device, 0);
    EXPECT_NE(std::string(e.what()).find("over-issue"), std::string::npos);
  }
}

TEST_F(CheckTest, StrictThrowsOnUnmatchedGetResult) {
  reset(CheckMode::kStrict);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_THROW(get(graph), ProtocolViolation);
}

TEST_F(CheckTest, LogModeReturnsStatusAndKeepsGoing) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_EQ(get(graph), MVNC_NO_DATA);  // reported, not thrown
  EXPECT_EQ(load(graph), MVNC_OK);      // the session stays usable
  EXPECT_EQ(get(graph), MVNC_OK);
  EXPECT_EQ(verifier().total(), 1u);
}

TEST_F(CheckTest, ViolationRecordCarriesContext) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* graph = allocate(dev);
  EXPECT_EQ(get(graph), MVNC_NO_DATA);
  const auto recorded = verifier().violations();
  ASSERT_EQ(recorded.size(), 1u);
  EXPECT_EQ(recorded[0].kind, ViolationKind::kUnmatchedGetResult);
  EXPECT_EQ(recorded[0].device, 0);
  const std::string text = recorded[0].to_string();
  EXPECT_NE(text.find("unmatched-get-result on dev0"), std::string::npos);
  verifier().clear_violations();
  EXPECT_EQ(verifier().total(), 0u);
  EXPECT_TRUE(verifier().violations().empty());
}

TEST_F(CheckTest, RecordedListIsBoundedButCountsAreNot) {
  reset(CheckMode::kLog);
  void* dev = open();
  void* graph = allocate(dev);
  const auto n = check::ProtocolVerifier::kMaxRecorded + 10;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(get(graph), MVNC_NO_DATA);
  }
  EXPECT_EQ(verifier().total(), n);
  EXPECT_EQ(verifier().violations().size(),
            check::ProtocolVerifier::kMaxRecorded);
}

// ---- clean runs stay clean ------------------------------------------------

TEST_F(CheckTest, StrictCleanRunUnderFaultStormCompletes) {
  // The self-healing runner under a transient-fault storm and a detach
  // window commits no protocol violation: strict mode must stay silent.
  auto bundle = core::ModelBundle::googlenet_reference();
  core::VpuTargetConfig cfg;
  cfg.devices = 2;
  cfg.check = CheckMode::kStrict;
  cfg.health.watchdog_s = 0.25;
  cfg.faults = sim::FaultPlan::scripted_storm(7, 2, 2.0, 600.0, 0.02);
  cfg.faults.add(1, sim::FaultKind::kDetach, 1.0, 1.0);
  core::VpuTarget vpu(bundle, cfg);
  const auto run = vpu.run_timed(64, 2);
  EXPECT_EQ(run.images, 64);
  EXPECT_EQ(verifier().total(), 0u);
}

TEST_F(CheckTest, DisabledModeTraceIsByteIdenticalToLogMode) {
  // kOff must not perturb behaviour or output; a clean kLog run emits
  // nothing either, so the serialised traces must match byte for byte.
  auto bundle = core::ModelBundle::googlenet_reference();
  auto run_once = [&](CheckMode mode) {
    util::tracer().reset();
    util::tracer().set_enabled(true);
    core::VpuTargetConfig cfg;
    cfg.devices = 2;
    cfg.check = mode;
    core::VpuTarget vpu(bundle, cfg);
    vpu.run_timed(16, 2);
    std::string json = util::tracer().to_json();
    util::tracer().set_enabled(false);
    util::tracer().reset();
    return json;
  };
  const std::string off = run_once(CheckMode::kOff);
  const std::string log = run_once(CheckMode::kLog);
  EXPECT_EQ(off, log);
  EXPECT_EQ(verifier().total(), 0u);
}

// ---- concurrency (run these under TSan; see docs/checking.md) -------------

TEST_F(CheckTest, VerifierHooksAreThreadSafeAcrossDevices) {
  // One thread per stick hammers its own device through the NCAPI while
  // deliberately over-issuing once per iteration. The verifier's shared
  // tables must stay consistent under contention: exactly one over-issue
  // per iteration per thread, nothing else.
  HostConfig cfg;
  cfg.devices = 4;
  cfg.check = CheckMode::kLog;
  host_reset(cfg);

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::vector<void*> graphs;
  for (int d = 0; d < kThreads; ++d) graphs.push_back(allocate(open(d)));

  std::vector<std::thread> threads;
  for (int d = 0; d < kThreads; ++d) {
    threads.emplace_back([this, graph = graphs[static_cast<std::size_t>(d)]] {
      for (int i = 0; i < kIters; ++i) {
        EXPECT_EQ(load(graph), MVNC_OK);
        EXPECT_EQ(load(graph), MVNC_OK);
        EXPECT_EQ(load(graph), MVNC_BUSY);  // FIFO depth 2: over-issue
        EXPECT_EQ(get(graph), MVNC_OK);
        EXPECT_EQ(get(graph), MVNC_OK);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(verifier().count(ViolationKind::kOverIssue),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(verifier().total(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_F(CheckTest, ConcurrentClassifyWorkersStayStrictClean) {
  // classify() drives the NCAPI from one host thread per stick; under
  // strict checking every worker's call sequence must still verify. This
  // is the regression test for the cross-thread-capture audit of
  // vpu_target.cpp (run it under TSan to re-check the captures).
  ncsw::dataset::DatasetConfig dc;
  dc.num_classes = 6;
  ncsw::dataset::SyntheticImageNet data(dc);
  auto bundle = core::ModelBundle::tiny_functional(data, {32, 6});
  core::VpuTargetConfig cfg;
  cfg.devices = 4;
  cfg.check = CheckMode::kStrict;
  core::VpuTarget vpu(bundle, cfg);

  core::Preprocessor prep;
  prep.input_size = 32;
  prep.means = data.means();
  std::vector<tensor::TensorF> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(prep(data.sample(0, i).image));
  const auto preds = vpu.classify(inputs);
  EXPECT_EQ(preds.size(), inputs.size());
  EXPECT_EQ(verifier().total(), 0u);
}

// ---- trace lint -----------------------------------------------------------

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::tracer().reset();
    util::tracer().set_enabled(true);
  }
  void TearDown() override {
    util::tracer().set_enabled(false);
    util::tracer().reset();
  }

  static check::LintReport lint(const std::string& text,
                                check::LintOptions opts = {}) {
    std::string error;
    const auto report = check::lint_trace_text(text, opts, &error);
    EXPECT_TRUE(report.has_value()) << error;
    return report.value_or(check::LintReport{});
  }

  static bool has_issue(const check::LintReport& report,
                        const std::string& kind) {
    for (const auto& issue : report.issues) {
      if (issue.kind == kind) return true;
    }
    return false;
  }
};

TEST_F(LintTest, AcceptsWellFormedIssueCompletePairs) {
  auto& t = util::tracer();
  const int host = t.lane("dev0 host");
  t.complete("mvnc", "LoadTensor", host, 0.00, 0.01,
             {util::TraceArg::num("seq", std::int64_t{0})});
  t.complete("mvnc", "LoadTensor", host, 0.02, 0.03,
             {util::TraceArg::num("seq", std::int64_t{1})});
  t.complete("mvnc", "GetResult", host, 0.04, 0.10,
             {util::TraceArg::num("seq", std::int64_t{0})});
  t.complete("mvnc", "GetResult", host, 0.11, 0.20,
             {util::TraceArg::num("seq", std::int64_t{1})});
  const auto report = lint(t.to_json());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.pairs, 2u);
  EXPECT_EQ(report.spans, 4u);
}

TEST_F(LintTest, FlagsForeignOrBrokenSchema) {
  EXPECT_TRUE(has_issue(lint("{\"traceEvents\": []}"), "bad-schema"));
  EXPECT_TRUE(has_issue(
      lint("{\"traceEvents\": [], \"otherData\": {\"schema\": \"other\"}}"),
      "bad-schema"));
  // Malformed JSON is a parse error, not a lint report.
  std::string error;
  EXPECT_FALSE(check::lint_trace_text("not json", {}, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST_F(LintTest, FlagsDroppedEvents) {
  const std::string doc =
      "{\"otherData\": {\"schema\": \"ncsw-trace-v1\", \"clock\": "
      "\"simulated\", \"dropped_events\": 3}, \"traceEvents\": []}";
  EXPECT_TRUE(has_issue(lint(doc), "dropped-events"));
}

TEST_F(LintTest, FlagsPartialSpanOverlap) {
  auto& t = util::tracer();
  const int lane = t.lane("dev0 host");
  t.complete("mvnc", "a", lane, 0.00, 0.10);
  t.complete("mvnc", "b", lane, 0.05, 0.20);  // straddles a's end
  EXPECT_TRUE(has_issue(lint(t.to_json()), "span-overlap"));
}

TEST_F(LintTest, AcceptsNestedAndTouchingSpans) {
  auto& t = util::tracer();
  const int lane = t.lane("dev0 host");
  t.complete("core", "outer", lane, 0.00, 0.10);
  t.complete("mvnc", "inner", lane, 0.02, 0.08);   // nested
  t.complete("mvnc", "next", lane, 0.10, 0.20);    // touching
  const auto report = lint(t.to_json());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(LintTest, FlagsNonMonotonicTimestamps) {
  const std::string doc =
      "{\"otherData\": {\"schema\": \"ncsw-trace-v1\", \"clock\": "
      "\"simulated\", \"dropped_events\": 0}, \"traceEvents\": ["
      "{\"ph\": \"X\", \"name\": \"a\", \"tid\": 1, \"ts\": 100.0, "
      "\"dur\": 1.0},"
      "{\"ph\": \"X\", \"name\": \"b\", \"tid\": 1, \"ts\": 50.0, "
      "\"dur\": 1.0}]}";
  EXPECT_TRUE(has_issue(lint(doc), "non-monotonic-ts"));
}

TEST_F(LintTest, FlagsUnmatchedCompleteAndSeqInversion) {
  auto& t = util::tracer();
  const int host = t.lane("dev0 host");
  t.complete("mvnc", "GetResult", host, 0.0, 0.1,
             {util::TraceArg::num("seq", std::int64_t{4})});
  EXPECT_TRUE(has_issue(lint(t.to_json()), "unmatched-complete"));

  t.reset();
  const int host2 = t.lane("dev0 host");
  t.complete("mvnc", "LoadTensor", host2, 0.00, 0.01,
             {util::TraceArg::num("seq", std::int64_t{3})});
  t.complete("mvnc", "GetResult", host2, 0.02, 0.10,
             {util::TraceArg::num("seq", std::int64_t{1})});
  EXPECT_TRUE(has_issue(lint(t.to_json()), "seq-inversion"));
}

TEST_F(LintTest, GoneInstantCountsQueuedResultsAsLost) {
  auto& t = util::tracer();
  const int host = t.lane("dev0 host");
  const int health = t.lane("dev0 health");
  t.complete("mvnc", "LoadTensor", host, 0.00, 0.01,
             {util::TraceArg::num("seq", std::int64_t{0})});
  t.complete("mvnc", "LoadTensor", host, 0.02, 0.03,
             {util::TraceArg::num("seq", std::int64_t{1})});
  t.instant("core.health", "gone", health, 0.05);
  const auto report = lint(t.to_json());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.lost_results, 2u);
  EXPECT_EQ(report.pairs, 0u);
}

// ---- trace lint v2: serving-layer accounting ------------------------------

namespace lintv2 {

/// A consistent serve session: 3 offered = 2 completed + 1 rejected,
/// two request spans (both drawn while the ticket spans carry the two
/// completions).
void emit_serve_session(const std::string& prefix) {
  auto& t = util::tracer();
  const int sched = t.lane(prefix + "serve sched");
  const int slot0 = t.lane(prefix + "serve slot0");
  const int w0 = t.lane(prefix + "serve T w0");
  t.complete("serve.req", "request", slot0, 0.00, 0.40,
             {util::TraceArg::num("id", std::int64_t{0}),
              util::TraceArg::str("outcome", "completed")});
  t.complete("serve.req", "request", slot0, 0.50, 0.90,
             {util::TraceArg::num("id", std::int64_t{2}),
              util::TraceArg::str("outcome", "completed")});
  t.complete("serve", "ticket", w0, 0.05, 0.40,
             {util::TraceArg::num("ticket", std::int64_t{1}),
              util::TraceArg::num("n", std::int64_t{1}),
              util::TraceArg::num("completed", std::int64_t{1})});
  t.complete("serve", "ticket", w0, 0.55, 0.90,
             {util::TraceArg::num("ticket", std::int64_t{2}),
              util::TraceArg::num("n", std::int64_t{1}),
              util::TraceArg::num("completed", std::int64_t{1})});
  t.complete("serve", "serve", sched, 0.0, 1.0,
             {util::TraceArg::num("offered", std::int64_t{3}),
              util::TraceArg::num("completed", std::int64_t{2}),
              util::TraceArg::num("rejected", std::int64_t{1}),
              util::TraceArg::num("dropped", std::int64_t{0})});
}

}  // namespace lintv2

TEST_F(LintTest, AcceptsConsistentServeSession) {
  lintv2::emit_serve_session("");
  const auto report = lint(util::tracer().to_json());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(LintTest, FlagsRequestSpanCountMismatch) {
  auto& t = util::tracer();
  lintv2::emit_serve_session("");
  // A third request span with no matching admission in the summary.
  t.complete("serve.req", "request", t.lane("serve slot1"), 0.10, 0.20,
             {util::TraceArg::num("id", std::int64_t{9}),
              util::TraceArg::str("outcome", "completed")});
  EXPECT_TRUE(has_issue(lint(t.to_json()), "serve-accounting"));
}

TEST_F(LintTest, FlagsRequestOutcomeMismatch) {
  auto& t = util::tracer();
  const int sched = t.lane("serve sched");
  const int slot0 = t.lane("serve slot0");
  // Two admitted spans but only one marked completed against a summary
  // claiming two completions.
  t.complete("serve.req", "request", slot0, 0.00, 0.40,
             {util::TraceArg::num("id", std::int64_t{0}),
              util::TraceArg::str("outcome", "completed")});
  t.complete("serve.req", "request", slot0, 0.50, 0.90,
             {util::TraceArg::num("id", std::int64_t{1}),
              util::TraceArg::str("outcome", "dropped")});
  t.complete("serve", "serve", sched, 0.0, 1.0,
             {util::TraceArg::num("offered", std::int64_t{2}),
              util::TraceArg::num("completed", std::int64_t{2}),
              util::TraceArg::num("rejected", std::int64_t{0}),
              util::TraceArg::num("dropped", std::int64_t{0})});
  EXPECT_TRUE(has_issue(lint(t.to_json()), "serve-accounting"));
}

TEST_F(LintTest, FlagsTicketCompletionMismatch) {
  auto& t = util::tracer();
  const int sched = t.lane("serve sched");
  const int w0 = t.lane("serve T w0");
  // The ticket spans carry 3 completions; the summary admits only 2.
  t.complete("serve", "ticket", w0, 0.05, 0.40,
             {util::TraceArg::num("ticket", std::int64_t{1}),
              util::TraceArg::num("n", std::int64_t{3}),
              util::TraceArg::num("completed", std::int64_t{3})});
  t.complete("serve", "serve", sched, 0.0, 1.0,
             {util::TraceArg::num("offered", std::int64_t{3}),
              util::TraceArg::num("completed", std::int64_t{2}),
              util::TraceArg::num("rejected", std::int64_t{1}),
              util::TraceArg::num("dropped", std::int64_t{0})});
  EXPECT_TRUE(has_issue(lint(t.to_json()), "ticket-accounting"));
}

TEST_F(LintTest, FlagsNegativeDuration) {
  // The tracer itself clamps end < start, so a completion-precedes-
  // dispatch span can only reach the linter from a hand-edited or
  // foreign trace — feed raw JSON.
  const std::string text =
      "{\"otherData\":{\"schema\":\"ncsw-trace-v1\",\"clock\":\"simulated\"},"
      "\"traceEvents\":[{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
      "\"tid\":1,\"args\":{\"name\":\"serve T w0\"}},"
      "{\"ph\":\"X\",\"cat\":\"serve\",\"name\":\"ticket\",\"pid\":1,"
      "\"tid\":1,\"ts\":500000,\"dur\":-100000}]}";
  const auto report = lint(text);
  EXPECT_TRUE(has_issue(report, "negative-duration"));
  EXPECT_FALSE(has_issue(report, "bad-schema"));
}

// ---- trace lint v2: cluster conservation ----------------------------------

namespace lintv2 {

struct ClusterCounts {
  std::int64_t offered = 4, completed = 2, rejected = 1, deadline = 0,
               lost = 1, replayed = 1, hedged = 1, duplicates = 1;
  int replay_instants = 1, hedge_instants = 1;
  std::int64_t node_completed[2] = {2, 1};  // 3 = completed + duplicates
};

/// A consistent cluster run: 4 offered = 2 completed + 1 rejected +
/// 0 deadline + 1 lost; node sessions completed 2 + 1 = cluster 2
/// delivered + 1 duplicate.
void emit_cluster(const ClusterCounts& c) {
  auto& t = util::tracer();
  const int sched = t.lane("cluster sched");
  const int events = t.lane("cluster events");
  for (int i = 0; i < c.replay_instants; ++i) {
    t.instant("cluster", "replay", events, 0.30);
  }
  for (int i = 0; i < c.hedge_instants; ++i) {
    t.instant("cluster", "hedge", events, 0.40);
  }
  for (int n = 0; n < 2; ++n) {
    const std::string prefix = "n" + std::to_string(n) + " ";
    t.complete("serve", "serve", t.lane(prefix + "serve sched"), 0.0, 1.0,
               {util::TraceArg::num("offered", c.node_completed[n]),
                util::TraceArg::num("completed", c.node_completed[n]),
                util::TraceArg::num("rejected", std::int64_t{0}),
                util::TraceArg::num("dropped", std::int64_t{0})});
  }
  t.complete("cluster", "cluster", sched, 0.0, 1.0,
             {util::TraceArg::num("offered", c.offered),
              util::TraceArg::num("completed", c.completed),
              util::TraceArg::num("rejected", c.rejected),
              util::TraceArg::num("deadline", c.deadline),
              util::TraceArg::num("replayed", c.replayed),
              util::TraceArg::num("hedged", c.hedged),
              util::TraceArg::num("duplicates", c.duplicates),
              util::TraceArg::num("lost", c.lost)});
}

}  // namespace lintv2

TEST_F(LintTest, AcceptsConsistentClusterRun) {
  lintv2::emit_cluster({});
  const auto report = lint(util::tracer().to_json());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(LintTest, FlagsClusterConservationBreak) {
  lintv2::ClusterCounts c;
  c.lost = 0;  // 4 offered but only 3 accounted
  lintv2::emit_cluster(c);
  EXPECT_TRUE(has_issue(lint(util::tracer().to_json()),
                        "cluster-conservation"));
}

TEST_F(LintTest, FlagsHedgeAndReplayInstantMismatches) {
  lintv2::ClusterCounts c;
  c.hedge_instants = 0;  // summary hedged 1, no instant on the lane
  lintv2::emit_cluster(c);
  EXPECT_TRUE(has_issue(lint(util::tracer().to_json()),
                        "cluster-event-mismatch"));

  util::tracer().reset();
  lintv2::ClusterCounts c2;
  c2.replay_instants = 2;  // one more replay instant than counted
  lintv2::emit_cluster(c2);
  EXPECT_TRUE(has_issue(lint(util::tracer().to_json()),
                        "cluster-event-mismatch"));
}

TEST_F(LintTest, FlagsNodeCompletionsNotConservedAcrossCluster) {
  lintv2::ClusterCounts c;
  c.node_completed[1] = 2;  // nodes completed 4 != 2 delivered + 1 dup
  lintv2::emit_cluster(c);
  EXPECT_TRUE(has_issue(lint(util::tracer().to_json()),
                        "cluster-request-conservation"));
}

TEST_F(LintTest, RecordedViolationsFlaggedUnlessAllowed) {
  auto& t = util::tracer();
  t.instant("check", "violation:over-issue", t.lane("dev0 check"), 0.01);
  EXPECT_TRUE(has_issue(lint(t.to_json()), "recorded-violation"));
  check::LintOptions allow;
  allow.allow_violations = true;
  EXPECT_TRUE(lint(t.to_json(), allow).ok());
}

}  // namespace
