// Deterministic fault injection and the self-healing runtime: fault-plan
// semantics, device-level fault windows, the mvnc error mapping
// (MVNC_ERROR / MVNC_TIMEOUT / MVNC_GONE), the health state machine's
// exact backoff schedule, and the end-to-end recovery guarantees
// (detach -> reattach loses no images; the same plan replays to a
// byte-identical trace).
#include "sim/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "check/protocol.h"
#include "core/health.h"
#include "core/model.h"
#include "core/vpu_target.h"
#include "graphc/compiler.h"
#include "mvnc/mvnc.h"
#include "mvnc/sim_host.h"
#include "ncs/device.h"
#include "nn/googlenet.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

namespace {

using namespace ncsw;
using sim::FaultKind;
using sim::FaultPlan;

// ---------------------------------------------------------------------------
// FaultPlan / FaultTimeline semantics
// ---------------------------------------------------------------------------

TEST(FaultPlan, TimelineSlicesPerDeviceAndGlobal) {
  FaultPlan plan;
  plan.add(0, FaultKind::kUsbStall, 1.0, 0.5);
  plan.add(1, FaultKind::kBusyStorm, 2.0, 0.5);
  plan.add(-1, FaultKind::kGetTimeout, 3.0, 0.5);  // every stick
  const auto t0 = plan.timeline_for(0);
  const auto t1 = plan.timeline_for(1);
  EXPECT_EQ(t0.events().size(), 2u);  // own stall + global timeout
  EXPECT_EQ(t1.events().size(), 2u);  // own storm + global timeout
  EXPECT_NE(t0.active(FaultKind::kUsbStall, 1.2), nullptr);
  EXPECT_EQ(t1.active(FaultKind::kUsbStall, 1.2), nullptr);
  EXPECT_NE(t1.active(FaultKind::kGetTimeout, 3.2), nullptr);
}

TEST(FaultPlan, WindowsAreHalfOpen) {
  FaultPlan plan;
  plan.add(0, FaultKind::kBusyStorm, 1.0, 1.0);  // [1, 2)
  const auto tl = plan.timeline_for(0);
  EXPECT_EQ(tl.active(FaultKind::kBusyStorm, 0.999), nullptr);
  EXPECT_NE(tl.active(FaultKind::kBusyStorm, 1.0), nullptr);
  EXPECT_NE(tl.active(FaultKind::kBusyStorm, 1.999), nullptr);
  EXPECT_EQ(tl.active(FaultKind::kBusyStorm, 2.0), nullptr);
}

TEST(FaultPlan, RejectsMalformedWindowsAtConstruction) {
  FaultPlan plan;
  // Negative, non-finite, or inverted windows used to be accepted
  // silently and then never fire (or fire forever); now they throw
  // up front, naming the offending window.
  EXPECT_THROW(plan.add(0, FaultKind::kUsbStall, -1.0, 0.5),
               std::invalid_argument);
  EXPECT_THROW(plan.add(0, FaultKind::kUsbStall, 1.0, -0.5),
               std::invalid_argument);
  const double nan = std::nan("");
  EXPECT_THROW(plan.add(0, FaultKind::kBusyStorm, nan, 1.0),
               std::invalid_argument);
  EXPECT_THROW(plan.add(0, FaultKind::kBusyStorm, 0.0, nan),
               std::invalid_argument);
  sim::FaultEvent inverted;
  inverted.kind = FaultKind::kNodeCrash;
  inverted.start = 2.0;
  inverted.end = 1.0;
  EXPECT_THROW(plan.add(inverted), std::invalid_argument);
  EXPECT_TRUE(plan.events().empty());  // nothing partial slipped in

  // Zero-length windows stay legal and inert (half-open [t, t)).
  plan.add(0, FaultKind::kUsbStall, 1.0, 0.0);
  EXPECT_EQ(plan.timeline_for(0).active(FaultKind::kUsbStall, 1.0), nullptr);
}

TEST(FaultPlan, ClearOfChainsBackToBackWindows) {
  FaultPlan plan;
  plan.add(0, FaultKind::kUsbStall, 1.0, 1.0);  // [1, 2)
  plan.add(0, FaultKind::kUsbStall, 2.0, 0.5);  // [2, 2.5)
  const auto tl = plan.timeline_for(0);
  EXPECT_DOUBLE_EQ(tl.clear_of(FaultKind::kUsbStall, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(tl.clear_of(FaultKind::kUsbStall, 1.5), 2.5);
  EXPECT_DOUBLE_EQ(tl.clear_of(FaultKind::kUsbStall, 2.5), 2.5);
}

TEST(FaultPlan, NextDetachConsumesEachEventOnce) {
  FaultPlan plan;
  plan.add(0, FaultKind::kDetach, 1.0, 0.5);
  plan.add(0, FaultKind::kDetach, 5.0, 0.5);
  const auto tl = plan.timeline_for(0);
  std::size_t cursor = 0;
  EXPECT_EQ(tl.next_detach(0.5, &cursor), nullptr);  // nothing due yet
  const auto* first = tl.next_detach(1.1, &cursor);
  ASSERT_NE(first, nullptr);
  EXPECT_DOUBLE_EQ(first->start, 1.0);
  EXPECT_EQ(tl.next_detach(1.1, &cursor), nullptr);  // consumed
  const auto* second = tl.next_detach(10.0, &cursor);
  ASSERT_NE(second, nullptr);
  EXPECT_DOUBLE_EQ(second->start, 5.0);
  EXPECT_EQ(tl.next_detach(10.0, &cursor), nullptr);
}

TEST(FaultPlan, ScriptedStormIsDeterministic) {
  const auto a = FaultPlan::scripted_storm(7, 4, 2.0, 30.0, 0.02);
  const auto b = FaultPlan::scripted_storm(7, 4, 2.0, 30.0, 0.02);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].device, b.events()[i].device);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_DOUBLE_EQ(a.events()[i].start, b.events()[i].start);
    EXPECT_DOUBLE_EQ(a.events()[i].end, b.events()[i].end);
    EXPECT_DOUBLE_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }
  // Different seeds draw different storms; detach never appears (it is
  // scripted explicitly, not randomly).
  const auto c = FaultPlan::scripted_storm(8, 4, 2.0, 30.0, 0.02);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].start != c.events()[i].start;
  }
  EXPECT_TRUE(differs);
  for (const auto& ev : a.events()) {
    EXPECT_NE(ev.kind, FaultKind::kDetach);
    EXPECT_GE(ev.start, 0.0);
    EXPECT_LT(ev.start, 30.0);
    EXPECT_GE(ev.device, 0);
    EXPECT_LT(ev.device, 4);
  }
}

// ---------------------------------------------------------------------------
// Device-level fault windows
// ---------------------------------------------------------------------------

std::shared_ptr<const graphc::CompiledGraph> tiny_graph() {
  static const auto g = std::make_shared<const graphc::CompiledGraph>(
      graphc::compile(nn::build_tiny_googlenet({32, 10}),
                      graphc::Precision::kFP16));
  return g;
}

struct FaultRig {
  ncs::UsbTopology topo = ncs::UsbTopology::all_direct(1, ncs::usb3_link());
  ncs::NcsConfig cfg;
  ncs::NcsDevice dev{0, topo.channel_for(0), cfg};

  /// Boot + allocate, then install the plan's slice for stick 0.
  double arm(const FaultPlan& plan) {
    const double ready = dev.open(0.0);
    const double alloc = dev.allocate_graph(tiny_graph(), ready);
    dev.set_fault_timeline(plan.timeline_for(0));
    return alloc;
  }
};

TEST(NcsDeviceFaults, BusyStormRejectsLoadsWithEmptyFifo) {
  FaultRig rig;
  FaultPlan plan;
  plan.add(0, FaultKind::kBusyStorm, 0.0, 100.0);
  const double t = rig.arm(plan);
  EXPECT_EQ(rig.dev.queued(), 0);
  EXPECT_FALSE(rig.dev.load_tensor(t).has_value());  // storm, not FIFO
  EXPECT_TRUE(rig.dev.load_tensor(100.0).has_value());  // window passed
}

TEST(NcsDeviceFaults, UsbErrorWindowThrowsTransientWithoutStateChange) {
  FaultRig rig;
  FaultPlan plan;
  plan.add(0, FaultKind::kUsbTransferError, 0.0, 100.0);
  const double t = rig.arm(plan);
  EXPECT_THROW(rig.dev.load_tensor(t), ncs::TransientUsbError);
  EXPECT_EQ(rig.dev.queued(), 0);  // nothing was queued
  const auto ok = rig.dev.load_tensor(100.0);  // transient: later succeeds
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(rig.dev.queued(), 1);
}

TEST(NcsDeviceFaults, UsbStallDelaysTransferToWindowEnd) {
  FaultRig rig;
  FaultPlan plan;
  plan.add(0, FaultKind::kUsbStall, 0.0, 100.0);
  const double t = rig.arm(plan);
  const auto ticket = rig.dev.load_tensor(t);
  ASSERT_TRUE(ticket.has_value());
  EXPECT_GE(ticket->input_done, 100.0);  // transfer pushed past the stall
}

TEST(NcsDeviceFaults, GetTimeoutWindowTripsWatchdogAndKeepsFifo) {
  FaultRig rig;
  FaultPlan plan;
  plan.add(0, FaultKind::kGetTimeout, 0.0, 100.0);
  const double t = rig.arm(plan);
  const auto loaded = rig.dev.load_tensor(t);
  ASSERT_TRUE(loaded.has_value());
  try {
    rig.dev.get_result(loaded->input_done, 0.25);
    FAIL() << "expected DeviceTimeout";
  } catch (const ncs::DeviceTimeout& timeout) {
    EXPECT_DOUBLE_EQ(timeout.gave_up_at, loaded->input_done + 0.25);
  }
  EXPECT_EQ(rig.dev.queued(), 1);  // the inference is still queued
  const auto result = rig.dev.get_result(100.0);  // stall cleared
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->result_ready, 100.0);
  EXPECT_EQ(rig.dev.queued(), 0);
}

TEST(NcsDeviceFaults, ForcedThrottleStretchesExecution) {
  FaultRig clean_rig;
  const double t_clean = clean_rig.arm(FaultPlan{});
  const auto clean = clean_rig.dev.load_tensor(t_clean);
  ASSERT_TRUE(clean.has_value());

  FaultRig rig;
  FaultPlan plan;
  plan.add(0, FaultKind::kThermalThrottle, 0.0, 100.0, /*magnitude=*/3.0);
  const double t = rig.arm(plan);
  const auto throttled = rig.dev.load_tensor(t);
  ASSERT_TRUE(throttled.has_value());
  const double clean_exec = clean->exec_end - clean->exec_start;
  const double slow_exec = throttled->exec_end - throttled->exec_start;
  EXPECT_NEAR(slow_exec / clean_exec, 3.0, 0.05);
}

TEST(NcsDeviceFaults, DetachLatchesOnceAndReplugRecovers) {
  FaultRig rig;
  FaultPlan plan;
  plan.add(0, FaultKind::kDetach, 2.0, 3.0);  // off the bus [2, 5)
  const double t = std::max(rig.arm(plan), 2.0);
  EXPECT_THROW(rig.dev.load_tensor(t), ncs::DeviceDetached);
  EXPECT_TRUE(rig.dev.detached());
  EXPECT_FALSE(rig.dev.is_open());
  EXPECT_FALSE(rig.dev.has_graph());  // firmware state lost

  EXPECT_FALSE(rig.dev.replug(3.0).has_value());  // still off the bus
  const auto ready = rig.dev.replug(5.0);
  ASSERT_TRUE(ready.has_value());  // re-enumerated, firmware rebooted
  EXPECT_GT(*ready, 5.0);
  EXPECT_TRUE(rig.dev.is_open());
  EXPECT_FALSE(rig.dev.detached());
  const double alloc = rig.dev.allocate_graph(tiny_graph(), *ready);
  EXPECT_TRUE(rig.dev.load_tensor(alloc).has_value());
}

TEST(NcsDeviceFaults, DetachDropsInFlightInferences) {
  FaultRig rig;
  FaultPlan plan;
  plan.add(0, FaultKind::kDetach, 50.0, 1.0);
  const double t = rig.arm(plan);
  ASSERT_TRUE(rig.dev.load_tensor(t).has_value());
  ASSERT_TRUE(rig.dev.load_tensor(t).has_value());
  EXPECT_EQ(rig.dev.queued(), 2);
  EXPECT_THROW(rig.dev.get_result(50.0), ncs::DeviceDetached);
  EXPECT_EQ(rig.dev.results_lost(), 2u);
  EXPECT_EQ(rig.dev.queued(), 0);
}

// ---------------------------------------------------------------------------
// mvnc error mapping
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> tiny_blob() {
  static const auto blob = graphc::serialize(*tiny_graph());
  return blob;
}

void* open_and_allocate(void** graph_out) {
  char name[64];
  EXPECT_EQ(mvnc::mvncGetDeviceName(0, name, sizeof(name)), mvnc::MVNC_OK);
  void* dev = nullptr;
  EXPECT_EQ(mvnc::mvncOpenDevice(name, &dev), mvnc::MVNC_OK);
  const auto blob = tiny_blob();
  EXPECT_EQ(mvnc::mvncAllocateGraph(dev, graph_out, blob.data(),
                                    static_cast<unsigned int>(blob.size())),
            mvnc::MVNC_OK);
  return dev;
}

TEST(MvncFaults, TransientUsbErrorMapsToMvncError) {
  mvnc::HostConfig host;
  host.devices = 1;
  host.faults.add(0, FaultKind::kUsbTransferError, 0.0, 100.0);
  mvnc::host_reset(host);
  void* graph = nullptr;
  open_and_allocate(&graph);
  std::vector<fp16::half> input(3 * 32 * 32);
  EXPECT_EQ(mvnc::mvncLoadTensor(graph, input.data(),
                                 static_cast<unsigned int>(input.size() *
                                                           sizeof(fp16::half)),
                                 nullptr),
            mvnc::MVNC_ERROR);
  // Transient: the identical call succeeds once the window has passed.
  ASSERT_TRUE(mvnc::set_host_time(graph, 100.0));
  EXPECT_EQ(mvnc::mvncLoadTensor(graph, input.data(),
                                 static_cast<unsigned int>(input.size() *
                                                           sizeof(fp16::half)),
                                 nullptr),
            mvnc::MVNC_OK);
}

TEST(MvncFaults, WatchdogTimeoutKeepsInferenceQueued) {
  mvnc::HostConfig host;
  host.devices = 1;
  host.faults.add(0, FaultKind::kGetTimeout, 0.0, 100.0);
  mvnc::host_reset(host);
  void* graph = nullptr;
  open_and_allocate(&graph);
  ASSERT_TRUE(mvnc::set_watchdog(graph, 0.25));
  std::vector<fp16::half> input(3 * 32 * 32);
  ASSERT_EQ(mvnc::mvncLoadTensor(graph, input.data(),
                                 static_cast<unsigned int>(input.size() *
                                                           sizeof(fp16::half)),
                                 nullptr),
            mvnc::MVNC_OK);
  const double waited_from = mvnc::host_time(graph).value_or(0.0);
  void* out = nullptr;
  unsigned int out_len = 0;
  EXPECT_EQ(mvnc::mvncGetResult(graph, &out, &out_len, nullptr),
            mvnc::MVNC_TIMEOUT);
  // The host clock advanced by exactly the watchdog budget and the
  // inference stayed queued: a retry after the stall clears succeeds.
  EXPECT_DOUBLE_EQ(mvnc::host_time(graph).value_or(0.0), waited_from + 0.25);
  ASSERT_TRUE(mvnc::set_host_time(graph, 100.0));
  EXPECT_EQ(mvnc::mvncGetResult(graph, &out, &out_len, nullptr),
            mvnc::MVNC_OK);
  const auto ticket = mvnc::last_ticket(graph);
  ASSERT_TRUE(ticket.has_value());
  EXPECT_GE(ticket->result_ready, 100.0);
}

TEST(MvncFaults, DetachMapsToGoneAndReplugNeedsReallocation) {
  mvnc::HostConfig host;
  host.devices = 1;
  host.faults.add(0, FaultKind::kDetach, 2.0, 3.0);  // [2, 5)
  mvnc::host_reset(host);
  void* graph = nullptr;
  void* dev = open_and_allocate(&graph);
  ASSERT_TRUE(mvnc::set_host_time(graph, 2.0));
  std::vector<fp16::half> input(3 * 32 * 32);
  EXPECT_EQ(mvnc::mvncLoadTensor(graph, input.data(),
                                 static_cast<unsigned int>(input.size() *
                                                           sizeof(fp16::half)),
                                 nullptr),
            mvnc::MVNC_GONE);
  EXPECT_FALSE(mvnc::replug_device(dev, 3.0).has_value());  // still detached
  const auto ready = mvnc::replug_device(dev, 5.0);
  ASSERT_TRUE(ready.has_value());
  // The old graph handle is stale; re-allocation brings the stick back.
  EXPECT_EQ(mvnc::mvncDeallocateGraph(graph), mvnc::MVNC_OK);
  void* graph2 = nullptr;
  const auto blob = tiny_blob();
  ASSERT_EQ(mvnc::mvncAllocateGraph(dev, &graph2, blob.data(),
                                    static_cast<unsigned int>(blob.size())),
            mvnc::MVNC_OK);
  EXPECT_EQ(mvnc::mvncLoadTensor(graph2, input.data(),
                                 static_cast<unsigned int>(input.size() *
                                                           sizeof(fp16::half)),
                                 nullptr),
            mvnc::MVNC_OK);
}

// ---------------------------------------------------------------------------
// Health state machine
// ---------------------------------------------------------------------------

TEST(StickHealth, BackoffScheduleIsExactOnTheSimulatedClock) {
  const core::HealthPolicy policy;
  const core::StickHealth h(3, policy);
  // The schedule is a pure function of (device, attempt): recompute it
  // from the documented formula and demand bit-equality.
  constexpr std::uint64_t kSeed = 0x6865616c74683aULL;  // "health:"
  for (int attempt = 0; attempt < 12; ++attempt) {
    const double base =
        std::min(policy.backoff_initial_s *
                     std::pow(policy.backoff_multiplier, attempt),
                 policy.backoff_max_s);
    const std::uint64_t mixed =
        util::hash_mix(kSeed ^ 3ULL, static_cast<std::uint64_t>(attempt));
    const double u = static_cast<double>(mixed >> 11) * 0x1.0p-53;
    const double expected =
        base * (1.0 + policy.backoff_jitter_frac * (2.0 * u - 1.0));
    EXPECT_DOUBLE_EQ(h.backoff(attempt), expected) << "attempt " << attempt;
    // Jitter stays inside the documented band.
    EXPECT_GE(h.backoff(attempt), base * (1.0 - policy.backoff_jitter_frac));
    EXPECT_LE(h.backoff(attempt), base * (1.0 + policy.backoff_jitter_frac));
  }
  // Two sticks draw decorrelated jitter; the same stick redraws the same.
  const core::StickHealth h2(4, policy);
  EXPECT_NE(h.backoff(0), h2.backoff(0));
  const core::StickHealth h3(3, policy);
  EXPECT_DOUBLE_EQ(h.backoff(5), h3.backoff(5));
}

TEST(StickHealth, TransientLadderQuarantinesAfterMaxRetries) {
  core::HealthPolicy policy;
  policy.max_retries = 3;
  core::StickHealth h(0, policy);
  EXPECT_EQ(h.state(), core::HealthState::kHealthy);
  EXPECT_TRUE(h.schedulable());

  EXPECT_DOUBLE_EQ(h.on_transient_failure(1.0), h.backoff(0));
  EXPECT_EQ(h.state(), core::HealthState::kSuspect);
  EXPECT_TRUE(h.schedulable());
  EXPECT_DOUBLE_EQ(h.on_transient_failure(1.1), h.backoff(1));
  EXPECT_DOUBLE_EQ(h.on_transient_failure(1.2), h.backoff(2));
  // Fourth consecutive failure exceeds max_retries: quarantined, first
  // probe scheduled one more backoff step out.
  const double delay = h.on_transient_failure(1.3);
  EXPECT_EQ(h.state(), core::HealthState::kQuarantined);
  EXPECT_FALSE(h.schedulable());
  EXPECT_DOUBLE_EQ(delay, h.backoff(4));
  EXPECT_DOUBLE_EQ(h.next_probe_time(), 1.3 + h.backoff(4));
  EXPECT_DOUBLE_EQ(h.quarantined_since(), 1.3);
}

TEST(StickHealth, SuccessClearsSuspicionAndProbationNeedsAStreak) {
  core::HealthPolicy policy;
  policy.recovery_successes = 3;
  core::StickHealth h(0, policy);
  h.on_transient_failure(1.0);
  EXPECT_EQ(h.state(), core::HealthState::kSuspect);
  h.on_success();
  EXPECT_EQ(h.state(), core::HealthState::kHealthy);

  h.on_gone(2.0);
  EXPECT_EQ(h.state(), core::HealthState::kQuarantined);
  EXPECT_TRUE(h.needs_replug());
  h.on_probe_success();
  EXPECT_EQ(h.state(), core::HealthState::kRecovered);
  EXPECT_FALSE(h.needs_replug());
  EXPECT_TRUE(h.schedulable());
  h.on_success();
  h.on_success();
  EXPECT_EQ(h.state(), core::HealthState::kRecovered);  // streak of 2 < 3
  h.on_success();
  EXPECT_EQ(h.state(), core::HealthState::kHealthy);
}

TEST(StickHealth, FailureOnProbationGoesStraightBackToQuarantine) {
  core::StickHealth h(0, core::HealthPolicy{});
  h.on_gone(1.0);
  h.on_probe_success();
  ASSERT_EQ(h.state(), core::HealthState::kRecovered);
  h.on_transient_failure(2.0);
  EXPECT_EQ(h.state(), core::HealthState::kQuarantined);
  EXPECT_EQ(h.quarantines(), 2);
}

TEST(StickHealth, ProbesExhaustToDead) {
  core::HealthPolicy policy;
  policy.max_probes = 3;
  core::StickHealth h(0, policy);
  h.on_gone(1.0);
  double t = h.next_probe_time();
  for (int i = 0; i < 2; ++i) {
    const double delay = h.on_probe_failure(t);
    EXPECT_GT(delay, 0.0);
    EXPECT_EQ(h.state(), core::HealthState::kQuarantined);
    t = h.next_probe_time();
  }
  EXPECT_DOUBLE_EQ(h.on_probe_failure(t), 0.0);
  EXPECT_EQ(h.state(), core::HealthState::kDead);
  EXPECT_FALSE(h.schedulable());
}

TEST(StickHealth, StateNamesAreStable) {
  EXPECT_STREQ(core::health_state_name(core::HealthState::kHealthy),
               "healthy");
  EXPECT_STREQ(core::health_state_name(core::HealthState::kQuarantined),
               "quarantined");
  EXPECT_STREQ(core::health_state_name(core::HealthState::kDead), "dead");
}

// ---------------------------------------------------------------------------
// End-to-end recovery guarantees
// ---------------------------------------------------------------------------

std::shared_ptr<const core::ModelBundle> reference() {
  static auto bundle = core::ModelBundle::googlenet_reference();
  return bundle;
}

TEST(SelfHealing, DetachReattachCompletesEveryImage) {
  core::VpuTargetConfig cfg;
  cfg.devices = 8;
  cfg.health.watchdog_s = 0.25;
  cfg.faults.add(3, FaultKind::kDetach, 1.0, 1.5);  // off the bus [1, 2.5)
  core::VpuTarget vpu(reference(), cfg);
  const auto run = vpu.run_timed(160, 8);
  EXPECT_EQ(run.images, 160);
  EXPECT_EQ(run.images_lost, 0);
  EXPECT_EQ(run.per_image_ms.count(), 160u);
  EXPECT_GE(run.images_replayed, 1);   // the in-flight image was replayed
  EXPECT_GE(run.sticks_recovered, 1);  // and the stick was re-admitted
  EXPECT_EQ(run.sticks_dead, 0);
  const auto& reg = util::metrics();
  EXPECT_GE(util::metrics().counter("core.health.dev3.replug_recoveries")
                .value(),
            1u);
  EXPECT_GE(util::metrics().counter("core.health.dev3.gone").value(), 1u);
  (void)reg;
}

TEST(SelfHealing, SamePlanReplaysToByteIdenticalTrace) {
  auto& tr = util::tracer();
  const auto plan = FaultPlan::scripted_storm(11, 2, 3.0, 60.0, 0.02);
  core::VpuTargetConfig cfg;
  cfg.devices = 2;
  cfg.health.watchdog_s = 0.25;
  cfg.faults = plan;

  std::string first;
  {
    tr.reset();
    tr.set_enabled(true);
    core::VpuTarget vpu(reference(), cfg);
    vpu.run_timed(60, 2);
    first = tr.to_json();
  }
  std::string second;
  {
    tr.reset();
    tr.set_enabled(true);
    core::VpuTarget vpu(reference(), cfg);
    vpu.run_timed(60, 2);
    second = tr.to_json();
  }
  tr.set_enabled(false);
  tr.reset();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(SelfHealing, FaultFreeRunCreatesNoHealthInstrumentsOrTraceEvents) {
  // Byte-identity guard: without a fault plan the health machinery must
  // be invisible — no core.health.* / fault counters materialise in the
  // registry and no health lane appears in the trace. Instruments are
  // never erased, so compare occurrence counts before/after (other tests
  // in this process may have created fault counters already).
  auto count = [](const std::string& s, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = 0; (pos = s.find(needle, pos)) != std::string::npos;
         pos += needle.size()) {
      ++n;
    }
    return n;
  };
  auto& tr = util::tracer();
  tr.reset();
  tr.set_enabled(true);
  const std::string metrics_before = util::metrics().to_json();
  core::VpuTargetConfig cfg;
  cfg.devices = 2;
  core::VpuTarget vpu(reference(), cfg);
  const auto run = vpu.run_timed(40, 2);
  EXPECT_EQ(run.images, 40);
  EXPECT_EQ(run.images_replayed, 0);
  EXPECT_EQ(run.sticks_recovered, 0);
  const std::string metrics_json = util::metrics().to_json();
  EXPECT_EQ(count(metrics_json, "core.health."),
            count(metrics_before, "core.health."));
  EXPECT_EQ(count(metrics_json, "busy_storm_rejects"),
            count(metrics_before, "busy_storm_rejects"));
  EXPECT_EQ(count(metrics_json, ".detaches"),
            count(metrics_before, ".detaches"));
  const std::string trace_json = tr.to_json();
  EXPECT_EQ(trace_json.find("core.health"), std::string::npos);
  EXPECT_EQ(trace_json.find("ncs.fault"), std::string::npos);
  tr.set_enabled(false);
  tr.reset();
}

TEST(SelfHealing, TeardownDrainsQueuedResultsBeforeDealloc) {
  // Regression: a stick whose GetResult stalls past the watchdog gets
  // quarantined with the inference still queued; its images are replayed
  // on the survivors and the run finishes. Destroying the target then
  // used to DeallocateGraph straight over the queued result — the
  // verifier's undrained-at-dealloc class. close_all must drain first.
  auto& v = ncsw::check::verifier();
  v.configure(ncsw::check::CheckMode::kLog);
  const auto drains_before =
      util::metrics().counter("core.health.dev0.shutdown_drains").value();
  {
    core::VpuTargetConfig cfg;
    cfg.devices = 2;
    // Pin log mode on the host too (host_reset re-resolves kDefault, so
    // $NCSW_CHECK=strict would otherwise abort on the fault-recovery
    // warnings this scenario intentionally provokes before teardown).
    cfg.check = ncsw::check::CheckMode::kLog;
    cfg.health.watchdog_s = 0.25;
    // Stall stick 0's result delivery for the whole run.
    cfg.faults.add(0, FaultKind::kGetTimeout, 0.0, 600.0);
    core::VpuTarget vpu(reference(), cfg);
    const auto run = vpu.run_timed(24, 2);
    EXPECT_EQ(run.images, 24);
    EXPECT_EQ(run.images_lost, 0);
  }  // ~VpuTarget: Stick::release must drain, then deallocate
  EXPECT_EQ(v.count(ncsw::check::ViolationKind::kUndrainedAtDealloc), 0u);
  // The drain rides out the stall without lifting the watchdog: changing
  // it with inferences in flight is a violation of its own.
  EXPECT_EQ(v.count(ncsw::check::ViolationKind::kWatchdogMisuse), 0u);
  EXPECT_GT(util::metrics().counter("core.health.dev0.shutdown_drains").value(),
            drains_before);
  v.configure(ncsw::check::CheckMode::kDefault);
}

TEST(SelfHealing, StrictTeardownOfAStalledStickGetsThrough) {
  // The scenario above under strict checking: any violation at teardown
  // would throw check::ProtocolViolation out of ~VpuTarget, which is
  // std::terminate. 12 images leave the stalled stick with queued
  // results (24 fill its FIFO: see the test below).
  auto& v = ncsw::check::verifier();
  const auto drains_before =
      util::metrics().counter("core.health.dev0.shutdown_drains").value();
  {
    core::VpuTargetConfig cfg;
    cfg.devices = 2;
    cfg.check = ncsw::check::CheckMode::kStrict;
    cfg.health.watchdog_s = 0.25;
    cfg.faults.add(0, FaultKind::kGetTimeout, 0.0, 600.0);
    core::VpuTarget vpu(reference(), cfg);
    const auto run = vpu.run_timed(12, 2);
    EXPECT_EQ(run.images, 12);
    EXPECT_GT(mvnc::pending_results(vpu.graph_handle(0)), 0);
  }
  EXPECT_EQ(v.total(), 0u);
  EXPECT_GT(util::metrics().counter("core.health.dev0.shutdown_drains").value(),
            drains_before);
  v.configure(ncsw::check::CheckMode::kDefault);
}

TEST(SelfHealing, StrictRunNeverIssuesIntoAStalledStickFullFifo) {
  // 24 images bring the stalled stick back from quarantine with its FIFO
  // full of stale inferences. A LoadTensor then would be an over-issue,
  // which strict checking throws at the call: the runner must drain (or
  // back off) first, never issue.
  auto& v = ncsw::check::verifier();
  {
    core::VpuTargetConfig cfg;
    cfg.devices = 2;
    cfg.check = ncsw::check::CheckMode::kStrict;
    cfg.health.watchdog_s = 0.25;
    cfg.faults.add(0, FaultKind::kGetTimeout, 0.0, 600.0);
    core::VpuTarget vpu(reference(), cfg);
    core::TimedRun run;
    EXPECT_NO_THROW(run = vpu.run_timed(24, 2));
    EXPECT_EQ(run.images, 24);
    EXPECT_EQ(run.images_lost, 0);
    EXPECT_EQ(mvnc::pending_results(vpu.graph_handle(0)), 2);
  }
  EXPECT_EQ(v.count(ncsw::check::ViolationKind::kOverIssue), 0u);
  EXPECT_EQ(v.total(), 0u);
  v.configure(ncsw::check::CheckMode::kDefault);
}

TEST(SelfHealing, QuarantineOutlivesTheBatch) {
  // Stick 1 goes off the bus in the first batch and stays off into the
  // second. Its ladder outlives the batch: the second batch must not
  // issue to it (a second MVNC_GONE) before its probe time, and the
  // probes bring it back once the window has passed.
  core::VpuTargetConfig cfg;
  cfg.devices = 2;
  cfg.faults.add(1, FaultKind::kDetach, 0.3, 2.7);  // off the bus [0.3, 3)
  auto& reg = util::metrics();
  auto& gone = reg.counter("core.health.dev1.gone");
  auto& probes = reg.counter("core.health.dev1.probes");
  auto& replugs = reg.counter("core.health.dev1.replug_recoveries");
  const auto gone0 = gone.value();
  const auto probes0 = probes.value();
  const auto replugs0 = replugs.value();
  core::VpuTarget vpu(reference(), cfg);

  const auto first = vpu.run_timed(8, 2);
  EXPECT_EQ(first.images, 8);
  EXPECT_EQ(first.images_lost, 0);
  EXPECT_EQ(gone.value() - gone0, 1u);
  EXPECT_EQ(replugs.value() - replugs0, 0u);
  const auto probes1 = probes.value();
  EXPECT_GT(probes1, probes0);  // probed, but still inside the window

  const auto second = vpu.run_timed(24, 2);
  EXPECT_EQ(second.images, 24);
  EXPECT_EQ(second.images_lost, 0);
  EXPECT_EQ(second.per_image_ms.count(), 24u);
  EXPECT_EQ(gone.value() - gone0, 1u);  // a per-batch ladder makes it 2
  EXPECT_GT(probes.value(), probes1);
  EXPECT_EQ(replugs.value() - replugs0, 1u);
  EXPECT_EQ(second.sticks_recovered, 1);
  EXPECT_EQ(second.images_replayed, 0);
}

TEST(SelfHealing, TransientStormLosesNoImages) {
  core::VpuTargetConfig cfg;
  cfg.devices = 4;
  cfg.health.watchdog_s = 0.25;
  cfg.faults = FaultPlan::scripted_storm(21, 4, 4.0, 60.0, 0.02);
  core::VpuTarget vpu(reference(), cfg);
  const auto run = vpu.run_timed(120, 4);
  EXPECT_EQ(run.images, 120);
  EXPECT_EQ(run.images_lost, 0);
  EXPECT_EQ(run.per_image_ms.count(), 120u);
}

}  // namespace
