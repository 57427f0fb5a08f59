// The stick driver (core::Stick / core::StickSet) on its own: the
// drain-before-deallocate discipline of Stick::release under strict
// protocol checking, a teardown that outlives its host generation, and
// the health ladder each stick holds: Stick::infer's retries under a
// fault window, Stick::classify under faults, and a replug probe that
// re-allocates the stick's own bundle.
#include "core/stick.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "check/protocol.h"
#include "core/application.h"
#include "core/stick_fleet.h"
#include "core/vpu_target.h"
#include "dataset/synthetic.h"
#include "mvnc/mvnc.h"
#include "sim/fault.h"
#include "util/metrics.h"

namespace {

using namespace ncsw;

dataset::DatasetConfig six_classes() {
  dataset::DatasetConfig dc;
  dc.num_classes = 6;
  return dc;
}

struct Tiny {
  dataset::SyntheticImageNet data{six_classes()};
  std::shared_ptr<const core::ModelBundle> bundle =
      core::ModelBundle::tiny_functional(data, {32, 6});

  std::vector<tensor::TensorF> inputs() const {
    core::Preprocessor prep;
    prep.input_size = 32;
    prep.means = data.means();
    std::vector<tensor::TensorF> out;
    for (int c = 0; c < 6; ++c) out.push_back(prep(data.sample(0, c).image));
    return out;
  }
};

const Tiny& tiny() {
  static const Tiny t;
  return t;
}

std::uint64_t health_count(int d, const char* metric) {
  return util::metrics()
      .counter("core.health.dev" + std::to_string(d) + "." + metric)
      .value();
}

/// Where stick 0's first load issues on a fault-free host: boot plus the
/// tiny bundle's allocation.
double first_issue_s() {
  mvnc::HostConfig host;
  core::StickSet sticks(host, core::HealthPolicy{}, "test");
  core::Stick& s = sticks.at(0);
  EXPECT_TRUE(s.allocate_graph_at(*tiny().bundle, 0, 0.0));
  return s.cursor();
}

/// Stick 0 of `host` classifies every tiny input.
std::vector<core::Prediction> classify_all(const mvnc::HostConfig& host) {
  core::StickSet sticks(host, core::HealthPolicy{}, "test");
  core::Stick& s = sticks.at(0);
  EXPECT_TRUE(s.allocate_graph_at(*tiny().bundle, 0, 0.0));
  std::vector<core::Prediction> preds;
  for (const auto& in : tiny().inputs()) preds.push_back(s.classify(in));
  return preds;
}

TEST(Stick, ReleaseDrainsAQueuedResultUnderStrictChecking) {
  // A release that deallocated over the queued result would throw
  // check::ProtocolViolation (undrained-at-dealloc) out of release().
  auto& v = check::verifier();
  const auto& bundle = *tiny().bundle;
  mvnc::HostConfig host;
  host.devices = 2;
  host.check = check::CheckMode::kStrict;
  {
    core::StickSet sticks(host, core::HealthPolicy{}, "test");
    ASSERT_EQ(sticks.size(), 2);
    for (int d = 0; d < sticks.size(); ++d) {
      ASSERT_TRUE(sticks.at(d).allocate_graph_at(bundle, 0, 0.0));
      EXPECT_EQ(sticks.at(d).resident(), 0);
    }
    core::Stick& s = sticks.at(0);
    const std::vector<std::uint8_t> input(
        static_cast<std::size_t>(bundle.compiled_f16.input_bytes()), 0);
    ASSERT_EQ(mvnc::mvncLoadTensor(s.graph(), input.data(),
                                   static_cast<unsigned int>(input.size()),
                                   nullptr),
              mvnc::MVNC_OK);
    ASSERT_EQ(mvnc::pending_results(s.graph()), 1);
    EXPECT_EQ(s.release(), 1);
    EXPECT_EQ(s.graph(), nullptr);
    EXPECT_EQ(s.resident(), -1);
    EXPECT_EQ(s.bundle(), nullptr);
    EXPECT_EQ(s.release(), 0);  // nothing resident: a no-op
  }  // ~StickSet releases stick 1 and closes both
  EXPECT_EQ(v.count(check::ViolationKind::kUndrainedAtDealloc), 0u);
  EXPECT_EQ(v.total(), 0u);
  v.configure(check::CheckMode::kDefault);
}

TEST(Stick, FleetTeardownAfterAnotherOwnersResetLeavesTheNewOwnerServing) {
  // The new owner's host_reset invalidates the first fleet's handles, and
  // the new host may reuse their addresses. Destroying the first fleet
  // must feed none of them back into the API.
  auto& v = check::verifier();
  std::vector<core::ZooModel> zoo{{"tiny", tiny().bundle}};
  core::StickFleetConfig cfg;
  cfg.devices = 2;
  cfg.check = check::CheckMode::kStrict;
  auto first = std::make_unique<core::StickFleet>(zoo, cfg);
  core::StickFleet second(zoo, cfg);
  first.reset();
  EXPECT_EQ(second.resident_count(), 2);
  for (int d = 0; d < second.devices(); ++d) {
    EXPECT_EQ(second.stick(d).run_timed(4, 1).images, 4);
    const auto inputs = tiny().inputs();
    const auto preds = second.stick(d).classify(inputs);
    ASSERT_EQ(preds.size(), inputs.size());
    for (const auto& p : preds) EXPECT_GE(p.label, 0);
  }
  EXPECT_EQ(v.total(), 0u);
  v.configure(check::CheckMode::kDefault);
}

TEST(Stick, UsbErrorWindowRetriesOnTheLaddersExactBackoff) {
  // Two transfers fail inside the window; the third issues after exactly
  // the ladder's first two backoffs and completes.
  const core::StickHealth ladder(0, core::HealthPolicy{});
  const double c0 = first_issue_s();
  const double b0 = ladder.backoff(0);
  const double b1 = ladder.backoff(1);
  mvnc::HostConfig host;
  host.faults.add(0, sim::FaultKind::kUsbTransferError, 0.0,
                  c0 + b0 + 0.5 * b1);
  const auto errors = health_count(0, "usb_errors");
  const auto retries = health_count(0, "transient_retries");
  core::StickSet sticks(host, core::HealthPolicy{}, "test");
  core::Stick& s = sticks.at(0);
  ASSERT_TRUE(s.allocate_graph_at(*tiny().bundle, 0, 0.0));
  ASSERT_EQ(s.cursor(), c0);
  const std::vector<std::uint8_t> input(
      static_cast<std::size_t>(tiny().bundle->compiled_f16.input_bytes()), 0);
  ASSERT_TRUE(s.infer(input.data(), static_cast<unsigned int>(input.size())));
  const auto ticket = mvnc::last_ticket(s.graph());
  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(ticket->issue, c0 + b0 + b1);
  EXPECT_EQ(health_count(0, "usb_errors") - errors, 2u);
  EXPECT_EQ(health_count(0, "transient_retries") - retries, 2u);
  EXPECT_EQ(s.health().state(), core::HealthState::kHealthy);
}

TEST(Stick, ClassifyUnderAUsbErrorWindowMatchesAFaultFreeStick) {
  const core::StickHealth ladder(0, core::HealthPolicy{});
  const double c0 = first_issue_s();
  const auto clean = classify_all(mvnc::HostConfig{});
  mvnc::HostConfig host;
  host.faults.add(0, sim::FaultKind::kUsbTransferError, 0.0,
                  c0 + ladder.backoff(0) + 0.5 * ladder.backoff(1));
  const auto errors = health_count(0, "usb_errors");
  const auto faulted = classify_all(host);
  EXPECT_EQ(health_count(0, "usb_errors") - errors, 2u);
  ASSERT_EQ(faulted.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(faulted[i].label, clean[i].label);
    ASSERT_EQ(faulted[i].probs.size(), clean[i].probs.size());
    EXPECT_EQ(0, std::memcmp(&faulted[i].confidence, &clean[i].confidence,
                             sizeof(float)));
    EXPECT_EQ(0, std::memcmp(faulted[i].probs.data(), clean[i].probs.data(),
                             clean[i].probs.size() * sizeof(float)));
  }
}

TEST(Stick, ParallelClassifyUnderUsbErrorsMatchesAFaultFreeTarget) {
  // VpuTarget::classify runs one worker per stick; under a USB error
  // window on every stick each worker retries on its own stick's ladder.
  core::VpuTargetConfig cfg;
  cfg.devices = 3;
  const auto inputs = tiny().inputs();
  std::vector<double> first_issue;
  std::vector<core::Prediction> clean;
  {
    core::VpuTarget vpu(tiny().bundle, cfg);
    for (int d = 0; d < cfg.devices; ++d) {
      first_issue.push_back(mvnc::host_time(vpu.graph_handle(d)).value());
    }
    clean = vpu.classify(inputs);
  }
  // Each window outlasts the first backoff but not the ladder.
  for (int d = 0; d < cfg.devices; ++d) {
    cfg.faults.add(d, sim::FaultKind::kUsbTransferError, 0.0,
                   first_issue[static_cast<std::size_t>(d)] + 0.015);
  }
  std::vector<std::uint64_t> errors;
  for (int d = 0; d < cfg.devices; ++d) {
    errors.push_back(health_count(d, "usb_errors"));
  }
  core::VpuTarget vpu(tiny().bundle, cfg);
  const auto faulted = vpu.classify(inputs);
  for (int d = 0; d < cfg.devices; ++d) {
    EXPECT_GT(health_count(d, "usb_errors"),
              errors[static_cast<std::size_t>(d)]);
  }
  ASSERT_EQ(faulted.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(faulted[i].label, clean[i].label);
    EXPECT_EQ(0, std::memcmp(faulted[i].probs.data(), clean[i].probs.data(),
                             clean[i].probs.size() * sizeof(float)));
  }
}

TEST(Stick, ReplugProbeReallocatesTheSticksOwnBundle) {
  // Stick 1 runs its own bundle as model 1 (a zoo placement, which
  // VpuTarget's probe of model 0 never covered). A detach quarantines
  // it; the probe after the window re-allocates that bundle and index.
  const Tiny& t = tiny();
  const auto other = core::ModelBundle::tiny_functional(t.data, {32, 6});
  constexpr double kDetachAt = 2.0;
  mvnc::HostConfig host;
  host.devices = 2;
  host.faults.add(1, sim::FaultKind::kDetach, kDetachAt, 0.1);
  const auto gone = health_count(1, "gone");
  const auto replugs = health_count(1, "replug_recoveries");
  core::StickSet sticks(host, core::HealthPolicy{}, "test");
  ASSERT_TRUE(sticks.at(0).allocate_graph_at(*t.bundle, 0, 0.0));
  core::Stick& s = sticks.at(1);
  ASSERT_TRUE(s.allocate_graph_at(*other, 1, 0.0));
  void* stale = s.graph();
  ASSERT_TRUE(mvnc::set_host_time(stale, kDetachAt));
  const auto inputs = t.inputs();
  EXPECT_THROW(s.classify(inputs[0]), std::runtime_error);
  EXPECT_EQ(health_count(1, "gone") - gone, 1u);
  EXPECT_EQ(s.health().state(), core::HealthState::kQuarantined);
  EXPECT_TRUE(s.health().needs_replug());
  int probes = 0;
  while (s.health().state() == core::HealthState::kQuarantined) {
    ASSERT_LT(++probes, 10);
    s.probe(0.0);
  }
  EXPECT_GT(probes, 1);  // the first probe falls inside the window
  ASSERT_EQ(s.health().state(), core::HealthState::kRecovered);
  EXPECT_EQ(health_count(1, "replug_recoveries") - replugs, 1u);
  EXPECT_EQ(s.resident(), 1);
  EXPECT_EQ(s.bundle(), other.get());
  ASSERT_NE(s.graph(), nullptr);
  EXPECT_GE(s.cursor(), kDetachAt + 0.1);
  // The re-allocated graph serves the bundle's own predictions.
  const auto pred = s.classify(inputs[0]);
  const auto want = sticks.at(0).classify(inputs[0]);
  EXPECT_EQ(pred.label, want.label);
  EXPECT_EQ(pred.probs, want.probs);
}

}  // namespace
