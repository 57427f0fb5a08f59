// The stick driver (core::Stick / core::StickSet) on its own: the
// drain-before-deallocate discipline of Stick::release under strict
// protocol checking, and a teardown that outlives its host generation.
#include "core/stick.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "check/protocol.h"
#include "core/application.h"
#include "core/stick_fleet.h"
#include "dataset/synthetic.h"
#include "mvnc/mvnc.h"

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

TEST(Stick, ReleaseDrainsAQueuedResultUnderStrictChecking) {
  // A release that deallocated over the queued result would throw
  // check::ProtocolViolation (undrained-at-dealloc) out of release().
  auto& v = check::verifier();
  const auto& bundle = *tiny().bundle;
  mvnc::HostConfig host;
  host.devices = 2;
  host.check = check::CheckMode::kStrict;
  {
    core::StickSet sticks(host, "test");
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

}  // namespace
