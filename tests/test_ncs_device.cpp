#include "ncs/device.h"

#include <gtest/gtest.h>

#include <memory>

#include "myriad/myriad.h"
#include "nn/googlenet.h"

namespace {

using namespace ncsw::ncs;
using ncsw::graphc::compile;
using ncsw::graphc::CompiledGraph;
using ncsw::graphc::Precision;
using ncsw::myriad::InferenceProfile;

std::shared_ptr<const CompiledGraph> tiny_graph() {
  static const auto g = std::make_shared<const CompiledGraph>(
      compile(ncsw::nn::build_tiny_googlenet({32, 10}), Precision::kFP16));
  return g;
}

/// Same architecture with a wider classifier: a different chip profile.
std::shared_ptr<const CompiledGraph> wide_graph() {
  static const auto g = std::make_shared<const CompiledGraph>(
      compile(ncsw::nn::build_tiny_googlenet({32, 20}), Precision::kFP16));
  return g;
}

void expect_same_profile(const InferenceProfile& a, const InferenceProfile& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const auto& x = a.layers[i];
    const auto& y = b.layers[i];
    EXPECT_EQ(x.name, y.name) << i;
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.start_s, y.start_s) << i;
    EXPECT_EQ(x.time_s, y.time_s) << i;
    EXPECT_EQ(x.compute_s, y.compute_s) << i;
    EXPECT_EQ(x.dma_s, y.dma_s) << i;
    EXPECT_EQ(x.tiles, y.tiles) << i;
    EXPECT_EQ(x.shave_utilization, y.shave_utilization) << i;
  }
  EXPECT_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

struct Rig {
  UsbTopology topo = UsbTopology::all_direct(2, usb3_link());
  NcsConfig cfg;
  NcsDevice dev{0, topo.channel_for(0), cfg};
};

TEST(NcsDevice, LifecycleStateMachine) {
  Rig rig;
  EXPECT_FALSE(rig.dev.is_open());
  EXPECT_THROW(rig.dev.allocate_graph(tiny_graph(), 0.0), std::logic_error);
  EXPECT_THROW(rig.dev.load_tensor(0.0), std::logic_error);
  EXPECT_THROW(rig.dev.get_result(0.0), std::logic_error);

  const double ready = rig.dev.open(0.0);
  EXPECT_TRUE(rig.dev.is_open());
  EXPECT_GT(ready, rig.cfg.firmware_boot_s);  // boot + firmware transfer
  EXPECT_THROW(rig.dev.open(0.0), std::logic_error);

  EXPECT_FALSE(rig.dev.has_graph());
  EXPECT_THROW(rig.dev.graph(), std::logic_error);
  EXPECT_THROW(rig.dev.profile(), std::logic_error);

  const double alloc = rig.dev.allocate_graph(tiny_graph(), ready);
  EXPECT_GT(alloc, ready);
  EXPECT_TRUE(rig.dev.has_graph());
  EXPECT_EQ(rig.dev.graph().net_name, "tiny_googlenet");
}

TEST(NcsDevice, LoadThenGetProducesOrderedTicket) {
  Rig rig;
  rig.dev.open(0.0);
  const double t0 = rig.dev.allocate_graph(tiny_graph(), 0.0);
  const auto load = rig.dev.load_tensor(t0);
  ASSERT_TRUE(load.has_value());
  EXPECT_GE(load->issue, t0);
  EXPECT_GT(load->input_done, load->issue);
  EXPECT_GE(load->exec_start, load->input_done);
  EXPECT_GT(load->exec_end, load->exec_start);

  const auto result = rig.dev.get_result(load->input_done);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->seq, load->seq);
  EXPECT_GT(result->result_ready, result->exec_end);
  EXPECT_EQ(rig.dev.completed(), 1u);
}

TEST(NcsDevice, FifoDepthLimitsOutstandingLoads) {
  Rig rig;
  rig.dev.open(0.0);
  const double t0 = rig.dev.allocate_graph(tiny_graph(), 0.0);
  ASSERT_EQ(rig.cfg.fifo_depth, 2);
  EXPECT_TRUE(rig.dev.load_tensor(t0).has_value());
  EXPECT_TRUE(rig.dev.load_tensor(t0).has_value());
  EXPECT_FALSE(rig.dev.load_tensor(t0).has_value());  // FIFO full
  EXPECT_EQ(rig.dev.queued(), 2);
  ASSERT_TRUE(rig.dev.get_result(t0).has_value());
  EXPECT_TRUE(rig.dev.load_tensor(t0).has_value());  // space again
}

TEST(NcsDevice, GetResultOnEmptyFifoIsNullopt) {
  Rig rig;
  rig.dev.open(0.0);
  rig.dev.allocate_graph(tiny_graph(), 0.0);
  EXPECT_FALSE(rig.dev.get_result(0.0).has_value());
}

TEST(NcsDevice, QueuedExecutionsSerialiseOnTheShaveArray) {
  Rig rig;
  rig.dev.open(0.0);
  const double t0 = rig.dev.allocate_graph(tiny_graph(), 0.0);
  const auto a = rig.dev.load_tensor(t0);
  const auto b = rig.dev.load_tensor(t0);
  ASSERT_TRUE(a && b);
  EXPECT_GE(b->exec_start, a->exec_end - 1e-12);
}

TEST(NcsDevice, JitterIsBoundedAndDeterministic) {
  Rig rig;
  rig.dev.open(0.0);
  const double t0 = rig.dev.allocate_graph(tiny_graph(), 0.0);
  const double nominal = rig.dev.profile()->total_s;
  double cursor = t0;
  for (int i = 0; i < 20; ++i) {
    const auto load = rig.dev.load_tensor(cursor);
    ASSERT_TRUE(load);
    const double exec = load->exec_end - load->exec_start;
    EXPECT_NEAR(exec, nominal, nominal * rig.cfg.exec_jitter_frac * 1.01);
    const auto res = rig.dev.get_result(cursor);
    ASSERT_TRUE(res);
    cursor = res->result_ready;
  }
  // Determinism: a second identical device reproduces the same timings.
  Rig rig2;
  rig2.dev.open(0.0);
  const double t02 = rig2.dev.allocate_graph(tiny_graph(), 0.0);
  const auto l1 = rig2.dev.load_tensor(t02);
  EXPECT_DOUBLE_EQ(l1->exec_end - l1->exec_start, nominal * 1.0 +
                   (l1->exec_end - l1->exec_start - nominal));
}

TEST(NcsDevice, AllocateWhileInferencesInFlightThrows) {
  Rig rig;
  rig.dev.open(0.0);
  const double t0 = rig.dev.allocate_graph(tiny_graph(), 0.0);
  rig.dev.load_tensor(t0);
  EXPECT_THROW(rig.dev.allocate_graph(tiny_graph(), t0), std::logic_error);
}

TEST(NcsDevice, EnergyAccumulatesPerInference) {
  Rig rig;
  rig.dev.open(0.0);
  const double t0 = rig.dev.allocate_graph(tiny_graph(), 0.0);
  EXPECT_DOUBLE_EQ(rig.dev.energy_j(), 0.0);
  rig.dev.load_tensor(t0);
  rig.dev.get_result(t0);
  const double e1 = rig.dev.energy_j();
  EXPECT_GT(e1, 0.0);
  rig.dev.load_tensor(t0);
  rig.dev.get_result(t0);
  EXPECT_NEAR(rig.dev.energy_j(), 2 * e1, e1 * 0.05);
}

TEST(NcsDevice, ActivePowerIncludesStickOverhead) {
  Rig rig;
  rig.dev.open(0.0);
  rig.dev.allocate_graph(tiny_graph(), 0.0);
  EXPECT_GT(rig.dev.active_power_w(), rig.cfg.stick_overhead_w);
  // Stick under load stays below its 2.5 W peak rating.
  EXPECT_LT(rig.dev.active_power_w(), 2.5);
}

TEST(NcsDevice, NameEncodesId) {
  Rig rig;
  EXPECT_EQ(rig.dev.name(), "/sim/ncs0");
}

TEST(NcsDevice, RejectsBadFifoDepth) {
  UsbTopology topo = UsbTopology::all_direct(1, usb3_link());
  NcsConfig cfg;
  cfg.fifo_depth = 0;
  EXPECT_THROW(NcsDevice(0, topo.channel_for(0), cfg), std::invalid_argument);
}

TEST(NcsDevice, UnplugFailsAllSubsequentOperations) {
  Rig rig;
  rig.dev.open(0.0);
  const double t0 = rig.dev.allocate_graph(tiny_graph(), 0.0);
  rig.dev.load_tensor(t0);
  EXPECT_FALSE(rig.dev.unplugged());
  rig.dev.unplug();
  EXPECT_TRUE(rig.dev.unplugged());
  EXPECT_EQ(rig.dev.queued(), 0);  // in-flight work lost
  EXPECT_THROW(rig.dev.load_tensor(t0), ncsw::ncs::DeviceUnplugged);
  EXPECT_THROW(rig.dev.get_result(t0), ncsw::ncs::DeviceUnplugged);
}

TEST(NcsDevice, LastCompletionTracksRetrievedResults) {
  Rig rig;
  rig.dev.open(0.0);
  const double t0 = rig.dev.allocate_graph(tiny_graph(), 0.0);
  EXPECT_DOUBLE_EQ(rig.dev.last_completion(), 0.0);
  rig.dev.load_tensor(t0);
  const auto r = rig.dev.get_result(t0);
  EXPECT_DOUBLE_EQ(rig.dev.last_completion(), r->result_ready);
}

TEST(NcsDevice, ReallocatedGraphReusesAnExactProfile) {
  Rig rig;
  rig.dev.open(0.0);
  double t = rig.dev.allocate_graph(tiny_graph(), 0.0);
  const auto first = rig.dev.profile();
  t = rig.dev.allocate_graph(wide_graph(), t);
  EXPECT_NE(rig.dev.profile(), first);
  rig.dev.allocate_graph(tiny_graph(), t);
  // A swap back is a cache hit: the stick hands out the profile it
  // simulated first (a fresh simulation would be a new object) ...
  EXPECT_EQ(rig.dev.profile(), first);
  // ... and that profile is exactly what the chip model computes now.
  const ncsw::myriad::Myriad2 chip(rig.cfg.chip);
  expect_same_profile(*rig.dev.profile(), chip.execute(*tiny_graph()));
}

TEST(NcsDevice, FetchedProfileSurvivesTheNextAllocation) {
  Rig rig;
  rig.dev.open(0.0);
  const double t = rig.dev.allocate_graph(tiny_graph(), 0.0);
  const auto held = rig.dev.profile();
  rig.dev.allocate_graph(wide_graph(), t);
  // The holder still reads the old graph's profile, not the new one.
  const ncsw::myriad::Myriad2 chip(rig.cfg.chip);
  expect_same_profile(*held, chip.execute(*tiny_graph()));
  EXPECT_NE(rig.dev.profile()->total_s, held->total_s);
}

}  // namespace
