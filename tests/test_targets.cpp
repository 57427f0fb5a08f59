#include "core/host_target.h"
#include "core/application.h"
#include "core/vpu_target.h"

#include <gtest/gtest.h>

#include "util/metrics.h"
#include "util/trace.h"

namespace {

using namespace ncsw::core;

std::shared_ptr<const ModelBundle> reference() {
  static auto bundle = ModelBundle::googlenet_reference();
  return bundle;
}

// ---------------------------------------------------------------------------
// Host targets (CPU / GPU analytic models)
// ---------------------------------------------------------------------------

TEST(HostTarget, CpuSingleInputAnchor) {
  auto cpu = make_cpu_target(reference());
  const auto run = cpu->run_timed(500, 1);
  const double ms = run.seconds * 1e3 / 500.0;
  EXPECT_NEAR(ms, 26.0, 0.3);  // paper Section IV-A
}

TEST(HostTarget, CpuBatch8Anchor) {
  auto cpu = make_cpu_target(reference());
  const auto run = cpu->run_timed(8000, 8);
  EXPECT_NEAR(run.throughput(), 44.0, 0.5);  // paper: 44.0 img/s
}

TEST(HostTarget, GpuAnchors) {
  auto gpu = make_gpu_target(reference());
  EXPECT_NEAR(gpu->run_timed(500, 1).seconds * 2.0, 25.9, 0.3);
  EXPECT_NEAR(gpu->run_timed(8000, 8).throughput(), 74.2, 0.8);
}

TEST(HostTarget, CpuScalingIsPoorGpuModerate) {
  auto cpu = make_cpu_target(reference());
  auto gpu = make_gpu_target(reference());
  const double cpu_speedup = cpu->run_timed(4000, 1).seconds /
                             cpu->run_timed(4000, 8).seconds;
  const double gpu_speedup = gpu->run_timed(4000, 1).seconds /
                             gpu->run_timed(4000, 8).seconds;
  EXPECT_NEAR(cpu_speedup, 1.147, 0.03);  // paper: 14.7% improvement
  EXPECT_NEAR(gpu_speedup, 1.925, 0.04);  // paper: 92.5% improvement
}

TEST(HostTarget, Batch16Projections) {
  // Fig. 8b maxima: CPU 44.5 img/s, GPU ~79.9 img/s.
  auto cpu = make_cpu_target(reference());
  auto gpu = make_gpu_target(reference());
  EXPECT_NEAR(cpu->run_timed(16000, 16).throughput(), 44.5, 0.5);
  EXPECT_NEAR(gpu->run_timed(16000, 16).throughput(), 79.3, 1.0);
}

TEST(HostTarget, TdpAndNames) {
  auto cpu = make_cpu_target(reference());
  auto gpu = make_gpu_target(reference());
  EXPECT_DOUBLE_EQ(cpu->tdp_w(1), 80.0);
  EXPECT_DOUBLE_EQ(gpu->tdp_w(8), 80.0);
  EXPECT_EQ(cpu->short_name(), "CPU");
  EXPECT_EQ(gpu->short_name(), "GPU");
  EXPECT_NE(cpu->name().find("Xeon"), std::string::npos);
  EXPECT_NE(gpu->name().find("K4000"), std::string::npos);
}

TEST(HostTarget, RejectsBadRunArguments) {
  auto cpu = make_cpu_target(reference());
  EXPECT_THROW(cpu->run_timed(0, 1), std::invalid_argument);
  EXPECT_THROW(cpu->run_timed(10, 0), std::invalid_argument);
  EXPECT_THROW(cpu->run_timed(10, 1000), std::invalid_argument);
}

TEST(HostTarget, TrailingPartialBatchAccounted) {
  auto cpu = make_cpu_target(reference());
  const auto run = cpu->run_timed(10, 8);  // one batch of 8 + one of 2
  EXPECT_EQ(run.images, 10);
  EXPECT_EQ(run.per_image_ms.count(), 10u);
  // Per-image cost of the 2-batch is higher than of the 8-batch.
  EXPECT_GT(run.per_image_ms.max(), run.per_image_ms.min());
}

TEST(HostTarget, ClassifyRequiresFunctionalBundle) {
  auto cpu = make_cpu_target(reference());
  EXPECT_THROW(cpu->classify({}), std::logic_error);
}

TEST(HostTarget, JitterProducesErrorBars) {
  auto cpu = make_cpu_target(reference());
  const auto run = cpu->run_timed(5000, 8);
  EXPECT_GT(run.per_image_ms.stddev(), 0.0);
  EXPECT_LT(run.per_image_ms.stddev() / run.per_image_ms.mean(), 0.02);
}

TEST(HostModel, ScalesLinearlyWithNetworkSize) {
  const auto model = ncsw::devices::make_cpu_model();
  const double full = model.per_image_s(1);
  const double half_net =
      model.per_image_s(1, ncsw::devices::googlenet_macs() / 2);
  EXPECT_NEAR(half_net, full / 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// VPU multi-stick target
// ---------------------------------------------------------------------------

TEST(VpuTarget, SingleStickAnchor) {
  VpuTargetConfig cfg;
  cfg.devices = 1;
  VpuTarget vpu(reference(), cfg);
  const auto run = vpu.run_timed(100, 1);
  const double ms = run.seconds * 1e3 / 100.0;
  EXPECT_NEAR(ms, 100.7, 1.5);  // paper: 100.7 ms per inference
}

TEST(VpuTarget, EightStickAnchor) {
  VpuTargetConfig cfg;
  cfg.devices = 8;
  VpuTarget vpu(reference(), cfg);
  const auto run = vpu.run_timed(1600, 8);
  EXPECT_NEAR(run.throughput(), 77.2, 1.5);  // paper: 77.2 img/s
}

TEST(VpuTarget, NearIdealScaling) {
  VpuTargetConfig cfg;
  cfg.devices = 8;
  VpuTarget vpu(reference(), cfg);
  const double t1 = vpu.run_timed(100, 1).seconds / 100.0;
  const double t8 = vpu.run_timed(800, 8).seconds / 800.0;
  const double speedup = t1 / t8;
  EXPECT_GT(speedup, 7.4);  // paper: "close to 8x"
  EXPECT_LT(speedup, 8.05);
}

TEST(VpuTarget, DoublingChipsHalvesTime) {
  VpuTargetConfig cfg;
  cfg.devices = 4;
  VpuTarget vpu(reference(), cfg);
  const double t2 = vpu.run_timed(200, 2).seconds;
  const double t4 = vpu.run_timed(400, 4).seconds;
  // Same wall time for twice the work => per-image time halves.
  EXPECT_NEAR(t4 / t2, 1.0, 0.06);
}

TEST(VpuTarget, TdpCoupledToActiveSticks) {
  VpuTargetConfig cfg;
  cfg.devices = 8;
  VpuTarget vpu(reference(), cfg);
  EXPECT_DOUBLE_EQ(vpu.tdp_w(1), 2.5);
  EXPECT_DOUBLE_EQ(vpu.tdp_w(8), 20.0);
  EXPECT_DOUBLE_EQ(vpu.tdp_w(100), 20.0);  // clamped to available sticks
}

TEST(VpuTarget, BatchBeyondDevicesRejected) {
  VpuTargetConfig cfg;
  cfg.devices = 2;
  VpuTarget vpu(reference(), cfg);
  EXPECT_EQ(vpu.max_batch(), 2);
  EXPECT_THROW(vpu.run_timed(10, 3), std::invalid_argument);
}

TEST(VpuTarget, LayerTimesExposedThroughNcapi) {
  VpuTargetConfig cfg;
  cfg.devices = 1;
  VpuTarget vpu(reference(), cfg);
  const auto times = vpu.layer_times_ms();
  EXPECT_EQ(times.size(), reference()->compiled_f16.layers.size());
  double total = 0;
  for (float t : times) total += t;
  EXPECT_NEAR(total, 99.0, 3.0);  // on-chip execution time
}

TEST(VpuTarget, PerImageLatencyRecorded) {
  VpuTargetConfig cfg;
  cfg.devices = 2;
  VpuTarget vpu(reference(), cfg);
  const auto run = vpu.run_timed(20, 2);
  EXPECT_EQ(run.per_image_ms.count(), 20u);
  EXPECT_GT(run.per_image_ms.mean(), 90.0);
  EXPECT_LT(run.per_image_ms.mean(), 115.0);
}

TEST(VpuTarget, RejectsBadConstruction) {
  VpuTargetConfig cfg;
  cfg.devices = 0;
  EXPECT_THROW(VpuTarget(reference(), cfg), std::invalid_argument);
  EXPECT_THROW(VpuTarget(nullptr, VpuTargetConfig{}), std::invalid_argument);
}

TEST(VpuTarget, LeastLoadedMatchesRoundRobinWhenHomogeneous) {
  VpuTargetConfig rr;
  rr.devices = 4;
  VpuTargetConfig ll = rr;
  ll.scheduling = Scheduling::kLeastLoaded;
  VpuTarget vpu_rr(reference(), rr);
  const double t_rr = vpu_rr.run_timed(400, 4).throughput();
  VpuTarget vpu_ll(reference(), ll);
  const double t_ll = vpu_ll.run_timed(400, 4).throughput();
  EXPECT_NEAR(t_ll, t_rr, t_rr * 0.02);
}

TEST(VpuTarget, DegradedStickDragsRoundRobinButNotLeastLoaded) {
  VpuTargetConfig rr;
  rr.devices = 4;
  rr.degraded_device = 0;
  rr.degraded_factor = 2.0;
  VpuTargetConfig ll = rr;
  ll.scheduling = Scheduling::kLeastLoaded;

  VpuTarget vpu_rr(reference(), rr);
  const double t_rr = vpu_rr.run_timed(400, 4).throughput();
  VpuTarget vpu_ll(reference(), ll);
  const double t_ll = vpu_ll.run_timed(400, 4).throughput();

  // Round-robin is gated by the slow stick's equal share (~half speed);
  // least-loaded recovers most of the group throughput.
  VpuTargetConfig healthy;
  healthy.devices = 4;
  VpuTarget vpu_h(reference(), healthy);
  const double t_h = vpu_h.run_timed(400, 4).throughput();
  EXPECT_LT(t_rr, t_h * 0.60);
  EXPECT_GT(t_ll, t_h * 0.80);
  EXPECT_GT(t_ll, t_rr * 1.3);
}

TEST(VpuTarget, ClassifyRequiresFunctionalBundle) {
  VpuTargetConfig cfg;
  cfg.devices = 1;
  VpuTarget vpu(reference(), cfg);
  EXPECT_THROW(vpu.classify({}), std::logic_error);
}

TEST(VpuTarget, SurvivesStickUnplugMidRun) {
  VpuTargetConfig cfg;
  cfg.devices = 4;
  VpuTarget vpu(reference(), cfg);
  const auto before = vpu.run_timed(80, 4);
  EXPECT_EQ(before.images, 80);

  // Yank stick 2 out of its port.
  ncsw::ncs::NcsDevice* victim =
      ncsw::mvnc::graph_device(vpu.graph_handle(2));
  ASSERT_NE(victim, nullptr);
  victim->unplug();

  // The runner degrades to 3 sticks but completes every image.
  const auto after = vpu.run_timed(80, 4);
  EXPECT_EQ(after.images, 80);
  EXPECT_EQ(after.per_image_ms.count(), 80u);
  // Throughput drops by roughly the lost stick's share.
  EXPECT_LT(after.throughput(), before.throughput() * 0.9);
  EXPECT_GT(after.throughput(), before.throughput() * 0.6);
}

TEST(VpuTarget, ClassifyPropagatesWorkerFailures) {
  // An unplugged stick makes its classify worker fail; the exception must
  // surface on the calling thread (not std::terminate the process).
  ncsw::dataset::DatasetConfig dc;
  dc.num_classes = 6;
  ncsw::dataset::SyntheticImageNet data(dc);
  auto bundle = ModelBundle::tiny_functional(data, {32, 6});
  VpuTargetConfig cfg;
  cfg.devices = 2;
  VpuTarget vpu(bundle, cfg);
  ncsw::mvnc::graph_device(vpu.graph_handle(1))->unplug();

  Preprocessor prep;
  prep.input_size = 32;
  prep.means = data.means();
  std::vector<ncsw::tensor::TensorF> inputs;
  for (int i = 0; i < 6; ++i) inputs.push_back(prep(data.sample(0, i).image));
  EXPECT_THROW(vpu.classify(inputs), std::runtime_error);
}

TEST(VpuTarget, TracedClassifyThroughTheFanOutMatchesASerialRun) {
  // The per-stick workers run on pool threads in any order; the trace
  // must not show it, so every lane id is the one a serial run gives.
  ncsw::dataset::DatasetConfig dc;
  dc.num_classes = 6;
  ncsw::dataset::SyntheticImageNet data(dc);
  auto bundle = ModelBundle::tiny_functional(data, {32, 6});
  Preprocessor prep;
  prep.input_size = 32;
  prep.means = data.means();
  std::vector<ncsw::tensor::TensorF> inputs;
  for (int i = 0; i < 12; ++i) {
    inputs.push_back(prep(data.sample(0, i).image));
  }
  auto traced = [&](bool parallel) {
    auto& tr = ncsw::util::tracer();
    tr.reset();
    tr.set_detail(ncsw::util::TraceDetail::kLayers);
    tr.set_enabled(true);
    {
      VpuTargetConfig cfg;
      cfg.devices = 4;
      cfg.parallel_host_threads = parallel;
      VpuTarget vpu(bundle, cfg);
      for (int rep = 0; rep < 3; ++rep) (void)vpu.classify(inputs);
    }
    std::string json = tr.to_json();
    tr.set_enabled(false);
    tr.reset();
    return json;
  };
  const std::string serial = traced(false);
  EXPECT_NE(serial.find("dev3 shave"), std::string::npos);
  for (int run = 0; run < 4; ++run) {
    EXPECT_EQ(traced(true), serial) << "fan-out run " << run;
  }
}

TEST(VpuTarget, MidBatchQuarantineAndRecovery) {
  // A result-delivery stall wedges stick 1 mid-batch: the watchdog trips,
  // bounded retries exhaust, the stick is quarantined and its image is
  // replayed elsewhere; once the stall window passes, a probe re-admits
  // the stick and it finishes the batch as a full member.
  VpuTargetConfig cfg;
  cfg.devices = 4;
  cfg.health.watchdog_s = 0.05;
  cfg.faults.add(1, ncsw::sim::FaultKind::kGetTimeout, 1.3, 0.6);
  VpuTarget vpu(reference(), cfg);
  const auto run = vpu.run_timed(120, 4);
  EXPECT_EQ(run.images, 120);
  EXPECT_EQ(run.images_lost, 0);
  EXPECT_EQ(run.per_image_ms.count(), 120u);
  EXPECT_GE(run.sticks_recovered, 1);
  EXPECT_EQ(run.sticks_dead, 0);
  auto& reg = ncsw::util::metrics();
  EXPECT_GE(reg.counter("core.health.dev1.quarantines").value(), 1u);
  EXPECT_GE(reg.counter("core.health.dev1.timeouts").value(), 1u);
  EXPECT_GE(reg.counter("core.health.dev1.recoveries").value(), 1u);
  // Degradation attribution stays per-device: the healthy sticks saw no
  // quarantines.
  EXPECT_EQ(reg.counter("core.health.dev0.quarantines").value(), 0u);
}

TEST(VpuTarget, AllSticksGoneThrows) {
  VpuTargetConfig cfg;
  cfg.devices = 2;
  VpuTarget vpu(reference(), cfg);
  for (int d = 0; d < 2; ++d) {
    ncsw::mvnc::graph_device(vpu.graph_handle(d))->unplug();
  }
  EXPECT_THROW(vpu.run_timed(4, 2), std::runtime_error);
}

}  // namespace
