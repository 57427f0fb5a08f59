#include "myriad/myriad.h"

#include <gtest/gtest.h>

#include "nn/googlenet.h"

namespace {

using namespace ncsw::myriad;
using ncsw::graphc::compile;
using ncsw::graphc::CompiledGraph;
using ncsw::graphc::Precision;

CompiledGraph googlenet_fp16() {
  static const CompiledGraph g =
      compile(ncsw::nn::build_googlenet(), Precision::kFP16);
  return g;
}

TEST(Myriad2, PeakThroughputMatchesDatasheetMath) {
  Myriad2 chip;
  // 12 SHAVEs * 600 MHz * 8 FP16 MACs = 57.6 GMAC/s.
  EXPECT_NEAR(chip.peak_macs_per_s(Precision::kFP16), 57.6e9, 1e6);
  // FP32 halves the vector width.
  EXPECT_NEAR(chip.peak_macs_per_s(Precision::kFP32), 28.8e9, 1e6);
}

TEST(Myriad2, ManufacturerClaimedFp16Gflops) {
  // The paper (footnote 1) cites ~1000 GFLOPS peak FP16 in marketing
  // terms; the sustained-MAC figure is lower. Check our peak is within
  // one order of magnitude of 2*57.6 GFLOP/s.
  Myriad2 chip;
  const double gflops = 2.0 * chip.peak_macs_per_s(Precision::kFP16) / 1e9;
  EXPECT_GT(gflops, 50.0);
  EXPECT_LT(gflops, 1000.0);
}

TEST(Myriad2, GoogLeNetCalibrationAnchor) {
  // The chip-level execution must land near 99.3 ms so the single-stick
  // end-to-end time reproduces the paper's 100.7 ms.
  Myriad2 chip;
  const auto profile = chip.execute(googlenet_fp16());
  EXPECT_GT(profile.total_s, 0.095);
  EXPECT_LT(profile.total_s, 0.103);
}

TEST(Myriad2, PowerStaysUnderOneWatt) {
  // "The chip dissipates less than 1W" (paper Section II-A).
  Myriad2 chip;
  const auto profile = chip.execute(googlenet_fp16());
  EXPECT_GT(profile.avg_power_w, 0.3);
  EXPECT_LT(profile.avg_power_w, 1.0);
  EXPECT_GT(profile.energy_j, 0.0);
  EXPECT_NEAR(profile.energy_j, profile.avg_power_w * profile.total_s, 1e-9);
}

TEST(Myriad2, LayerProfilesCoverTotal) {
  Myriad2 chip;
  const auto profile = chip.execute(googlenet_fp16());
  ASSERT_FALSE(profile.layers.empty());
  double sum = 0.0;
  for (const auto& l : profile.layers) {
    EXPECT_GE(l.time_s, 0.0);
    EXPECT_GE(l.shave_utilization, 0.0);
    EXPECT_LE(l.shave_utilization, 1.0 + 1e-9);
    sum += l.time_s;
  }
  // Layers are serialised by the LEON scheduler, so per-layer times plus
  // dispatch overheads add up to the total.
  EXPECT_LE(sum, profile.total_s);
  EXPECT_GT(sum, profile.total_s * 0.9);
}

TEST(Myriad2, LayerStartsAreMonotonic) {
  Myriad2 chip;
  const auto profile = chip.execute(googlenet_fp16());
  double prev = -1.0;
  for (const auto& l : profile.layers) {
    EXPECT_GE(l.start_s, prev);
    prev = l.start_s;
  }
}

TEST(Myriad2, MoreShavesIsFaster) {
  MyriadConfig slow;
  slow.num_shaves = 4;
  MyriadConfig fast;
  fast.num_shaves = 12;
  const auto ps = Myriad2(slow).execute(googlenet_fp16());
  const auto pf = Myriad2(fast).execute(googlenet_fp16());
  EXPECT_GT(ps.total_s, pf.total_s * 1.8);  // close to 3x, minus DMA floors
}

TEST(Myriad2, HigherClockIsFaster) {
  MyriadConfig base;
  MyriadConfig oc = base;
  oc.clock_hz = 1200e6;
  const auto p1 = Myriad2(base).execute(googlenet_fp16());
  const auto p2 = Myriad2(oc).execute(googlenet_fp16());
  EXPECT_LT(p2.total_s, p1.total_s);
}

TEST(Myriad2, Fp32GraphSlowerThanFp16) {
  const auto g32 = compile(ncsw::nn::build_googlenet(), Precision::kFP32);
  Myriad2 chip;
  const auto p16 = chip.execute(googlenet_fp16());
  const auto p32 = chip.execute(g32);
  EXPECT_GT(p32.total_s, p16.total_s * 1.5);
}

TEST(Myriad2, CmxMissPenaltySlowsSpillingLayers) {
  MyriadConfig no_penalty;
  no_penalty.cmx_miss_penalty = 1.0;
  MyriadConfig heavy;
  heavy.cmx_miss_penalty = 3.0;
  const auto p1 = Myriad2(no_penalty).execute(googlenet_fp16());
  const auto p2 = Myriad2(heavy).execute(googlenet_fp16());
  EXPECT_GT(p2.total_s, p1.total_s);
}

TEST(Myriad2, EfficiencyDispatchByKind) {
  Myriad2 chip;
  EXPECT_DOUBLE_EQ(chip.efficiency(ncsw::nn::LayerKind::kConv),
                   chip.config().eff_conv);
  EXPECT_DOUBLE_EQ(chip.efficiency(ncsw::nn::LayerKind::kFC),
                   chip.config().eff_fc);
  EXPECT_DOUBLE_EQ(chip.efficiency(ncsw::nn::LayerKind::kMaxPool),
                   chip.config().eff_pool);
  EXPECT_DOUBLE_EQ(chip.efficiency(ncsw::nn::LayerKind::kLRN),
                   chip.config().eff_lrn);
}

TEST(Myriad2, RejectsInvalidConfigs) {
  MyriadConfig bad;
  bad.num_shaves = 0;
  EXPECT_THROW(Myriad2{bad}, std::invalid_argument);
  bad = MyriadConfig{};
  bad.ddr_bandwidth = -1;
  EXPECT_THROW(Myriad2{bad}, std::invalid_argument);
}

TEST(Myriad2, RejectsEmptyGraph) {
  Myriad2 chip;
  CompiledGraph empty;
  EXPECT_THROW(chip.execute(empty), std::invalid_argument);
}

TEST(Myriad2, SimulationEventsWereExecuted) {
  // One reservation per SHAVE tile of every layer with MACs, plus one
  // DDR stream per layer that moves weights or misses CMX.
  const auto graph = googlenet_fp16();
  std::uint64_t tiles = 0, ddr_streams = 0;
  for (const auto& layer : graph.layers) {
    if (layer.kind == ncsw::nn::LayerKind::kInput) continue;
    if (layer.macs > 0) tiles += static_cast<std::uint64_t>(layer.tiles);
    if (layer.weight_bytes > 0 || !layer.fits_cmx) ++ddr_streams;
  }
  EXPECT_GT(tiles, 5000u);  // ~8k tiles for GoogLeNet
  EXPECT_GT(ddr_streams, 50u);
  EXPECT_EQ(Myriad2().execute(graph).sim_events, tiles + ddr_streams);
}

TEST(Myriad2, DeterministicProfile) {
  Myriad2 chip;
  const auto a = chip.execute(googlenet_fp16());
  const auto b = chip.execute(googlenet_fp16());
  EXPECT_DOUBLE_EQ(a.total_s, b.total_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST(TdpConstants, MatchPaper) {
  EXPECT_DOUBLE_EQ(TdpConstants::kMyriad2ChipW, 0.9);
  EXPECT_DOUBLE_EQ(TdpConstants::kNcsStickW, 2.5);
  EXPECT_DOUBLE_EQ(TdpConstants::kXeonE52609v2W, 80.0);
  EXPECT_DOUBLE_EQ(TdpConstants::kQuadroK4000W, 80.0);
}

}  // namespace
