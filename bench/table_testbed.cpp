// Reproduces the paper's Section IV testbed inventory as a table: each
// target device with its TDP and its measured single-input / batch-8
// characteristics, plus the Myriad 2 datasheet numbers of Section II.
#include "bench_common.h"
#include "core/host_target.h"
#include "core/vpu_target.h"
#include "myriad/myriad.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("table_testbed", "Section IV testbed characteristics");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  auto bundle = core::ModelBundle::googlenet_reference();
  auto cpu = core::make_cpu_target(bundle);
  auto gpu = core::make_gpu_target(bundle);
  core::VpuTargetConfig vcfg;
  vcfg.devices = 8;
  core::VpuTarget vpu(bundle, vcfg);

  util::Table table("Testbed devices (GoogLeNet, ILSVRC-2012 geometry)");
  table.set_header({"Target", "Device", "TDP (W)", "1-input (ms)",
                    "batch-8 (img/s)"});
  auto row = [&](core::Target& t) {
    const double single = t.run_timed(200, 1).seconds * 1e3 / 200.0;
    const double batch8 = t.run_timed(1600, 8).throughput();
    table.add_row({t.short_name(), t.name(),
                   util::Table::num(t.tdp_w(8), 1),
                   util::Table::num(single, 1),
                   util::Table::num(batch8, 1)});
  };
  row(*cpu);
  row(*gpu);
  row(vpu);
  bench::emit(table, cli);

  // Myriad 2 datasheet block (paper Section II-A).
  myriad::Myriad2 chip;
  util::Table arch("Myriad 2 VPU (MA2450) architecture summary");
  arch.set_header({"Property", "Value"});
  arch.add_row({"SHAVE vector processors",
                std::to_string(chip.config().num_shaves)});
  arch.add_row({"Nominal frequency",
                util::Table::num(chip.config().clock_hz / 1e6, 0) + " MHz"});
  arch.add_row({"Peak FP16",
                util::Table::num(
                    2.0 * chip.peak_macs_per_s(graphc::Precision::kFP16) / 1e9,
                    1) +
                    " GFLOP/s (sustained-MAC basis)"});
  arch.add_row({"CMX scratchpad", "2 MB (16 x 128 KB)"});
  arch.add_row({"Global memory", "4 GB LPDDR3"});
  arch.add_row({"Chip TDP",
                util::Table::num(myriad::TdpConstants::kMyriad2ChipW, 1) +
                    " W"});
  arch.add_row({"NCS stick peak",
                util::Table::num(myriad::TdpConstants::kNcsStickW, 1) + " W"});
  std::cout << "\n" << arch.to_string();
  bench::finalize(cli);
  return 0;
}
