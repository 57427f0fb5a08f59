// Extension E8 — cross-network sweep (in the spirit of the paper's
// ref. [37], Pena et al., "Benchmarking of CNNs for low-cost, low-power
// robotics applications", which profiles several CNNs on the same
// stick): latency, throughput, energy and img/W for every network in the
// zoo on one simulated NCS, next to the CPU/GPU reference models scaled
// by each network's MAC count.
#include "bench_common.h"
#include "devices/host_models.h"
#include "graphc/compiler.h"
#include "myriad/myriad.h"
#include "ncs/device.h"
#include "nn/zoo.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("ext_network_sweep",
                "E8 — every zoo network on one stick vs CPU/GPU");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  const auto cpu = devices::make_cpu_model();
  const auto gpu = devices::make_gpu_model();
  myriad::Myriad2 chip;

  util::Table table("E8: network sweep (batch 1, per image)");
  table.set_header({"network", "MMACs", "params(M)", "VPU ms", "VPU img/s",
                    "VPU mJ", "VPU img/W*", "CPU ms", "GPU ms"});
  for (const auto& name : nn::network_zoo_names()) {
    const auto graph = nn::build_named_network(name);
    const auto compiled = graphc::compile(graph, graphc::Precision::kFP16);
    const auto profile = chip.execute(compiled);
    const double vpu_ms = profile.total_s * 1e3;
    const double params_m =
        static_cast<double>(compiled.total_weight_bytes()) / 2.0 / 1e6;
    table.add_row(
        {name,
         util::Table::num(static_cast<double>(compiled.total_macs()) / 1e6,
                          0),
         util::Table::num(params_m, 2), util::Table::num(vpu_ms, 1),
         util::Table::num(1e3 / vpu_ms, 1),
         util::Table::num(profile.energy_j * 1e3, 1),
         util::Table::num(1e3 / vpu_ms / myriad::TdpConstants::kNcsStickW, 2),
         util::Table::num(cpu.per_image_s(1, compiled.total_macs()) * 1e3, 1),
         util::Table::num(gpu.per_image_s(1, compiled.total_macs()) * 1e3,
                          1)});
  }
  bench::emit(table, cli);
  std::cout << "\n(*) img/W against the 2.5 W stick rating; the CPU/GPU "
               "columns are the calibrated Caffe models scaled by MACs.\n"
               "shape: SqueezeNet's 4x fewer MACs buy ~3x lower stick "
               "latency; AlexNet's huge FC layers are DMA-bound so its "
               "latency is GoogLeNet-class despite fewer MACs.\n";
  bench::finalize(cli);
  return 0;
}
