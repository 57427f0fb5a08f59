// Extension E9 — general-purpose GEMM offload (the paper's Section VII
// future work, reproducing the shape of Ionica & Gregg's Myriad DGEMM
// results): Gflops and Gflops/W for CMX-tiled GEMM on the simulated
// Myriad 2, FP16 and FP32, against the calibrated Xeon reference.
#include "bench_common.h"
#include "devices/host_models.h"
#include "mdk/mdk.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("ext_dgemm_offload",
                "E9 — CMX-tiled GEMM on the VPU: Gflops and Gflops/W");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  mdk::MdkContext ctx;

  // Host comparator: effective GFLOP/s of the calibrated Caffe-MKL model
  // (GoogLeNet GFLOPs / single-image latency) at 80 W TDP. GEMM is the
  // friendliest case for MKL, so credit it 1.6x the conv-net figure.
  const auto cpu = devices::make_cpu_model();
  const double cpu_gflops = 2.0 *
                            static_cast<double>(devices::googlenet_macs()) /
                            cpu.per_image_s(1) / 1e9 * 1.6;
  const double cpu_gflops_per_w = cpu_gflops / cpu.tdp_w();

  util::Table table("E9: GEMM offload (square matrices)");
  table.set_header({"N", "precision", "tile", "Gflops", "W", "Gflops/W",
                    "SHAVE util"});
  for (std::int64_t n : {256, 512, 1024, 2048, 4096}) {
    for (auto prec : {graphc::Precision::kFP16, graphc::Precision::kFP32}) {
      const auto plan = ctx.plan_gemm(n, n, n, prec);
      const auto stats = ctx.simulate_gemm(plan);
      table.add_row({std::to_string(n), graphc::precision_name(prec),
                     std::to_string(plan.tile_m) + "x" +
                         std::to_string(plan.tile_n) + "x" +
                         std::to_string(plan.tile_k),
                     util::Table::num(stats.gflops, 1),
                     util::Table::num(stats.avg_power_w, 2),
                     util::Table::num(stats.gflops_per_w, 1),
                     util::Table::num(stats.shave_utilization * 100, 0) +
                         "%"});
    }
  }
  bench::emit(table, cli);

  std::cout << "\nhost comparator: Xeon E5-2609v2 pair ~"
            << util::Table::num(cpu_gflops, 0) << " GFLOP/s at 80 W TDP = "
            << util::Table::num(cpu_gflops_per_w, 1) << " Gflops/W\n"
            << "shape (Ionica & Gregg, IEEE Micro'15): the Myriad sustains "
               "an order of magnitude better Gflops/W on tiled GEMM than a "
               "server CPU, at ~1 W absolute draw.\n";
  bench::finalize(cli);
  return 0;
}
