// Reproduces paper Fig. 6b: normalised inference-performance scaling per
// batch size. Each device is normalised to its own single-input latency
// (paper baselines: CPU 26.0 ms, GPU 25.9 ms, VPU 100.7 ms); the number
// of active VPU chips is coupled to the batch size.
//
// Paper anchors at batch 8: CPU 1.147x, GPU 1.925x, VPU ~7.8x.
#include "bench_common.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("fig6b_scaling",
                "Fig. 6b — normalised performance scaling per batch size");
  cli.add_int("images", 10000, "images per measurement (paper: one subset)");
  cli.add_int("devices", 8, "NCS sticks available");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  const auto result = core::experiments::fig6b(
      cli.get_int("images"), {1, 2, 4, 8},
      static_cast<int>(cli.get_int("devices")));

  util::Table table("Fig. 6b: Relative inference performance per batch size");
  table.set_header({"Batch", "CPU", "GPU", "VPU (Multi)"});
  for (const auto& r : result.rows) {
    table.add_row({std::to_string(r.batch), util::Table::num(r.cpu, 2),
                   util::Table::num(r.gpu, 2), util::Table::num(r.vpu, 2)});
  }
  bench::emit(table, cli);

  std::cout << "\nsingle-input baselines (ms/inference):\n"
            << "  paper:    CPU 26.0 | GPU 25.9 | VPU 100.7\n"
            << "  measured: CPU " << util::Table::num(result.cpu_base_ms, 1)
            << " | GPU " << util::Table::num(result.gpu_base_ms, 1)
            << " | VPU " << util::Table::num(result.vpu_base_ms, 1) << "\n"
            << "paper at batch 8: CPU +14.7% (1.1x) | GPU +92.5% (1.9x) | "
               "VPU close to 8x\n";

  bench::BenchReport report("fig6b_scaling");
  report.config("images", cli.get_int("images"));
  report.config("devices", cli.get_int("devices"));
  report.anchor("cpu_base_ms", "ms", 26.0, result.cpu_base_ms);
  report.anchor("gpu_base_ms", "ms", 25.9, result.gpu_base_ms);
  report.anchor("vpu_base_ms", "ms", 100.7, result.vpu_base_ms);
  for (const auto& r : result.rows) {
    if (r.batch == 8) {
      report.anchor("cpu_scaling_b8", "x", 1.147, r.cpu);
      report.anchor("gpu_scaling_b8", "x", 1.925, r.gpu);
      report.anchor("vpu_scaling_b8", "x", 7.8, r.vpu);
    }
  }
  bench::write_report(report, cli);
  bench::finalize(cli);
  return 0;
}
