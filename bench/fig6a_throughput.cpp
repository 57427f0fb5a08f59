// Reproduces paper Fig. 6a: inference throughput (img/s) per ILSVRC
// Validation subset at batch 8 on the CPU (Caffe-MKL), GPU (Caffe-cuDNN)
// and the 8-stick multi-VPU NCSw target.
//
// Paper anchors: CPU 44.0, GPU 74.2, VPU (multi) 77.2 img/s.
#include "bench_common.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("fig6a_throughput",
                "Fig. 6a — throughput per validation subset (batch 8)");
  cli.add_int("images", 10000, "images per subset (paper: 10000)");
  cli.add_int("subsets", 5, "number of subsets (paper: 5)");
  cli.add_int("batch", 8, "batch size / active VPU chips");
  cli.add_int("devices", 8, "NCS sticks in the testbed");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  core::experiments::TimingSettings s;
  s.images_per_subset = cli.get_int("images");
  s.subsets = static_cast<int>(cli.get_int("subsets"));
  s.batch = static_cast<int>(cli.get_int("batch"));
  s.devices = static_cast<int>(cli.get_int("devices"));
  if (s.batch < 1 || s.batch > s.devices) {
    return bench::usage_error(cli, "--batch must be in [1, --devices] (got " +
                                       std::to_string(s.batch) + ")");
  }

  const auto rows = core::experiments::fig6a(s);

  util::Table table(
      "Fig. 6a: Inference performance per subset / " +
      std::to_string(s.batch) + "x input (batch), images/s");
  table.set_header({"Subset", "CPU", "GPU", "VPU (Multi)", "CPU sd(ms)",
                    "GPU sd(ms)", "VPU sd(ms)"});
  util::RunningStats cpu, gpu, vpu;
  for (const auto& r : rows) {
    table.add_row({r.subset, util::Table::num(r.cpu, 1),
                   util::Table::num(r.gpu, 1), util::Table::num(r.vpu, 1),
                   util::Table::num(r.cpu_sd, 3), util::Table::num(r.gpu_sd, 3),
                   util::Table::num(r.vpu_sd, 3)});
    cpu.add(r.cpu);
    gpu.add(r.gpu);
    vpu.add(r.vpu);
  }
  table.add_row({"mean", util::Table::num(cpu.mean(), 1),
                 util::Table::num(gpu.mean(), 1),
                 util::Table::num(vpu.mean(), 1), "", "", ""});
  bench::emit(table, cli);

  std::cout << "\npaper: CPU 44.0 | GPU 74.2 | VPU (multi, 8 sticks) 77.2 "
               "img/s; CPU is ~40.7% slower than the multi-VPU\n";
  const double cpu_gap = (vpu.mean() - cpu.mean()) / vpu.mean() * 100.0;
  std::cout << "measured: CPU " << util::Table::num(cpu.mean(), 1) << " | GPU "
            << util::Table::num(gpu.mean(), 1) << " | VPU "
            << util::Table::num(vpu.mean(), 1) << " img/s; CPU is "
            << util::Table::num(cpu_gap, 1) << "% slower\n";

  bench::BenchReport report("fig6a_throughput");
  report.config("images", s.images_per_subset);
  report.config("subsets", static_cast<std::int64_t>(s.subsets));
  report.config("batch", static_cast<std::int64_t>(s.batch));
  report.config("devices", static_cast<std::int64_t>(s.devices));
  report.anchor("cpu_img_per_s", "img/s", 44.0, cpu.mean());
  report.anchor("gpu_img_per_s", "img/s", 74.2, gpu.mean());
  report.anchor("vpu_img_per_s", "img/s", 77.2, vpu.mean());
  report.value("cpu_gap_vs_vpu_pct", cpu_gap);
  bench::write_report(report, cli);
  bench::finalize(cli);
  return 0;
}
