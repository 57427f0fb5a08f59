// Reproduces paper Fig. 8b: inference throughput per batch size with the
// multi-VPU curve continued past the 8 physically available sticks. The
// paper *projects* the 16-chip point assuming the observed scaling holds;
// here the 9-16 stick region is actually simulated (more root ports on
// the host model) and flagged "projected" to match the paper's dashed
// line.
//
// Paper anchors: CPU max 44.5, GPU max 79.9, VPU 153.0 img/s @16 chips
// (3.4x CPU, 1.9x GPU).
#include "bench_common.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("fig8b_projection",
                "Fig. 8b — projected throughput per batch size (1-16)");
  cli.add_int("images", 10000, "images per measurement");
  cli.add_int("devices", 8, "physically available sticks (beyond = dashed)");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  const auto rows = core::experiments::fig8b(
      cli.get_int("images"), {1, 2, 4, 8, 16},
      static_cast<int>(cli.get_int("devices")));

  util::Table table("Fig. 8b: Projected inference performance (images/s)");
  table.set_header({"Batch", "CPU", "GPU", "VPU (Multi)", ""});
  for (const auto& r : rows) {
    table.add_row({std::to_string(r.batch), util::Table::num(r.cpu, 1),
                   util::Table::num(r.gpu, 1), util::Table::num(r.vpu, 1),
                   r.vpu_projected ? "(projected)" : ""});
  }
  bench::emit(table, cli);

  const auto& last = rows.back();
  std::cout << "\npaper: CPU max 44.5 | GPU max 79.9 | VPU 153.0 img/s @16 "
               "chips (3.4x CPU, 1.9x GPU)\n"
            << "measured @16: CPU " << util::Table::num(last.cpu, 1)
            << " | GPU " << util::Table::num(last.gpu, 1) << " | VPU "
            << util::Table::num(last.vpu, 1) << " img/s ("
            << util::Table::num(last.vpu / last.cpu, 1) << "x CPU, "
            << util::Table::num(last.vpu / last.gpu, 1) << "x GPU)\n";

  bench::BenchReport report("fig8b_projection");
  report.config("images", cli.get_int("images"));
  report.config("devices", cli.get_int("devices"));
  report.anchor("cpu_max_img_per_s", "img/s", 44.5, last.cpu);
  report.anchor("gpu_max_img_per_s", "img/s", 79.9, last.gpu);
  report.anchor("vpu_16chip_img_per_s", "img/s", 153.0, last.vpu);
  report.value("vpu_vs_cpu_x", last.vpu / last.cpu);
  report.value("vpu_vs_gpu_x", last.vpu / last.gpu);
  bench::write_report(report, cli);
  bench::finalize(cli);
  return 0;
}
