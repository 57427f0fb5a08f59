// Reproduces paper Fig. 7a: top-1 inference error per validation subset
// on the CPU (FP32) and VPU (FP16) implementations.
//
// The paper runs the pre-trained BVLC GoogLeNet over 5 x 10000 ILSVRC
// images; here the functional TinyGoogLeNet (same module structure, FP32
// master weights + FP16 conversion for the stick) runs over the
// calibrated synthetic dataset, whose difficulty was tuned once so FP32
// error lands near the paper's 32%.
//
// Paper anchors: CPU (FP32) 32.01%, VPU (FP16) 31.92% — a 0.09% gap.
#include <limits>

#include "bench_common.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("fig7a_top1_error",
                "Fig. 7a — top-1 error per subset, FP32 vs FP16");
  cli.add_int("images", 400,
              "images per subset (functional inference; paper: 10000)");
  cli.add_int("subsets", 5, "number of subsets");
  cli.add_int("classes", 50, "synthetic classes");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  if (auto rc = bench::require_range(cli, "images", 1, kIntMax)) return *rc;
  if (auto rc = bench::require_range(cli, "subsets", 1, kIntMax)) return *rc;
  if (auto rc = bench::require_range(cli, "classes", 2, kIntMax)) return *rc;
  bench::setup(cli);

  core::experiments::ErrorSettings s;
  s.images_per_subset = cli.get_int("images");
  s.data.subsets = static_cast<int>(cli.get_int("subsets"));
  s.data.num_classes = static_cast<int>(cli.get_int("classes"));

  const auto rows = core::experiments::fig7(s);

  util::Table table("Fig. 7a: Top-1 inference error per subset");
  table.set_header({"Subset", "Images", "CPU (FP32)", "VPU (FP16)"});
  util::RunningStats cpu, vpu;
  for (const auto& r : rows) {
    table.add_row({r.subset, std::to_string(r.images),
                   util::Table::num(r.cpu_error * 100, 2) + "%",
                   util::Table::num(r.vpu_error * 100, 2) + "%"});
    cpu.add(r.cpu_error);
    vpu.add(r.vpu_error);
  }
  table.add_row({"mean", "", util::Table::num(cpu.mean() * 100, 2) + "%",
                 util::Table::num(vpu.mean() * 100, 2) + "%"});
  bench::emit(table, cli);

  std::cout << "\npaper:    CPU 32.01% | VPU 31.92% (0.09% apart — FP16 "
               "precision is not a factor)\n"
            << "measured: CPU " << util::Table::num(cpu.mean() * 100, 2)
            << "% | VPU " << util::Table::num(vpu.mean() * 100, 2)
            << "% (delta "
            << util::Table::num((vpu.mean() - cpu.mean()) * 100, 2) << "%)\n";

  bench::BenchReport report("fig7a_top1_error");
  report.config("images", s.images_per_subset);
  report.config("subsets", static_cast<std::int64_t>(s.data.subsets));
  report.config("classes", static_cast<std::int64_t>(s.data.num_classes));
  report.anchor("cpu_top1_error_pct", "%", 32.01, cpu.mean() * 100);
  report.anchor("vpu_top1_error_pct", "%", 31.92, vpu.mean() * 100);
  report.value("fp16_delta_pct", (vpu.mean() - cpu.mean()) * 100);
  bench::write_report(report, cli);
  bench::finalize(cli);
  return 0;
}
