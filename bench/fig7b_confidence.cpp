// Reproduces paper Fig. 7b: absolute top-1 confidence difference between
// the CPU (FP32) and VPU (FP16) implementations per subset, after
// filtering out the top-1 miss-predictions.
//
// Paper anchor: 0.44% mean absolute difference (sub-percent everywhere).
#include <limits>

#include "bench_common.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("fig7b_confidence",
                "Fig. 7b — CPU(FP32) vs VPU(FP16) confidence difference");
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

  util::Table table(
      "Fig. 7b: Abs. confidence difference per subset, CPU (FP32) vs VPU "
      "(FP16), top-1 misses filtered");
  table.set_header({"Subset", "Images", "Abs. diff"});
  util::RunningStats diff;
  for (const auto& r : rows) {
    table.add_row({r.subset, std::to_string(r.images),
                   util::Table::num(r.conf_diff * 100, 3) + "%"});
    diff.add(r.conf_diff);
  }
  table.add_row({"mean", "", util::Table::num(diff.mean() * 100, 3) + "%"});
  bench::emit(table, cli);

  std::cout << "\npaper:    0.44% average confidence difference\n"
            << "measured: " << util::Table::num(diff.mean() * 100, 3)
            << "% (sub-percent, same conclusion: FP16 does not "
               "meaningfully perturb the network output)\n";

  bench::BenchReport report("fig7b_confidence");
  report.config("images", s.images_per_subset);
  report.config("subsets", static_cast<std::int64_t>(s.data.subsets));
  report.config("classes", static_cast<std::int64_t>(s.data.num_classes));
  report.anchor("mean_abs_conf_diff_pct", "%", 0.44, diff.mean() * 100);
  bench::write_report(report, cli);
  bench::finalize(cli);
  return 0;
}
