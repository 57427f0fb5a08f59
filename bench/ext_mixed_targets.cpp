// Extension E12 — heterogeneous node throughput. The paper's Section III
// closes with: "some applications might choose to run a specific subset
// of inputs on a GPU, and at the same time another subset on two
// different groups that connect to several VPUs". This bench plans a
// proportional partition of one validation subset across CPU + GPU + the
// VPU group and reports the aggregate throughput and per-Watt figure of
// the whole node.
#include "bench_common.h"
#include "core/application.h"
#include "core/host_target.h"
#include "core/vpu_target.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("ext_mixed_targets",
                "E12 — partition one subset across CPU + GPU + VPU group");
  cli.add_int("images", 10000, "images to partition");
  cli.add_int("devices", 8, "NCS sticks in the VPU group");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  const std::int64_t images = cli.get_int("images");
  auto bundle = core::ModelBundle::googlenet_reference();
  auto cpu = core::make_cpu_target(bundle);
  auto gpu = core::make_gpu_target(bundle);
  core::VpuTargetConfig vcfg;
  vcfg.devices = static_cast<int>(cli.get_int("devices"));
  core::VpuTarget vpu(bundle, vcfg);

  // Measure each target's standalone batch-8 throughput (or its largest
  // batch when smaller)...
  std::vector<core::Target*> targets{cpu.get(), gpu.get(), &vpu};
  std::vector<double> tputs;
  for (auto* t : targets) {
    tputs.push_back(
        t->run_timed(800, bench::calibration_batch(*t)).throughput());
  }
  // ...then split the subset so all three finish together.
  const auto shares = core::plan_partition(images, tputs);

  util::Table table("E12: heterogeneous partition of " +
                    std::to_string(images) + " images");
  table.set_header({"target", "standalone img/s", "share", "time (s)",
                    "TDP (W)"});
  double makespan = 0.0, node_tdp = 0.0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const int batch = bench::calibration_batch(*targets[i]);
    double seconds = 0.0;
    if (shares[i] > 0) {
      seconds = targets[i]->run_timed(shares[i], batch).seconds;
    }
    const double tdp = targets[i]->tdp_w(batch);
    makespan = std::max(makespan, seconds);
    node_tdp += tdp;
    table.add_row({targets[i]->short_name(), util::Table::num(tputs[i], 1),
                   std::to_string(shares[i]), util::Table::num(seconds, 1),
                   util::Table::num(tdp, 1)});
  }
  bench::emit(table, cli);

  const double combined = static_cast<double>(images) / makespan;
  const double best_single = *std::max_element(tputs.begin(), tputs.end());
  std::cout << "\nnode aggregate: " << util::Table::num(combined, 1)
            << " img/s at " << util::Table::num(node_tdp, 0)
            << " W total TDP ("
            << util::Table::num(combined / node_tdp, 2) << " img/W) — "
            << util::Table::num(combined / best_single, 2)
            << "x the best single target; the partition keeps every "
               "engine busy and all three finish within "
            << util::Table::num(makespan, 1) << " s.\n";
  bench::finalize(cli);
  return 0;
}
