// Reproduces paper Fig. 8a: throughput per Watt of TDP (Eq. 1) per batch
// size on CPU, GPU and the multi-VPU configuration. The number of active
// VPU sticks is coupled to the batch size, so VPU TDP = 2.5 W x batch.
//
// Paper anchors: VPU 3.97 img/W @1 stick; CPU 0.55, GPU 0.93 img/W @8.
// Also reports the simulator's *measured* average stick power as an
// extension the paper lists as future work.
#include "bench_common.h"
#include "core/experiments.h"
#include "core/model.h"
#include "myriad/myriad.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("fig8a_img_per_watt",
                "Fig. 8a — throughput per Watt (Eq. 1) per batch size");
  cli.add_int("images", 10000, "images per measurement");
  cli.add_int("devices", 8, "NCS sticks available");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  const auto rows = core::experiments::fig8a(
      cli.get_int("images"), {1, 2, 4, 8},
      static_cast<int>(cli.get_int("devices")));

  util::Table table("Fig. 8a: Throughput-TDP comparison (images/Watt)");
  table.set_header({"Batch", "CPU", "GPU", "VPU (Multi)"});
  for (const auto& r : rows) {
    table.add_row({std::to_string(r.batch), util::Table::num(r.cpu, 2),
                   util::Table::num(r.gpu, 2), util::Table::num(r.vpu, 2)});
  }
  bench::emit(table, cli);

  std::cout << "\npaper: VPU 3.97 img/W @1; CPU 0.55 and GPU 0.93 img/W "
               "@8 — VPU over 3x higher throughput/Watt\n";

  // Extension: the paper notes "actual power measurements would be
  // required in future work". The chip simulator integrates its power
  // islands, so report the measured average draw next to the TDP.
  myriad::Myriad2 chip;
  const auto bundle = core::ModelBundle::googlenet_reference();
  const auto profile = chip.execute(bundle->compiled_f16);
  std::cout << "extension — simulated power during GoogLeNet inference: "
            << "chip avg " << util::Table::num(profile.avg_power_w, 2)
            << " W (TDP 0.9 W), energy "
            << util::Table::num(profile.energy_j * 1e3, 1)
            << " mJ per inference\n";

  bench::BenchReport report("fig8a_img_per_watt");
  report.config("images", cli.get_int("images"));
  report.config("devices", cli.get_int("devices"));
  for (const auto& r : rows) {
    if (r.batch == 1) report.anchor("vpu_img_per_w_b1", "img/W", 3.97, r.vpu);
    if (r.batch == 8) {
      report.anchor("cpu_img_per_w_b8", "img/W", 0.55, r.cpu);
      report.anchor("gpu_img_per_w_b8", "img/W", 0.93, r.gpu);
    }
  }
  report.value("sim_chip_avg_power_w", profile.avg_power_w);
  report.value("sim_energy_mj_per_inference", profile.energy_j * 1e3);
  bench::write_report(report, cli);
  bench::finalize(cli);
  return 0;
}
