// Ablation A5 — scheduling policy. The paper "follows a simple static
// scheduling (i.e., round-robin)" across the sticks, which is optimal
// when the sticks are identical. This ablation degrades one stick (a
// hard-throttled unit running at half clock) and compares static
// round-robin against a dynamic least-loaded policy: with round-robin the
// whole group waits for the slow stick's equal share; least-loaded routes
// work around it.
#include "bench_common.h"
#include "core/model.h"
#include "core/vpu_target.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("ablation_scheduler",
                "A5 — round-robin vs least-loaded with one slow stick");
  cli.add_int("images", 2000, "images per measurement");
  cli.add_int("devices", 8, "NCS sticks");
  cli.add_double("slow-factor", 2.0, "clock division of the degraded stick");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  const int devices = static_cast<int>(cli.get_int("devices"));
  const std::int64_t images = cli.get_int("images");
  const double slow = cli.get_double("slow-factor");
  auto bundle = core::ModelBundle::googlenet_reference();

  struct Case {
    const char* label;
    core::Scheduling policy;
    int degraded;
  };
  const Case cases[] = {
      {"round-robin, identical sticks (paper)", core::Scheduling::kRoundRobin,
       -1},
      {"round-robin, one stick at half clock",
       core::Scheduling::kRoundRobin, 0},
      {"least-loaded, one stick at half clock",
       core::Scheduling::kLeastLoaded, 0},
      {"least-loaded, identical sticks", core::Scheduling::kLeastLoaded, -1},
  };

  util::Table table("A5: scheduling policy (" + std::to_string(devices) +
                    " sticks, images/s)");
  table.set_header({"Configuration", "Throughput", "vs paper baseline"});
  double baseline = 0.0;
  int case_idx = 0;
  for (const auto& c : cases) {
    core::VpuTargetConfig cfg;
    cfg.devices = devices;
    cfg.scheduling = c.policy;
    cfg.degraded_device = c.degraded;
    cfg.degraded_factor = slow;
    // Each case restarts the simulated clock; namespace its lanes so one
    // trace file shows the cases side by side instead of overlaid.
    util::tracer().set_lane_prefix("case" + std::to_string(case_idx++) + " ");
    core::VpuTarget vpu(bundle, cfg);
    const double tput = vpu.run_timed(images, devices).throughput();
    if (baseline == 0.0) baseline = tput;
    table.add_row({c.label, util::Table::num(tput, 1),
                   util::Table::num(tput / baseline * 100, 0) + "%"});
  }
  bench::emit(table, cli);

  std::cout << "\nconclusion: static round-robin is fine on the paper's "
               "homogeneous testbed, but one degraded stick drags the "
               "whole group to its pace; a least-loaded queue recovers "
               "most of the loss (future-work territory the paper's "
               "Section III design anticipates).\n";
  bench::finalize(cli);
  return 0;
}
