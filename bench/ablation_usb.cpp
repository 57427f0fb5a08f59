// Ablation A2 — the USB attachment topology (paper Fig. 5): the paper
// connects 6 sticks through two USB 3.0 hubs and 2 directly. This bench
// sweeps topologies to show (a) the paper's mixed topology loses nothing
// against all-dedicated root ports on USB 3.0, and (b) why it would NOT
// have worked on USB 2.0, where the shared uplink saturates.
#include "bench_common.h"
#include "core/model.h"
#include "core/vpu_target.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("ablation_usb", "A2 — USB topology ablation (8 sticks)");
  cli.add_int("images", 2000, "images per measurement");
  cli.add_int("devices", 8, "NCS sticks");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  const int devices = static_cast<int>(cli.get_int("devices"));
  const std::int64_t images = cli.get_int("images");
  auto bundle = core::ModelBundle::googlenet_reference();

  struct Case {
    const char* label;
    mvnc::HostConfig::Topology topology;
  };
  const Case cases[] = {
      {"paper: 2x USB3 hub (3+3) + 2 root ports",
       mvnc::HostConfig::Topology::kPaperTestbed},
      {"all sticks on dedicated USB3 root ports",
       mvnc::HostConfig::Topology::kAllDirect},
      {"all sticks behind ONE USB3 hub",
       mvnc::HostConfig::Topology::kSingleHubUsb3},
      {"all sticks behind ONE USB2 hub",
       mvnc::HostConfig::Topology::kSingleHubUsb2},
  };

  util::Table table("A2: USB topology ablation (images/s, " +
                    std::to_string(devices) + " sticks)");
  table.set_header({"Topology", "Throughput", "1-stick latency (ms)"});
  int case_idx = 0;
  for (const auto& c : cases) {
    core::VpuTargetConfig cfg;
    cfg.devices = devices;
    cfg.topology = c.topology;
    // Each topology restarts the simulated clock; namespace its lanes so
    // one trace file shows the cases side by side instead of overlaid.
    util::tracer().set_lane_prefix("topo" + std::to_string(case_idx++) + " ");
    core::VpuTarget vpu(bundle, cfg);
    const double single_ms = vpu.run_timed(64, 1).seconds * 1e3 / 64.0;
    const double tput = vpu.run_timed(images, devices).throughput();
    table.add_row({c.label, util::Table::num(tput, 1),
                   util::Table::num(single_ms, 1)});
  }
  bench::emit(table, cli);

  std::cout
      << "\nconclusion: on USB 3.0 the GoogLeNet input (294 KB FP16) is "
         "~1 ms, so hub sharing is invisible next to the ~100 ms "
         "execution — the paper's mixed topology is as good as dedicated "
         "ports. On a USB 2.0 uplink the same transfer takes ~9 ms and "
         "eight sticks saturate the shared link.\n";
  bench::finalize(cli);
  return 0;
}
