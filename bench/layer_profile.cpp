// Per-layer execution profile of GoogLeNet on the simulated Myriad 2,
// exposed exactly the way the NCAPI does it (the MVNC_TIME_TAKEN graph
// option the paper's Section II-B describes). Prints the slowest layers
// and per-kind aggregates.
#include <algorithm>
#include <map>

#include "bench_common.h"
#include "core/model.h"
#include "core/vpu_target.h"
#include "myriad/myriad.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("layer_profile",
                "per-layer VPU execution times via the NCAPI profiling "
                "option");
  cli.add_int("top", 15, "how many of the slowest layers to list");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  if (cli.get_int("top") < 1) {
    return bench::usage_error(cli, "--top must be >= 1 (got " +
                                       std::to_string(cli.get_int("top")) +
                                       ")");
  }
  bench::setup(cli);

  auto bundle = core::ModelBundle::googlenet_reference();

  // Through the NCAPI (TIME_TAKEN) ...
  core::VpuTargetConfig cfg;
  cfg.devices = 1;
  core::VpuTarget vpu(bundle, cfg);
  const auto ncapi_times = vpu.layer_times_ms();

  // ... and the chip simulator's richer record for the same graph.
  myriad::Myriad2 chip;
  const auto profile = chip.execute(bundle->compiled_f16);

  struct Row {
    std::size_t idx;
    double ms;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < ncapi_times.size(); ++i) {
    rows.push_back({i, static_cast<double>(ncapi_times[i])});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.ms > b.ms; });

  const auto top = static_cast<std::size_t>(cli.get_int("top"));
  util::Table table("Slowest GoogLeNet layers on the Myriad 2 (NCAPI "
                    "MVNC_TIME_TAKEN)");
  table.set_header({"Layer", "Kind", "ms", "compute ms", "DMA ms", "tiles",
                    "SHAVE util"});
  for (std::size_t i = 0; i < std::min(top, rows.size()); ++i) {
    const auto& lp = profile.layers[rows[i].idx];
    table.add_row({lp.name, nn::layer_kind_name(lp.kind),
                   util::Table::num(rows[i].ms, 3),
                   util::Table::num(lp.compute_s * 1e3, 3),
                   util::Table::num(lp.dma_s * 1e3, 3),
                   std::to_string(lp.tiles),
                   util::Table::num(lp.shave_utilization * 100, 0) + "%"});
  }
  bench::emit(table, cli);

  // Per-kind aggregate.
  std::map<std::string, double> by_kind;
  for (const auto& lp : profile.layers) {
    by_kind[nn::layer_kind_name(lp.kind)] += lp.time_s * 1e3;
  }
  util::Table agg("Time by layer kind");
  agg.set_header({"Kind", "total ms", "share"});
  for (const auto& [kind, ms] : by_kind) {
    agg.add_row({kind, util::Table::num(ms, 2),
                 util::Table::num(ms / (profile.total_s * 1e3) * 100, 1) +
                     "%"});
  }
  std::cout << "\n" << agg.to_string();
  std::cout << "\ntotal on-chip execution: "
            << util::Table::num(profile.total_s * 1e3, 2)
            << " ms | simulated events: " << profile.sim_events
            << " | avg power: " << util::Table::num(profile.avg_power_w, 2)
            << " W\n";
  bench::finalize(cli);
  return 0;
}
