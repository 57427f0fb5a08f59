// Multi-tenant model-zoo serving benchmark: M zoo models contending for
// K sticks through the residency-managed graph cache.
//
// The paper's deployments dedicate the fleet to one network; a
// multi-tenant node instead hosts a zoo whose working set exceeds the
// sticks' LPDDR, so every request may pay a graph swap before it runs.
// This harness offers one Poisson tenant mix (zipf-skewed across the
// zoo, tagged with SLO classes) to three placement policies on fresh
// fleets:
//
//   static     — model m pinned to stick m % K, the offline partition a
//                zoo without a residency layer would hard-code. The hot
//                pair of tenants collides on one stick and thrashes it
//                while the other stick idles: the baseline.
//   lru        — evict the least-recently-used stick (swap-cost blind).
//   cost-aware — GreedyDual scoring: evict cold AND cheap-to-reload
//                victims, priced by the fleet's calibrated per-model
//                dealloc+alloc cost.
//
// then replays cost-aware from the same seed on a fresh fleet to
// demonstrate byte-determinism. Reported per phase: goodput, hit rate,
// swap count + stall time, and per-SLO-class tail latency.
#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "check/schedfuzz.h"
#include "check/serve_check.h"
#include "core/stick_fleet.h"
#include "serve/arrivals.h"
#include "serve/zoo_serve.h"
#include "util/rng.h"

namespace {

using namespace ncsw;

/// The zoo, in fleet model-index order. Index 0/2 form the hot pair:
/// under static pinning with 2 sticks both land on stick 0.
const std::vector<std::string> kZooNames = {"googlenet", "alexnet",
                                            "squeezenet", "tiny"};

std::vector<serve::ZooRequest> make_trace(std::int64_t n, double rate,
                                          std::uint64_t seed) {
  serve::PoissonArrivals arrivals(rate, seed);
  util::Xoshiro256 mix(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<serve::ZooRequest> trace;
  trace.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    serve::ZooRequest req;
    req.id = i;
    req.arrival_s = arrivals.next();
    // Zipf-skewed tenant mix: two hot tenants carry 96% of the load
    // (48% googlenet + 48% squeezenet), the cold tail the rest. The
    // tail is what separates the policies: alexnet's blob is by far
    // the costliest to swap back in.
    const double u = mix.uniform();
    req.model = u < 0.48 ? 0 : u < 0.96 ? 2 : u < 0.98 ? 1 : 3;
    // SLO classes: 20% interactive, 60% standard, 20% batch.
    const double c = mix.uniform();
    req.slo = c < 0.20   ? serve::SloClass::kInteractive
              : c < 0.80 ? serve::SloClass::kStandard
                         : serve::SloClass::kBatch;
    trace.push_back(req);
  }
  return trace;
}

std::vector<core::ZooModel> make_zoo() {
  std::vector<core::ZooModel> zoo;
  for (const auto& name : kZooNames) {
    zoo.push_back({name, core::ModelBundle::zoo_reference(name)});
  }
  return zoo;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("zoo_loadgen",
                "multi-tenant model-zoo serving with stick-resident graph "
                "caching: static vs lru vs cost-aware placement");
  cli.add_int("requests", 2000, "requests per phase");
  cli.add_int("devices", 2, "sticks in the fleet");
  cli.add_double("rate", 0.0,
                 "offered load (req/s); 0 = 1.5x the fleet's calibrated "
                 "hot-model throughput (saturating)");
  cli.add_int("seed", 42, "arrival/mix seed");
  cli.add_int("queue", 96, "shared admission queue capacity");
  cli.add_int("batch", 4, "max same-model requests folded into one ticket");
  cli.add_double("deadline-ms", 0.0,
                 "queue deadline before a request is dropped (0 = never)");
  cli.add_double("hysteresis-ms", 0.0,
                 "minimum residency before a graph may be evicted again");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  if (cli.get_int("devices") < 1) {
    return bench::usage_error(cli, "--devices must be >= 1");
  }
  if (cli.get_int("requests") < 1) {
    return bench::usage_error(cli, "--requests must be >= 1");
  }
  if (cli.get_int("queue") < 1) {
    return bench::usage_error(cli, "--queue must be >= 1");
  }
  if (cli.get_int("batch") < 1) {
    return bench::usage_error(cli, "--batch must be >= 1");
  }
  if (cli.get_double("rate") < 0.0 || cli.get_double("deadline-ms") < 0.0 ||
      cli.get_double("hysteresis-ms") < 0.0) {
    return bench::usage_error(
        cli, "--rate, --deadline-ms and --hysteresis-ms must be >= 0");
  }
  bench::setup(cli);

  const std::int64_t requests = cli.get_int("requests");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto zoo = make_zoo();
  core::StickFleetConfig fcfg;
  fcfg.devices = static_cast<int>(cli.get_int("devices"));

  serve::ZooConfig zcfg;
  zcfg.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  zcfg.max_batch = static_cast<int>(cli.get_int("batch"));
  if (cli.get_double("deadline-ms") > 0.0) {
    zcfg.queue_deadline_s = cli.get_double("deadline-ms") * 1e-3;
  }
  zcfg.residency.min_residency_s = cli.get_double("hysteresis-ms") * 1e-3;

  // Calibrate the hot model's single-stick throughput (a throwaway
  // fleet: every phase below re-creates its own so each starts from the
  // same deterministic host state) and derive a saturating default rate.
  double rate = cli.get_double("rate");
  double hot_tput = 0.0;
  std::vector<double> swap_costs;
  {
    util::tracer().set_lane_prefix("calib ");
    core::StickFleet fleet(zoo, fcfg);
    hot_tput = fleet.stick(0).run_timed(8, 1).throughput();
    for (int m = 0; m < fleet.models(); ++m) {
      swap_costs.push_back(fleet.swap_in_cost_s(m));
    }
  }
  if (rate <= 0.0) rate = 1.5 * fcfg.devices * hot_tput;

  struct Phase {
    std::string name;
    serve::Placement placement;
    serve::ZooReport report;
  };
  std::vector<Phase> phases{
      {"static", serve::Placement::kStatic, {}},
      {"lru", serve::Placement::kLru, {}},
      {"cost-aware", serve::Placement::kCostAware, {}},
      {"replay", serve::Placement::kCostAware, {}},
  };
  check::Fingerprint cost_fp, replay_fp;
  for (auto& phase : phases) {
    util::tracer().set_lane_prefix(phase.name + " ");
    core::StickFleet fleet(zoo, fcfg);
    serve::ZooConfig cfg = zcfg;
    cfg.residency.placement = phase.placement;
    serve::ZooServer server(fleet, cfg);
    const auto trace = make_trace(requests, rate, seed);
    phase.report = server.run(trace);
    if (phase.name == "cost-aware") cost_fp = check::fingerprint(phase.report);
    if (phase.name == "replay") replay_fp = check::fingerprint(phase.report);
  }
  util::tracer().set_lane_prefix("");
  const bool replay_identical = cost_fp == replay_fp;

  const auto& rs = phases[0].report;
  const auto& rc = phases[2].report;
  const double cost_vs_static =
      rs.goodput() > 0.0 ? rc.goodput() / rs.goodput() : 0.0;
  const double lru_vs_static =
      rs.goodput() > 0.0 ? phases[1].report.goodput() / rs.goodput() : 0.0;

  util::Table table("zoo: " + std::to_string(requests) + " req, " +
                    std::to_string(fcfg.devices) + " sticks x " +
                    std::to_string(static_cast<int>(zoo.size())) +
                    " models at " + util::Table::num(rate, 1) +
                    " req/s (seed " + std::to_string(seed) + ")");
  table.set_header({"placement", "completed", "rejected", "dropped",
                    "hit rate", "swaps", "stall (s)", "goodput (req/s)",
                    "p99 (ms)"});
  for (const auto& phase : phases) {
    const auto& r = phase.report;
    table.add_row({phase.name, std::to_string(r.completed),
                   std::to_string(r.rejected), std::to_string(r.dropped),
                   util::Table::num(r.hit_rate(), 3),
                   std::to_string(r.swaps),
                   util::Table::num(r.swap_stall_s, 2),
                   util::Table::num(r.goodput(), 1),
                   util::Table::num(r.p99_ms, 1)});
  }
  bench::emit(table, cli);

  std::cout << "\ncost-aware residency sustains "
            << util::Table::num(rc.goodput(), 1) << " req/s goodput — "
            << util::Table::num(cost_vs_static, 2)
            << "x the static pinning (lru: "
            << util::Table::num(lru_vs_static, 2) << "x) with "
            << rc.swaps << " swaps vs " << rs.swaps << "; replay "
            << (replay_identical ? "is" : "IS NOT") << " bit-identical.\n";
  const auto& sv = check::serve_verifier();
  if (sv.enabled()) {
    // Each scheduling pass compared every model's cached queue head and
    // residency copy count with a fresh scan; zero means it never ran.
    std::cout << "event-cache check: " << sv.event_cache_checks()
              << " cached model entries compared, "
              << sv.count(check::ServeViolationKind::kStaleEventCache)
              << " stale\n";
  }

  bench::BenchReport report("zoo_loadgen");
  report.config("requests", requests);
  report.config("devices", static_cast<std::int64_t>(fcfg.devices));
  report.config("models", static_cast<std::int64_t>(zoo.size()));
  report.config("rate_req_per_s", rate);
  report.config("seed", static_cast<std::int64_t>(seed));
  report.config("queue_capacity",
                static_cast<std::int64_t>(zcfg.queue_capacity));
  report.config("max_batch", static_cast<std::int64_t>(zcfg.max_batch));
  report.config("deadline_ms", cli.get_double("deadline-ms"));
  report.config("hysteresis_ms", cli.get_double("hysteresis-ms"));
  report.value("hot_model_tput", hot_tput);
  for (std::size_t m = 0; m < swap_costs.size(); ++m) {
    report.value("swap_cost_s." + kZooNames[m], swap_costs[m]);
  }
  for (const auto& phase : phases) {
    const auto& r = phase.report;
    const std::string p = phase.name;
    report.value(p + ".offered", static_cast<double>(r.offered));
    report.value(p + ".accepted", static_cast<double>(r.accepted));
    report.value(p + ".completed", static_cast<double>(r.completed));
    report.value(p + ".rejected", static_cast<double>(r.rejected));
    report.value(p + ".dropped", static_cast<double>(r.dropped));
    report.value(p + ".hit_rate", r.hit_rate());
    report.value(p + ".swaps", static_cast<double>(r.swaps));
    report.value(p + ".swap_stall_s", r.swap_stall_s);
    report.value(p + ".installs", static_cast<double>(r.installs));
    report.value(p + ".evicts", static_cast<double>(r.evicts));
    report.value(p + ".resident", static_cast<double>(r.resident));
    report.value(p + ".goodput", r.goodput());
    report.value(p + ".p50_ms", r.p50_ms);
    report.value(p + ".p95_ms", r.p95_ms);
    report.value(p + ".p99_ms", r.p99_ms);
    for (std::size_t c = 0; c < serve::kSloClassCount; ++c) {
      const auto& cs = r.classes[c];
      const std::string key =
          p + ".class." + serve::slo_class_name(
                              static_cast<serve::SloClass>(c));
      report.value(key + ".offered", static_cast<double>(cs.offered));
      report.value(key + ".completed", static_cast<double>(cs.completed));
      report.value(key + ".rejected", static_cast<double>(cs.rejected));
      report.value(key + ".dropped", static_cast<double>(cs.dropped));
      report.value(key + ".p99_ms", cs.p99_ms);
    }
    for (const auto& ms : r.models) {
      report.value(p + ".model." + ms.name + ".offered",
                   static_cast<double>(ms.offered));
      report.value(p + ".model." + ms.name + ".completed",
                   static_cast<double>(ms.completed));
      report.value(p + ".model." + ms.name + ".swaps_in",
                   static_cast<double>(ms.swaps_in));
    }
  }
  report.value("cost_vs_static", cost_vs_static);
  report.value("lru_vs_static", lru_vs_static);
  report.value("replay_identical", replay_identical ? 1.0 : 0.0);
  bench::write_report(report, cli);
  bench::finalize(cli);
  return replay_identical ? 0 : 1;
}
