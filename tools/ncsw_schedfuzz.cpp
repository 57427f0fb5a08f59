// ncsw_schedfuzz — schedule-perturbation determinism checker.
//
// The serving stack promises byte-identical replay because its event
// loops break same-timestamp ties in a fixed order. This tool probes
// the stronger property underneath: that the *results* do not depend
// on that order. It re-runs loadgen-shaped serve, cluster and zoo
// scenarios under seeded random permutations of every same-timestamp event group
// (check/schedfuzz.h) and fails if any permutation changes the final
// report fingerprint, minimising a divergence to the single tie
// decision that flips it.
//
//   ./build/tools/ncsw_schedfuzz --seeds 32
//   ./build/tools/ncsw_schedfuzz --scenario zoo --quantize-ms 10
//
// Poisson arrivals and calibrated service times rarely collide on the
// simulated clock, so loadgen-shaped ties are sparse; the --quantize-ms
// flag snaps arrivals (and the timeout/deadline knobs) onto a shared
// grid to force tie groups and genuinely exercise the permuter. Exit
// codes: 0 invariant (no divergence), 1 divergence found.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "check/schedfuzz.h"
#include "cluster/cluster.h"
#include "core/host_target.h"
#include "core/model.h"
#include "core/stick_fleet.h"
#include "serve/arrivals.h"
#include "serve/server.h"
#include "serve/zoo_serve.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace ncsw;

std::vector<serve::Request> make_trace(std::int64_t n, double rate,
                                       std::uint64_t seed,
                                       double quantize_s) {
  serve::PoissonArrivals arrivals(rate, seed);
  std::vector<serve::Request> trace;
  trace.reserve(static_cast<std::size_t>(n));
  double last = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    serve::Request req;
    req.id = i;
    req.arrival_s = arrivals.next();
    if (quantize_s > 0.0) {
      // Snap onto the grid, keeping arrivals non-decreasing.
      req.arrival_s =
          static_cast<double>(static_cast<std::int64_t>(
              req.arrival_s / quantize_s + 0.5)) * quantize_s;
      req.arrival_s = std::max(req.arrival_s, last);
    }
    last = req.arrival_s;
    trace.push_back(std::move(req));
  }
  return trace;
}

struct ScenarioKnobs {
  std::int64_t requests = 300;
  std::uint64_t seed = 42;
  double rate = 0.0;       // 0 = scenario default
  double quantize_s = 0.0;
};

/// One heterogeneous serve node (cpu + gpu) under open-loop load —
/// the serve_loadgen "mixed" phase at small scale.
check::Scenario serve_scenario(const ScenarioKnobs& k) {
  return [k] {
    auto bundle = core::ModelBundle::googlenet_reference();
    auto cpu = core::make_cpu_target(bundle);
    auto gpu = core::make_gpu_target(bundle);
    serve::ServerConfig cfg;
    cfg.queue_capacity = 16;
    cfg.max_batch = 8;
    cfg.batch_timeout_s = 0.050;
    cfg.queue_deadline_s = 0.250;
    cfg.inflight_window = 2;
    cfg.trace_requests = false;
    const double rate = k.rate > 0.0 ? k.rate : 120.0;
    serve::Server server({cpu.get(), gpu.get()}, cfg);
    return check::fingerprint(
        server.run(make_trace(k.requests, rate, k.seed, k.quantize_s)));
  };
}

/// A 3-node cluster with a mid-run node crash — the cluster_loadgen
/// "n3-kill" phase at small scale (cpu+gpu nodes; no VPU group so the
/// permuted re-runs stay cheap).
check::Scenario cluster_scenario(const ScenarioKnobs& k) {
  return [k] {
    auto bundle = core::ModelBundle::googlenet_reference();
    auto cpu0 = core::make_cpu_target(bundle);
    auto gpu0 = core::make_gpu_target(bundle);
    auto cpu1 = core::make_cpu_target(bundle);
    auto gpu1 = core::make_gpu_target(bundle);
    auto cpu2 = core::make_cpu_target(bundle);
    auto gpu2 = core::make_gpu_target(bundle);
    std::vector<std::vector<core::Target*>> nodes;
    nodes.push_back({cpu0.get(), gpu0.get()});
    nodes.push_back({cpu1.get(), gpu1.get()});
    nodes.push_back({cpu2.get(), gpu2.get()});

    cluster::ClusterConfig cfg;
    cfg.node.queue_capacity = 16;
    cfg.node.max_batch = 8;
    cfg.node.batch_timeout_s = 0.050;
    cfg.node.inflight_window = 2;
    cfg.trace_requests = false;
    cfg.node.trace_requests = false;
    const double rate = k.rate > 0.0 ? k.rate : 220.0;
    const auto trace = make_trace(k.requests, rate, k.seed, k.quantize_s);
    const double span_s = trace.empty() ? 0.0 : trace.back().arrival_s;
    cfg.faults.add(/*device=*/1, sim::FaultKind::kNodeCrash, 0.35 * span_s,
                   0.25 * span_s);
    cluster::Cluster cl(std::move(nodes), cfg);
    return check::fingerprint(cl.run(trace));
  };
}

/// A 2-stick fleet serving the four zoo networks under cost-aware
/// residency with a queue deadline — the zoo_loadgen "cost-aware" phase
/// at small scale (zipf-skewed tenants, mixed SLO classes).
check::Scenario zoo_scenario(const ScenarioKnobs& k) {
  return [k] {
    std::vector<core::ZooModel> zoo;
    for (const char* name : {"googlenet", "alexnet", "squeezenet", "tiny"}) {
      zoo.push_back({name, core::ModelBundle::zoo_reference(name)});
    }
    core::StickFleetConfig fcfg;
    fcfg.devices = 2;
    core::StickFleet fleet(std::move(zoo), fcfg);
    serve::ZooConfig cfg;
    cfg.residency.placement = serve::Placement::kCostAware;
    cfg.queue_capacity = 32;
    cfg.queue_deadline_s = 0.500;
    const double rate = k.rate > 0.0 ? k.rate : 40.0;
    util::Xoshiro256 mix(k.seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<serve::ZooRequest> trace;
    for (const auto& r : make_trace(k.requests, rate, k.seed, k.quantize_s)) {
      const double u = mix.uniform();
      trace.push_back({r.id, r.arrival_s,
                       u < 0.45 ? 0 : u < 0.90 ? 2 : u < 0.95 ? 1 : 3,
                       static_cast<serve::SloClass>(r.id % 3)});
    }
    serve::ZooServer server(fleet, cfg);
    return check::fingerprint(server.run(trace));
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("ncsw_schedfuzz",
                "re-run serve/cluster/zoo scenarios under seeded "
                "permutations of same-timestamp event orderings and fail "
                "on any result divergence");
  cli.add_int("seeds", 32, "perturbed schedules per scenario");
  cli.add_int("requests", 300, "requests per run");
  cli.add_int("seed", 42, "arrival-process seed");
  cli.add_double("rate", 0.0, "offered load (req/s); 0 = scenario default");
  cli.add_double("quantize-ms", 0.0,
                 "snap arrivals onto this grid to force same-timestamp "
                 "ties (0 = raw Poisson times)");
  cli.add_string("scenario", "all",
                 "which workload: all | serve | cluster | zoo");
  cli.add_bool("no-minimize", false,
               "skip the single-deviation minimisation of divergences");
  try {
    if (!cli.parse(argc, argv)) return 0;

    ScenarioKnobs knobs;
    knobs.requests = cli.get_int("requests");
    knobs.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    knobs.rate = cli.get_double("rate");
    knobs.quantize_s = cli.get_double("quantize-ms") * 1e-3;

    check::SchedFuzzConfig cfg;
    cfg.seeds = static_cast<int>(cli.get_int("seeds"));
    cfg.minimize = !cli.get_bool("no-minimize");

    const std::string which = cli.get_string("scenario");
    const std::pair<const char*, check::Scenario> scenarios[] = {
        {"serve", serve_scenario(knobs)},
        {"cluster", cluster_scenario(knobs)},
        {"zoo", zoo_scenario(knobs)}};
    bool known = which == "all";
    for (const auto& s : scenarios) known = known || which == s.first;
    if (!known) {
      std::cerr << "ncsw_schedfuzz: unknown --scenario \"" << which
                << "\" (want all | serve | cluster | zoo)\n";
      return 2;
    }

    int diverged = 0;
    for (const auto& [name, scenario] : scenarios) {
      if (which != "all" && which != name) continue;
      const check::SchedFuzzReport report =
          check::fuzz_schedule(scenario, cfg);
      std::printf(
          "%-8s %d seed(s), %lld tie group(s), %lld perturbed pick(s): %s\n",
          name, report.seeds_run,
          static_cast<long long>(report.ties_seen),
          static_cast<long long>(report.perturbed),
          report.ok() ? "invariant" : "DIVERGED");
      for (const auto& d : report.divergences) {
        ++diverged;
        std::printf("%s\n", d.to_string().c_str());
      }
    }
    return diverged == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "ncsw_schedfuzz: " << e.what() << "\n";
    return 2;
  }
}
