// Cluster extension — goodput/p99 vs node count under node-level chaos.
//
// serve_loadgen measures what one heterogeneous node delivers; this
// harness scales the same open-loop Poisson trace across a cluster of
// serve nodes behind the consistent-hash router (src/cluster) and then
// kills a node mid-run. The sweep reads as three claims:
//
//   n1 -> n3      adding replicated nodes buys near-linear goodput
//   n3 -> n3-kill a scripted mid-run node crash costs throughput but
//                 loses ZERO accepted requests: everything queued or in
//                 flight on the dead node is replayed to a live replica
//   replay        the kill phase re-run from the same seed with fresh
//                 targets is byte-identical — chaos is deterministic
//
// Node 0 owns {cpu, gpu, vpu-group}; nodes 1..2 own {cpu, gpu} (the
// simulated host allows one VPU fleet at a time). Every phase offers
// the same arrival trace, so the table is an apples-to-apples sweep.
#include "bench_common.h"
#include "check/schedfuzz.h"
#include "check/serve_check.h"
#include "cluster/cluster.h"
#include "core/host_target.h"
#include "core/vpu_target.h"
#include "serve/arrivals.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("cluster_loadgen",
                "open-loop Poisson load across a replicated multi-node "
                "cluster with a scripted mid-run node kill");
  cli.add_int("requests", 3000, "requests per phase");
  cli.add_int("devices", 8, "NCS sticks in node 0's VPU group");
  cli.add_double("rate", 0.0,
                 "offered load (req/s); 0 = 0.9x the 3-node cluster's "
                 "calibrated aggregate throughput");
  cli.add_int("seed", 42, "arrival-process seed");
  cli.add_int("queue", 32, "per-node admission queue capacity");
  cli.add_int("batch", 8, "max dispatch batch");
  cli.add_double("timeout-ms", 50.0, "partial-batch flush timeout");
  cli.add_double("deadline-ms", 0.0,
                 "per-node queue deadline before a request is dropped "
                 "(0 = never; a kill then sheds nothing)");
  cli.add_int("window", 2, "in-flight submissions per target");
  cli.add_int("replication", 2, "replicas per model");
  cli.add_int("models", 8, "model catalogue size");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  if (cli.get_int("window") < 1) {
    return bench::usage_error(
        cli, "--window must be >= 1 (got " +
                 std::to_string(cli.get_int("window")) +
                 "); the dispatcher needs at least one in-flight "
                 "submission per target");
  }
  if (cli.get_int("replication") < 1) {
    return bench::usage_error(cli, "--replication must be >= 1 (got " +
                                       std::to_string(
                                           cli.get_int("replication")) +
                                       ")");
  }
  bench::setup(cli);

  const std::int64_t requests = cli.get_int("requests");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  auto bundle = core::ModelBundle::googlenet_reference();
  core::VpuTargetConfig vcfg;
  vcfg.devices = static_cast<int>(cli.get_int("devices"));

  cluster::ClusterConfig ccfg;
  ccfg.node.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  ccfg.node.max_batch = static_cast<int>(cli.get_int("batch"));
  ccfg.node.batch_timeout_s = cli.get_double("timeout-ms") * 1e-3;
  if (cli.get_double("deadline-ms") > 0.0) {
    ccfg.node.queue_deadline_s = cli.get_double("deadline-ms") * 1e-3;
  }
  ccfg.node.inflight_window = static_cast<int>(cli.get_int("window"));
  ccfg.replication = static_cast<int>(cli.get_int("replication"));
  ccfg.models = static_cast<int>(cli.get_int("models"));

  // Calibrate each engine's standalone batch-8 throughput, or its largest
  // batch when smaller (fresh targets; every phase below re-creates its
  // own so each starts from the same deterministic state).
  double rate = cli.get_double("rate");
  double cpu_tput = 0.0, gpu_tput = 0.0, vpu_tput = 0.0;
  {
    util::tracer().set_lane_prefix("calib ");
    auto cpu = core::make_cpu_target(bundle);
    auto gpu = core::make_gpu_target(bundle);
    core::VpuTarget vpu(bundle, vcfg);
    auto calibrate = [](core::Target& t) {
      return t.run_timed(800, bench::calibration_batch(t)).throughput();
    };
    cpu_tput = calibrate(*cpu);
    gpu_tput = calibrate(*gpu);
    vpu_tput = calibrate(vpu);
  }
  // Aggregate capacity of the 3-node cluster: one full node plus two
  // cpu+gpu nodes.
  const double cluster_sum = 3.0 * (cpu_tput + gpu_tput) + vpu_tput;
  if (rate <= 0.0) rate = 0.9 * cluster_sum;

  const auto trace = serve::poisson_trace(requests, rate, seed);
  const double span_s = trace.empty() ? 0.0 : trace.back().arrival_s;
  // The scripted chaos: node 1 drops off the cluster for the middle
  // quarter of the arrival window and rejoins through health probes.
  const double kill_start_s = 0.35 * span_s;
  const double kill_duration_s = 0.25 * span_s;

  struct Phase {
    std::string name;
    cluster::ClusterReport report;
  };
  std::vector<Phase> phases;
  check::Fingerprint kill_fp, replay_fp;

  const std::vector<std::string> phase_names{"n1", "n2", "n3", "n3-kill",
                                             "replay"};
  for (const auto& name : phase_names) {
    util::tracer().set_lane_prefix(name + " ");
    int n_nodes = 3;
    if (name == "n1") n_nodes = 1;
    if (name == "n2") n_nodes = 2;

    // Fresh targets per phase: node 0 is the full heterogeneous node,
    // the rest are cpu+gpu hosts.
    auto cpu0 = core::make_cpu_target(bundle);
    auto gpu0 = core::make_gpu_target(bundle);
    core::VpuTarget vpu0(bundle, vcfg);
    auto cpu1 = core::make_cpu_target(bundle);
    auto gpu1 = core::make_gpu_target(bundle);
    auto cpu2 = core::make_cpu_target(bundle);
    auto gpu2 = core::make_gpu_target(bundle);
    std::vector<std::vector<core::Target*>> node_targets;
    node_targets.push_back({cpu0.get(), gpu0.get(), &vpu0});
    if (n_nodes > 1) node_targets.push_back({cpu1.get(), gpu1.get()});
    if (n_nodes > 2) node_targets.push_back({cpu2.get(), gpu2.get()});

    cluster::ClusterConfig cfg = ccfg;
    cfg.faults = sim::FaultPlan();
    if (name == "n3-kill" || name == "replay") {
      cfg.faults.add(/*device=*/1, sim::FaultKind::kNodeCrash, kill_start_s,
                     kill_duration_s);
    }
    cluster::Cluster cl(std::move(node_targets), cfg);
    Phase phase{name, cl.run(trace)};
    if (name == "n3-kill") kill_fp = check::fingerprint(phase.report);
    if (name == "replay") replay_fp = check::fingerprint(phase.report);
    phases.push_back(std::move(phase));
  }
  util::tracer().set_lane_prefix("");
  const bool replay_identical = kill_fp == replay_fp;

  const auto& n1 = phases[0].report;
  const auto& n3 = phases[2].report;
  const auto& kill = phases[3].report;
  const double n3_vs_n1 =
      n1.goodput() > 0.0 ? n3.goodput() / n1.goodput() : 0.0;
  const double chaos_retained =
      n3.goodput() > 0.0 ? kill.goodput() / n3.goodput() : 0.0;

  util::Table table("cluster: " + std::to_string(requests) + " req at " +
                    util::Table::num(rate, 1) + " req/s (seed " +
                    std::to_string(seed) + ", kill node 1 at " +
                    util::Table::num(kill_start_s, 2) + "s)");
  table.set_header({"phase", "completed", "rejected", "lost", "replayed",
                    "goodput (req/s)", "p50 (ms)", "p99 (ms)"});
  for (const auto& [name, r] : phases) {
    table.add_row({name, std::to_string(r.completed),
                   std::to_string(r.rejected),
                   std::to_string(r.requests_lost),
                   std::to_string(r.requests_replayed),
                   util::Table::num(r.goodput(), 1),
                   util::Table::num(r.p50_ms, 1),
                   util::Table::num(r.p99_ms, 1)});
  }
  bench::emit(table, cli);

  std::cout << "\n3 nodes sustain " << util::Table::num(n3.goodput(), 1)
            << " req/s goodput (" << util::Table::num(n3_vs_n1, 2)
            << "x one node); killing a node mid-run keeps "
            << util::Table::num(100.0 * chaos_retained, 1)
            << "% of it, replays " << kill.requests_replayed
            << " stranded requests and loses " << kill.requests_lost
            << "; replay " << (replay_identical ? "is" : "IS NOT")
            << " bit-identical.\n";
  const auto& sv = check::serve_verifier();
  if (sv.enabled()) {
    // The loop's event cache was compared with a fresh read of every
    // clean node at each pick; zero means the check never ran.
    std::cout << "event-cache check: " << sv.event_cache_checks()
              << " cached node entries compared, "
              << sv.count(check::ServeViolationKind::kStaleEventCache)
              << " stale\n";
  }

  bench::BenchReport report("cluster_loadgen");
  report.config("requests", requests);
  report.config("devices", static_cast<std::int64_t>(vcfg.devices));
  report.config("rate_req_per_s", rate);
  report.config("seed", static_cast<std::int64_t>(seed));
  report.config("queue_capacity",
                static_cast<std::int64_t>(ccfg.node.queue_capacity));
  report.config("max_batch", static_cast<std::int64_t>(ccfg.node.max_batch));
  report.config("inflight_window",
                static_cast<std::int64_t>(ccfg.node.inflight_window));
  report.config("queue_deadline_ms",
                std::isfinite(ccfg.node.queue_deadline_s)
                    ? ccfg.node.queue_deadline_s * 1e3
                    : 0.0);
  report.config("replication", static_cast<std::int64_t>(ccfg.replication));
  report.config("models", static_cast<std::int64_t>(ccfg.models));
  report.config("kill_start_s", kill_start_s);
  report.config("kill_duration_s", kill_duration_s);
  report.value("cluster_aggregate_tput", cluster_sum);
  for (const auto& [name, r] : phases) {
    report.value(name + ".offered", static_cast<double>(r.offered));
    report.value(name + ".completed", static_cast<double>(r.completed));
    report.value(name + ".rejected", static_cast<double>(r.rejected));
    // Cluster-level terminal deadline drops (a copy may deadline out on
    // one node while a hedge completes elsewhere; this counts requests,
    // the per-node drops.* below count copies).
    report.value(name + ".dropped_deadline",
                 static_cast<double>(r.dropped_deadline));
    report.value(name + ".requests_lost",
                 static_cast<double>(r.requests_lost));
    report.value(name + ".requests_replayed",
                 static_cast<double>(r.requests_replayed));
    report.value(name + ".requests_hedged",
                 static_cast<double>(r.requests_hedged));
    report.value(name + ".requests_spilled",
                 static_cast<double>(r.requests_spilled));
    report.value(name + ".duplicate_completions",
                 static_cast<double>(r.duplicate_completions));
    report.value(name + ".node_kills", static_cast<double>(r.node_kills));
    report.value(name + ".node_rejoins",
                 static_cast<double>(r.node_rejoins));
    report.value(name + ".goodput", r.goodput());
    report.value(name + ".p50_ms", r.p50_ms);
    report.value(name + ".p95_ms", r.p95_ms);
    report.value(name + ".p99_ms", r.p99_ms);
    // serve.drops broken out by reason, summed over the nodes.
    std::int64_t d_deadline = 0, d_inflight = 0, d_failover = 0;
    for (const auto& node : r.nodes) {
      d_deadline += node.serve.dropped_deadline;
      d_inflight += node.serve.dropped_inflight;
      d_failover += node.serve.dropped_failover;
    }
    report.value(name + ".drops.deadline", static_cast<double>(d_deadline));
    report.value(name + ".drops.inflight", static_cast<double>(d_inflight));
    report.value(name + ".drops.failover", static_cast<double>(d_failover));
    if (r.failover_ms.count() > 0) {
      report.value(name + ".failover_ms.mean", r.failover_ms.mean());
      report.value(name + ".failover_ms.max", r.failover_ms.max());
      report.value(name + ".failover_count",
                   static_cast<double>(r.failover_ms.count()));
    }
  }
  report.value("n3_vs_n1", n3_vs_n1);
  report.value("chaos_goodput_retained", chaos_retained);
  report.value("replay_identical", replay_identical ? 1.0 : 0.0);
  bench::write_report(report, cli);
  bench::finalize(cli);

  const bool ok = replay_identical && kill.requests_lost == 0 &&
                  kill.requests_replayed > 0;
  return ok ? 0 : 1;
}
