// Serving extension — open-loop load generation against the serve
// frontend. The figure benches are closed-loop (the next image is issued
// the moment the previous one finishes, so the system is never
// overloaded); this harness instead offers a Poisson arrival stream at a
// configurable rate and measures what a *service* built on the paper's
// targets delivers: tail latency (p50/p95/p99), goodput, and how much
// work admission control sheds. Each solo target is driven with the same
// arrival trace as the heterogeneous CPU + GPU + multi-VPU dispatcher,
// so the table reads as "what does adding the VPU group to the node buy
// an online service". The mixed phase is then replayed from the same
// seed with fresh targets to demonstrate byte-determinism.
#include "bench_common.h"
#include "check/schedfuzz.h"
#include "core/host_target.h"
#include "core/vpu_target.h"
#include "serve/arrivals.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("serve_loadgen",
                "open-loop Poisson load against the serving frontend: "
                "solo targets vs the heterogeneous dispatcher");
  cli.add_int("requests", 4000, "requests per phase");
  cli.add_int("devices", 8, "NCS sticks in the VPU group");
  cli.add_double("rate", 0.0,
                 "offered load (req/s); 0 = 0.9x the node's calibrated "
                 "aggregate throughput");
  cli.add_int("seed", 42, "arrival-process seed");
  cli.add_int("queue", 32, "admission queue capacity");
  cli.add_int("batch", 8, "max dispatch batch");
  cli.add_double("timeout-ms", 50.0, "partial-batch flush timeout");
  cli.add_double("deadline-ms", 250.0,
                 "queue deadline before a request is dropped (0 = never)");
  cli.add_int("window", 2,
              "in-flight submissions per target (the async pipeline depth; "
              "1 = the PR5 blocking dispatcher)");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  if (cli.get_int("window") < 1) {
    return bench::usage_error(
        cli, "--window must be >= 1 (got " +
                 std::to_string(cli.get_int("window")) +
                 "); the dispatcher needs at least one in-flight "
                 "submission per target");
  }
  bench::setup(cli);

  const std::int64_t requests = cli.get_int("requests");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  auto bundle = core::ModelBundle::googlenet_reference();
  core::VpuTargetConfig vcfg;
  vcfg.devices = static_cast<int>(cli.get_int("devices"));

  serve::ServerConfig scfg;
  scfg.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  scfg.max_batch = static_cast<int>(cli.get_int("batch"));
  scfg.batch_timeout_s = cli.get_double("timeout-ms") * 1e-3;
  if (cli.get_double("deadline-ms") > 0.0) {
    scfg.queue_deadline_s = cli.get_double("deadline-ms") * 1e-3;
  }
  scfg.inflight_window = static_cast<int>(cli.get_int("window"));

  // Calibrate each engine's standalone batch-8 throughput, or its largest
  // batch when smaller (fresh targets; the phases below re-create their
  // own so every phase starts from the same deterministic state).
  double rate = cli.get_double("rate");
  std::vector<double> calib;
  {
    util::tracer().set_lane_prefix("calib ");
    auto cpu = core::make_cpu_target(bundle);
    auto gpu = core::make_gpu_target(bundle);
    core::VpuTarget vpu(bundle, vcfg);
    for (core::Target* t :
         std::vector<core::Target*>{cpu.get(), gpu.get(), &vpu}) {
      calib.push_back(
          t->run_timed(800, bench::calibration_batch(*t)).throughput());
    }
  }
  const double node_sum = calib[0] + calib[1] + calib[2];
  if (rate <= 0.0) rate = 0.9 * node_sum;
  const double best_single_tput =
      *std::max_element(calib.begin(), calib.end());

  struct Phase {
    std::string name;
    serve::ServeReport report;
  };
  std::vector<Phase> phases;
  check::Fingerprint mixed_fp, replay_fp;
  double mixed_goodput = 0.0, best_solo_goodput = 0.0;
  double mixed_p99 = 0.0, mixed_fast_p99 = 0.0;

  // "cpu" / "gpu" / "vpu" solo, then "mixed", a "replay" of mixed, and
  // "mixed-fast" — the same targets and trace with the host targets
  // opted into the fast tier (docs/performance.md), so the table shows
  // what the fused/quantized kernels buy an online service end to end.
  const std::vector<std::string> phase_names{
      "solo-cpu", "solo-gpu", "solo-vpu", "mixed", "replay", "mixed-fast"};
  for (const auto& name : phase_names) {
    util::tracer().set_lane_prefix(name + " ");
    auto cpu = core::make_cpu_target(bundle);
    auto gpu = core::make_gpu_target(bundle);
    core::VpuTarget vpu(bundle, vcfg);
    std::vector<core::Target*> targets;
    if (name == "solo-cpu") targets = {cpu.get()};
    if (name == "solo-gpu") targets = {gpu.get()};
    if (name == "solo-vpu") targets = {&vpu};
    if (name == "mixed" || name == "replay" || name == "mixed-fast") {
      targets = {cpu.get(), gpu.get(), &vpu};
    }
    if (name == "mixed-fast") {
      cpu->set_fast(true);
      gpu->set_fast(true);
    }
    serve::Server server(targets, scfg);
    const auto trace = serve::poisson_trace(requests, rate, seed);
    Phase phase{name, server.run(trace)};
    if (name == "mixed") {
      mixed_fp = check::fingerprint(phase.report);
      mixed_goodput = phase.report.goodput();
      mixed_p99 = phase.report.p99_ms;
    } else if (name == "replay") {
      replay_fp = check::fingerprint(phase.report);
    } else if (name == "mixed-fast") {
      mixed_fast_p99 = phase.report.p99_ms;
    } else {
      best_solo_goodput = std::max(best_solo_goodput, phase.report.goodput());
    }
    phases.push_back(std::move(phase));
  }
  util::tracer().set_lane_prefix("");
  const bool replay_identical = mixed_fp == replay_fp;

  util::Table table("serve: " + std::to_string(requests) +
                    " req at " + util::Table::num(rate, 1) + " req/s (seed " +
                    std::to_string(seed) + ")");
  table.set_header({"phase", "completed", "rejected", "dropped",
                    "goodput (req/s)", "p50 (ms)", "p95 (ms)", "p99 (ms)"});
  for (const auto& [name, r] : phases) {
    table.add_row({name, std::to_string(r.completed),
                   std::to_string(r.rejected), std::to_string(r.dropped),
                   util::Table::num(r.goodput(), 1),
                   util::Table::num(r.p50_ms, 1),
                   util::Table::num(r.p95_ms, 1),
                   util::Table::num(r.p99_ms, 1)});
  }
  bench::emit(table, cli);

  const double vs_best = mixed_goodput / best_solo_goodput;
  const double fast_p99_cut_ms = mixed_p99 - mixed_fast_p99;
  std::cout << "\nheterogeneous dispatch sustains "
            << util::Table::num(mixed_goodput, 1) << " req/s goodput — "
            << util::Table::num(vs_best, 2)
            << "x the best solo target under the same offered load; replay "
            << (replay_identical ? "is" : "IS NOT")
            << " bit-identical; the fast host tier cuts p99 by "
            << util::Table::num(fast_p99_cut_ms, 1) << " ms ("
            << util::Table::num(mixed_p99, 1) << " -> "
            << util::Table::num(mixed_fast_p99, 1) << ").\n";

  bench::BenchReport report("serve_loadgen");
  report.config("requests", requests);
  report.config("devices", static_cast<std::int64_t>(vcfg.devices));
  report.config("rate_req_per_s", rate);
  report.config("seed", static_cast<std::int64_t>(seed));
  report.config("queue_capacity", static_cast<std::int64_t>(scfg.queue_capacity));
  report.config("max_batch", static_cast<std::int64_t>(scfg.max_batch));
  report.config("batch_timeout_ms", scfg.batch_timeout_s * 1e3);
  report.config("inflight_window",
                static_cast<std::int64_t>(scfg.inflight_window));
  report.config("queue_deadline_ms",
                std::isfinite(scfg.queue_deadline_s)
                    ? scfg.queue_deadline_s * 1e3
                    : 0.0);
  report.value("node_aggregate_tput", node_sum);
  report.value("best_single_tput", best_single_tput);
  for (const auto& [name, r] : phases) {
    report.value(name + ".offered", static_cast<double>(r.offered));
    report.value(name + ".completed", static_cast<double>(r.completed));
    report.value(name + ".rejected", static_cast<double>(r.rejected));
    report.value(name + ".dropped", static_cast<double>(r.dropped));
    report.value(name + ".drops.deadline",
                 static_cast<double>(r.dropped_deadline));
    report.value(name + ".drops.inflight",
                 static_cast<double>(r.dropped_inflight));
    report.value(name + ".drops.failover",
                 static_cast<double>(r.dropped_failover));
    report.value(name + ".goodput", r.goodput());
    report.value(name + ".p50_ms", r.p50_ms);
    report.value(name + ".p95_ms", r.p95_ms);
    report.value(name + ".p99_ms", r.p99_ms);
    report.value(name + ".max_queue_depth",
                 static_cast<double>(r.max_queue_depth));
    // Pipeline depth actually reached per target: how much of the
    // in-flight window the dispatcher used (1 everywhere reproduces the
    // PR5 blocking dispatcher).
    for (std::size_t i = 0; i < r.targets.size(); ++i) {
      const auto& t = r.targets[i];
      report.value(name + ".inflight.target" + std::to_string(i) + ".window",
                   static_cast<double>(t.window));
      report.value(name + ".inflight.target" + std::to_string(i) + ".max",
                   static_cast<double>(t.max_inflight));
    }
  }
  report.value("mixed_vs_best_solo", vs_best);
  report.value("replay_identical", replay_identical ? 1.0 : 0.0);
  report.value("fast_p99_cut_ms", fast_p99_cut_ms);
  bench::write_report(report, cli);
  bench::finalize(cli);
  return replay_identical ? 0 : 1;
}
