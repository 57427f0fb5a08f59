// ncsw_perfbench: run one benchmark workload in this process and print
// its result as one JSON line prefixed "PERFBENCH_RESULT ".
//
//   ncsw_perfbench --workload cluster-ladder|zoo-ladder|fig7-classify
//                  --seed N --seconds S [--trace 0|1] [--setup-reps R]
//                  [--spans-out FILE] [--sabotage CHECK]
//
// perfbench/run.py builds and launches it (one fresh process per run),
// compares the digests across runs of a seed, and prints the final
// result line. The process pins itself to the highest CPU it may use:
// a pinned thread times steadier than a migrating one. --sabotage
// deliberately breaks one correctness check so the benchmark's tests can
// show the check trips.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "spans.h"
#include "util/json.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "ncsw_perfbench: %s\nusage: ncsw_perfbench --workload W --seed N "
               "--seconds S [--trace 0|1] [--setup-reps R] [--spans-out FILE] "
               "[--sabotage CHECK]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = value == "1";
      else if (flag == "--setup-reps") opt.setup_reps = std::stoi(value);
      else if (flag == "--spans-out") spans_out = value;
      else if (flag == "--sabotage") opt.sabotage = value;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");
  if (opt.setup_reps < 1) return usage("--setup-reps must be >= 1");
  if (!perfbench::pin_to_last_cpu()) std::fprintf(stderr, "ncsw_perfbench: running unpinned\n");

  perfbench::Result result;
  try {
    if (opt.workload == "cluster-ladder") {
      result = perfbench::run_cluster_ladder(opt);
    } else if (opt.workload == "zoo-ladder") {
      result = perfbench::run_zoo_ladder(opt);
    } else if (opt.workload == "fig7-classify") {
      result = perfbench::run_fig7_classify(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ncsw_perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace && !spans_out.empty() && !perfbench::spans().write_json(spans_out)) {
    std::fprintf(stderr, "ncsw_perfbench: cannot write %s\n", spans_out.c_str());
    return 1;
  }

  ncsw::util::JsonWriter out;
  out.begin_object()
      .key("workload").value(opt.workload)
      .key("seed").value(static_cast<std::uint64_t>(opt.seed))
      .key("attempted").value(result.attempted)
      .key("failed").value(result.failed)
      .key("checks").begin_array();
  for (const auto& c : result.checks) {
    out.begin_object().key("name").value(c.name).key("ok").value(c.ok)
        .key("detail").value(c.detail).end_object();
  }
  out.end_array().key("digests").begin_object();
  for (const auto& [k, v] : result.digests) out.key(k).value(v);
  out.end_object().key("metrics").begin_object();
  for (const auto& [k, m] : result.metrics) {
    // Every digit: the simulated values must compare bit-for-bit.
    out.key(k).begin_object().key("value").raw(perfbench::full_digits(m.value))
        .key("unit").value(m.unit).end_object();
  }
  out.end_object().end_object();
  std::cout << "PERFBENCH_RESULT " << out.str() << std::endl;
  return 0;
}
