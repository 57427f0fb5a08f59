// The benchmark's three workloads. Each runs in its own process (main.cpp),
// drives only the library's public entry points, and returns every
// metric it measured plus the outcome of its correctness checks.
// perfbench/README.md describes what each workload is for.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< wall budget of the timed rounds
  bool trace = false;     ///< record spans; report per-layer metrics
  /// Set-up repetitions, half before the rounds and half after them;
  /// setup_s is their median.
  int setup_reps = 12;
  /// Negative control: name of a correctness check to sabotage, so a
  /// test can show that the check trips ("" = none).
  std::string sabotage;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Result {
  /// End-to-end and per-layer metrics by name (main.cpp picks the set
  /// the run reports).
  std::map<std::string, Metric> metrics;
  std::vector<Check> checks;
  /// Operations offered (requests, image classifications) and those that
  /// errored (lost requests, exceptions, failed checks).
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Digests of everything that must repeat bit-for-bit for a seed
  /// (simulated results, predicted labels), compared across runs.
  std::map<std::string, std::string> digests;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(const std::string& name, bool ok, const std::string& detail);
};

/// `v` with all 17 significant digits (round-trips bit-for-bit).
std::string full_digits(double v);

/// Pin the process to the highest CPU it may use (the measured runs are
/// single-threaded); returns false when pinning failed.
bool pin_to_last_cpu();

Result run_cluster_ladder(const Options& opt);
Result run_zoo_ladder(const Options& opt);
Result run_fig7_classify(const Options& opt);

}  // namespace perfbench
