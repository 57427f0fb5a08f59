// Shared helpers for the figure-reproduction harnesses: uniform table
// printing, optional CSV emission, machine-readable bench reports
// (BENCH_<name>.json, schema "ncsw-bench-v1") and simulated-clock trace
// capture (--trace out.json, viewable in Perfetto). Schemas are
// documented in docs/architecture.md.
#pragma once

#include <algorithm>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/protocol.h"
#include "core/target.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/table.h"
#include "util/trace.h"

namespace ncsw::bench {

/// Print the table to stdout; write CSV too when --csv was given.
inline void emit(const util::Table& table, const util::Cli& cli) {
  std::cout << table.to_string() << std::flush;
  const std::string csv = cli.get_string("csv");
  if (!csv.empty()) {
    util::write_file(csv, table.to_csv());
    std::cout << "(csv written to " << csv << ")\n";
  }
}

/// Register the flags every harness shares.
inline void add_common_flags(util::Cli& cli) {
  cli.add_string("csv", "", "also write the table as CSV to this path");
  cli.add_string("json", "",
                 "machine-readable report path (default BENCH_<name>.json; "
                 "'none' disables)");
  cli.add_string("trace", "",
                 "write a simulated-clock Chrome trace (Perfetto) here");
  cli.add_bool("trace-layers", false,
               "include one span per network layer in the trace");
  cli.add_string("check", "",
                 "NCAPI protocol verifier: off | log | strict (default: "
                 "$NCSW_CHECK, else off)");
}

/// The batch a bench measures a target's standalone throughput at: the
/// paper's batch 8, or the target's largest batch when smaller (a VPU
/// target with fewer than 8 sticks).
inline int calibration_batch(const core::Target& t) {
  return std::min(8, t.max_batch());
}

/// Print "<program>: <what>" to stderr and return the usage-error exit
/// code (2), for `return bench::usage_error(cli, "...")`.
inline int usage_error(const util::Cli& cli, const std::string& what) {
  std::cerr << cli.program() << ": " << what << "\n";
  return 2;
}

/// Parse argv. Returns the code main() should exit with right away — 0
/// after --help, 2 on an unknown flag or malformed value — or nothing
/// when the harness should run:
///   if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
inline std::optional<int> parse(util::Cli& cli, int argc, char** argv) {
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    return usage_error(cli, e.what());
  }
  return std::nullopt;
}

/// Arm the tracer according to --trace/--trace-layers. Call after
/// cli.parse() and before any simulated work.
inline void setup(const util::Cli& cli) {
  auto& t = util::tracer();
  t.reset();
  if (!cli.get_string("trace").empty()) {
    t.set_detail(cli.get_bool("trace-layers") ? util::TraceDetail::kLayers
                                              : util::TraceDetail::kSpans);
    t.set_enabled(true);
  }
  // --check overrides the process default that HostConfig::check ==
  // kDefault resolves through (the environment keeps deciding when the
  // flag is absent).
  const std::string check = cli.get_string("check");
  if (!check.empty()) {
    check::set_default_mode(check::parse_check_mode(check));
  }
}

/// Write the trace file if one was requested. Call once all simulated
/// work is done.
inline void finalize(const util::Cli& cli) {
  const std::string path = cli.get_string("trace");
  if (path.empty()) return;
  auto& t = util::tracer();
  t.write(path);
  std::cout << "(trace with " << t.size() << " events written to " << path
            << "; open in Perfetto / chrome://tracing)\n";
  t.set_enabled(false);
}

/// Machine-readable result of one harness run (schema "ncsw-bench-v1"):
/// the bench name, the configuration it ran with, paper-anchor
/// comparisons and free-form measured values. Timing is simulated unless
/// the harness marks the report set_clock("wall") (bench/perf_forward).
class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  /// Clock the report's timings were taken on: "simulated" (default) or
  /// "wall" for host-side performance harnesses. The rule, which CI
  /// enforces by sweeping the bench sources: every figure/ablation
  /// harness runs on the simulated clock and must NOT call this; a
  /// harness that times real host execution (bench/perf_forward is the
  /// only one) must call set_clock("wall") so report consumers never
  /// compare wall seconds against simulated seconds.
  void set_clock(std::string clock) { clock_ = std::move(clock); }

  /// Record a configuration knob (shows up under "config").
  void config(const std::string& key, std::int64_t v) {
    config_.emplace_back(key, util::JsonWriter::number(static_cast<double>(v)));
  }
  void config(const std::string& key, double v) {
    config_.emplace_back(key, util::JsonWriter::number(v));
  }
  void config(const std::string& key, const std::string& v) {
    config_.emplace_back(key, "\"" + util::JsonWriter::escape(v) + "\"");
  }

  /// Compare a measured value against its paper anchor; ratio is
  /// measured/paper (null when the paper value is zero).
  void anchor(const std::string& metric, const std::string& unit, double paper,
              double measured) {
    anchors_.push_back({metric, unit, paper, measured});
  }

  /// Record an extra measured value (shows up under "values").
  void value(const std::string& key, double v) {
    values_.emplace_back(key, util::JsonWriter::number(v));
  }
  void value(const std::string& key, const std::string& v) {
    values_.emplace_back(key, "\"" + util::JsonWriter::escape(v) + "\"");
  }

  /// Serialise the report as JSON.
  std::string to_json() const {
    util::JsonWriter w;
    w.begin_object();
    w.key("schema").value("ncsw-bench-v1");
    w.key("bench").value(bench_);
    w.key("clock").value(clock_);
    w.key("config").begin_object();
    for (const auto& [k, v] : config_) w.key(k).raw(v);
    w.end_object();
    w.key("anchors").begin_array();
    for (const auto& a : anchors_) {
      w.begin_object();
      w.key("metric").value(a.metric);
      w.key("unit").value(a.unit);
      w.key("paper").value(a.paper);
      w.key("measured").value(a.measured);
      if (a.paper != 0.0) {
        w.key("ratio").value(a.measured / a.paper);
      } else {
        w.key("ratio").null();
      }
      w.end_object();
    }
    w.end_array();
    w.key("values").begin_object();
    for (const auto& [k, v] : values_) w.key(k).raw(v);
    w.end_object();
    w.end_object();
    return w.str();
  }

 private:
  struct Anchor {
    std::string metric;
    std::string unit;
    double paper;
    double measured;
  };

  std::string bench_;
  std::string clock_ = "simulated";
  std::vector<std::pair<std::string, std::string>> config_;  // key, raw JSON
  std::vector<Anchor> anchors_;
  std::vector<std::pair<std::string, std::string>> values_;  // key, raw JSON
};

/// Write the report unless --json=none; default path BENCH_<name>.json.
inline void write_report(const BenchReport& report, const util::Cli& cli) {
  std::string path = cli.get_string("json");
  if (path == "none") return;
  if (path.empty()) path = "BENCH_" + cli.program() + ".json";
  util::write_file(path, report.to_json() + "\n");
  std::cout << "(report written to " << path << ")\n";
}

}  // namespace ncsw::bench
