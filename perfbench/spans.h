// Wall-clock spans recorded by the benchmark around each call it makes
// into a library layer (dataset, imgproc, nn, graphc, mvnc, core, serve,
// cluster). The library itself is not instrumented: every span starts
// and ends in the benchmark's own code, so a span's duration is the
// host cost of one public call, children included.
//
// Spans live in memory and are written out once, at exit, as JSON
// (perfbench/README.md documents the schema). Recording is off unless
// the run is traced; a disabled Scope costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the host's monotonic clock since the process started.
double now_s();

/// One closed span. `parent` indexes the enclosing span (-1 = root).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::string scope;  ///< workload/rung id, e.g. "cluster-ladder/r1"

  double seconds() const noexcept { return end_s - start_s; }
};

/// The run's span log. Single-threaded: spans open and close on the
/// thread that drives the workload.
class SpanLog {
 public:
  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Scope id stamped on spans opened from now on.
  void set_scope(std::string scope) { scope_ = std::move(scope); }

  /// Open a span; returns its index (-1 when disabled).
  int open(const std::string& name);
  /// Close span `index` (no-op for -1).
  void close(int index);

  /// Sum of durations / number of closed spans named `name`.
  double total_s(const std::string& name) const;
  std::int64_t count(const std::string& name) const;

  /// Write every span as {"schema":"perfbench-spans-v1","spans":[...]}.
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::string scope_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The process-wide log.
SpanLog& spans();

/// RAII span around one layer call.
class Scope {
 public:
  explicit Scope(const std::string& name) : index_(spans().open(name)) {}
  ~Scope() { spans().close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

}  // namespace perfbench
