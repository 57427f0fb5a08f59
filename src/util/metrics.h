// Counter / gauge / histogram metrics registry.
//
// Aggregated observability next to the tracer's timelines: instrumented
// subsystems register named instruments once and update them on hot
// paths (lock-free for counters/gauges). The registry serialises to
// JSON so benches and tools can attach a metrics snapshot to their
// machine-readable output.
//
// Naming schema (documented in docs/architecture.md): dotted lowercase
// `<subsystem>.<object>.<metric>`, e.g. "myriad.executions",
// "usb.usb-ch0.bytes", "ncs.dev0.inferences", "core.sched.failover_retries".
//
// Lifetime: instruments are never erased — reset() zeroes values but
// keeps the objects, so references cached by long-lived subsystems stay
// valid across host resets and between bench phases.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ncsw::util {

/// Monotonic event count. Lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written sample of a continuous quantity. Lock-free.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution of samples over fixed bucket upper bounds (plus the
/// implicit +inf bucket), with count / sum / min / max. Thread-safe.
class Histogram {
 public:
  /// `bounds` must be strictly increasing; empty = default decades
  /// 1e-6 .. 1e6 (a generic range for seconds, milliseconds and bytes).
  explicit Histogram(std::vector<double> bounds = {});

  void record(double v) noexcept;

  std::uint64_t count() const;
  double sum() const;
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  double mean() const; ///< 0 when empty
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts: bucket i covers (bounds[i-1], bounds[i]], the
  /// last entry is the +inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  void reset();

 private:
  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named instruments, one namespace per kind. Lookup is mutex-guarded;
/// cache the returned reference on hot paths.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only when the histogram is created by this call.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Zero every instrument; objects (and references to them) survive.
  void reset();

  /// Snapshot as JSON: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,min,max,mean,buckets:[{le,count}]}}}.
  /// Names are emitted sorted, so the output is deterministic.
  std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry.
MetricsRegistry& metrics();

}  // namespace ncsw::util
