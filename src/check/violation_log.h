// The violation log both runtime verifiers keep (ProtocolVerifier in
// check/protocol.h, ServeVerifier in check/serve_check.h): per-kind
// counts, a bounded list of recorded violations, and the side effects of
// a report — a check.violation.<name> counter, a trace instant, a
// warning, and the throw in strict mode. Each verifier supplies its own
// violation struct, exception type, trace lane and log prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ncsw::check {

namespace detail {

/// Bump check.violation.<name> and check.violations, emit a
/// "violation:<name>" instant on trace lane `lane` at `t` when the tracer
/// is armed, and log `prefix` + `text` as a warning.
void publish_violation(const char* name, const std::string& lane, double t,
                       const char* prefix, const std::string& text);

}  // namespace detail

/// `V` carries `kind` (an enum of `kKinds` values), `sim_time` and
/// to_string(); `Error` is thrown from a V in strict mode. Thread-safe.
template <class V, class Error, int kKinds>
class ViolationLog {
 public:
  using Kind = decltype(V::kind);

  /// Recorded-violation list cap; counts keep accumulating past it.
  static constexpr std::size_t kMaxRecorded = 256;

  /// Count and record `v` while the caller still holds `state` (its
  /// verifier's lock), release `state`, publish the violation under
  /// `name` on trace lane `lane`, then throw Error(v) when `strict`.
  void report(std::unique_lock<std::mutex>& state, V v, const char* name,
              const std::string& lane, const char* prefix, bool strict) {
    {
      std::lock_guard lock(mutex_);
      ++counts_[static_cast<int>(v.kind)];
      ++total_;
      if (recorded_.size() < kMaxRecorded) recorded_.push_back(v);
    }
    state.unlock();
    detail::publish_violation(name, lane, v.sim_time, prefix, v.to_string());
    if (strict) throw Error(std::move(v));
  }

  std::uint64_t count(Kind kind) const {
    std::lock_guard lock(mutex_);
    return counts_[static_cast<int>(kind)];
  }
  std::uint64_t total() const {
    std::lock_guard lock(mutex_);
    return total_;
  }
  /// Recorded violations, oldest first (at most kMaxRecorded).
  std::vector<V> violations() const {
    std::lock_guard lock(mutex_);
    return recorded_;
  }
  /// Drop recorded violations and counts.
  void clear() {
    std::lock_guard lock(mutex_);
    recorded_.clear();
    for (auto& c : counts_) c = 0;
    total_ = 0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<V> recorded_;
  std::uint64_t counts_[kKinds] = {};
  std::uint64_t total_ = 0;
};

}  // namespace ncsw::check
