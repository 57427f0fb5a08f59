// Schedule-perturbation determinism checker (DPOR-lite).
//
// The serving stack's headline guarantee is byte-identical replay: a
// given arrival trace (plus fault plan) always produces the same
// report, because every event loop breaks same-timestamp ties in a
// fixed order. That guarantee is only meaningful if the *results* are
// independent of the tie order — i.e. same-timestamp events commute.
// If they don't (say, an arrival and a completion racing for the last
// queue slot), the "determinism" is an artifact of one arbitrary
// serialisation, and any refactor that reorders the scan silently
// changes results.
//
// This harness checks commutativity directly: it re-runs a scenario
// under seeded random permutations of each same-timestamp event group
// (a serve::ScopedTieBreak hook, which every serve::EventPicker on the
// thread consults — the Server, Cluster and ZooServer loops alike) and
// asserts the final report fingerprint is invariant.
// On divergence it minimises to a single deviating tie decision — the
// smallest schedule change that flips the result — and reports it.
//
// Exercised by tools/ncsw_schedfuzz and the CI schedfuzz smoke job.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "serve/server.h"
#include "serve/zoo_serve.h"

namespace ncsw::check {

/// A run's result reduced to an ordered list of (key, value) pairs.
/// Two runs are considered identical iff their fingerprints are equal;
/// the keys make a divergence report human-readable.
using Fingerprint = std::vector<std::pair<std::string, std::string>>;

/// Canonical fingerprints of the serving reports: every scalar counter
/// plus a digest of the per-request record log, so a divergence in any
/// individual request's fate is caught even when the totals agree. The
/// loadgens' replay checks compare these too.
Fingerprint fingerprint(const serve::ServeReport& r);
Fingerprint fingerprint(const cluster::ClusterReport& r);
Fingerprint fingerprint(const serve::ZooReport& r);

/// One schedule-sensitive workload, run on the calling thread (inside the
/// tie hook fuzz_schedule installs): returns the result fingerprint. Must
/// be a pure function of that hook — fresh Server/Cluster/ZooServer,
/// same trace, same fault plan on every call.
using Scenario = std::function<Fingerprint()>;

struct SchedFuzzConfig {
  /// Perturbed runs per scenario (seeds 1..N; seed 0 is the baseline).
  int seeds = 16;
  /// On divergence, search for the single deviating tie decision that
  /// reproduces it.
  bool minimize = true;
  /// Stop a scenario after this many diverging seeds.
  int max_divergences = 4;
};

/// One seed whose perturbed schedule produced a different result.
struct ScheduleDivergence {
  std::uint64_t seed = 0;
  /// Tie decisions (groups with >1 candidate) taken in the diverging run.
  std::int64_t decisions = 0;
  /// Index of the single decision that reproduces the divergence on its
  /// own (-1 when minimisation was off or found no single culprit).
  std::int64_t minimized_index = -1;
  /// Human description of that decision: time, chosen event, default.
  std::string minimized_choice;
  /// "key: baseline -> perturbed" lines (bounded).
  std::vector<std::string> diffs;

  std::string to_string() const;
};

struct SchedFuzzReport {
  int seeds_run = 0;
  std::int64_t ties_seen = 0;   ///< tie groups with >1 candidate
  std::int64_t perturbed = 0;   ///< groups where a non-default pick ran
  std::vector<ScheduleDivergence> divergences;

  bool ok() const noexcept { return divergences.empty(); }
};

/// Run the scenario once at the fixed order, then `config.seeds` times
/// under seeded random tie permutations, comparing fingerprints.
SchedFuzzReport fuzz_schedule(const Scenario& scenario,
                              const SchedFuzzConfig& config = {});

}  // namespace ncsw::check
