#include "check/schedfuzz.h"

#include <cstdio>
#include <memory>
#include <random>
#include <sstream>

namespace ncsw::check {

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt(std::int64_t v) { return std::to_string(v); }

/// FNV-1a over a byte stream: the record logs can hold thousands of
/// entries, so they enter the fingerprint as one digest key each.
class Digest {
 public:
  void mix(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xffULL;  // field separator
    h_ *= 0x100000001b3ULL;
  }
  void mix(double v) { mix(fmt(v)); }
  void mix(std::int64_t v) { mix(fmt(v)); }
  void mix(int v) { mix(static_cast<std::int64_t>(v)); }
  std::string str() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

Fingerprint fingerprint(const serve::ServeReport& r) {
  Fingerprint fp;
  fp.emplace_back("offered", fmt(r.offered));
  fp.emplace_back("accepted", fmt(r.accepted));
  fp.emplace_back("rejected", fmt(r.rejected));
  fp.emplace_back("completed", fmt(r.completed));
  fp.emplace_back("dropped", fmt(r.dropped));
  fp.emplace_back("dropped_deadline", fmt(r.dropped_deadline));
  fp.emplace_back("dropped_inflight", fmt(r.dropped_inflight));
  fp.emplace_back("dropped_failover", fmt(r.dropped_failover));
  fp.emplace_back("first_arrival_s", fmt(r.first_arrival_s));
  fp.emplace_back("last_complete_s", fmt(r.last_complete_s));
  fp.emplace_back("p50_ms", fmt(r.p50_ms));
  fp.emplace_back("p95_ms", fmt(r.p95_ms));
  fp.emplace_back("p99_ms", fmt(r.p99_ms));
  fp.emplace_back("max_queue_depth",
                  fmt(static_cast<std::int64_t>(r.max_queue_depth)));
  Digest recs;
  for (const auto& rec : r.records) {
    recs.mix(rec.request.id);
    recs.mix(static_cast<int>(rec.outcome));
    recs.mix(static_cast<int>(rec.drop_reason));
    recs.mix(rec.target);
    recs.mix(rec.dispatch_s);
    recs.mix(rec.complete_s);
  }
  fp.emplace_back("records", recs.str());
  Digest tgts;
  for (const auto& t : r.targets) {
    tgts.mix(t.label);
    tgts.mix(t.batches);
    tgts.mix(t.images);
    tgts.mix(t.busy_s);
    tgts.mix(t.max_inflight);
  }
  fp.emplace_back("targets", tgts.str());
  return fp;
}

Fingerprint fingerprint(const cluster::ClusterReport& r) {
  Fingerprint fp;
  fp.emplace_back("offered", fmt(r.offered));
  fp.emplace_back("completed", fmt(r.completed));
  fp.emplace_back("rejected", fmt(r.rejected));
  fp.emplace_back("dropped_deadline", fmt(r.dropped_deadline));
  fp.emplace_back("requests_lost", fmt(r.requests_lost));
  fp.emplace_back("requests_replayed", fmt(r.requests_replayed));
  fp.emplace_back("requests_hedged", fmt(r.requests_hedged));
  fp.emplace_back("requests_spilled", fmt(r.requests_spilled));
  fp.emplace_back("duplicate_completions", fmt(r.duplicate_completions));
  fp.emplace_back("node_kills", fmt(static_cast<std::int64_t>(r.node_kills)));
  fp.emplace_back("node_wedges", fmt(static_cast<std::int64_t>(r.node_wedges)));
  fp.emplace_back("node_rejoins",
                  fmt(static_cast<std::int64_t>(r.node_rejoins)));
  fp.emplace_back("nodes_dead", fmt(static_cast<std::int64_t>(r.nodes_dead)));
  fp.emplace_back("first_arrival_s", fmt(r.first_arrival_s));
  fp.emplace_back("last_complete_s", fmt(r.last_complete_s));
  fp.emplace_back("p50_ms", fmt(r.p50_ms));
  fp.emplace_back("p95_ms", fmt(r.p95_ms));
  fp.emplace_back("p99_ms", fmt(r.p99_ms));
  Digest recs;
  for (const auto& rec : r.records) {
    recs.mix(rec.id);
    recs.mix(static_cast<int>(rec.state));
    recs.mix(rec.arrival_s);
    recs.mix(rec.finish_s);
    recs.mix(rec.node);
    recs.mix(rec.replays);
    recs.mix(rec.hedges);
    recs.mix(rec.evicted_s);
  }
  fp.emplace_back("records", recs.str());
  Digest nodes;
  for (const auto& n : r.nodes) {
    nodes.mix(n.serve.completed);
    nodes.mix(n.serve.offered);
    nodes.mix(n.health);
    nodes.mix(n.routed);
    nodes.mix(n.evicted);
    nodes.mix(n.crashes);
    nodes.mix(n.wedges);
    nodes.mix(n.rejoins);
  }
  fp.emplace_back("nodes", nodes.str());
  return fp;
}

Fingerprint fingerprint(const serve::ZooReport& r) {
  Fingerprint fp;
  fp.emplace_back("offered", fmt(r.offered));
  fp.emplace_back("rejected", fmt(r.rejected));
  fp.emplace_back("dropped", fmt(r.dropped));
  fp.emplace_back("completed", fmt(r.completed));
  fp.emplace_back("hits", fmt(r.hits));
  fp.emplace_back("swaps", fmt(r.swaps));
  fp.emplace_back("swap_stall_s", fmt(r.swap_stall_s));
  fp.emplace_back("last_complete_s", fmt(r.last_complete_s));
  fp.emplace_back("latency_sum_ms", fmt(r.latency_ms.sum()));
  fp.emplace_back("p50_ms", fmt(r.p50_ms));
  fp.emplace_back("p99_ms", fmt(r.p99_ms));
  Digest tables;  // per-class and per-model rollups
  for (const auto& c : r.classes) {
    tables.mix(c.completed);
    tables.mix(c.dropped);
    tables.mix(c.p99_ms);
  }
  for (const auto& m : r.models) {
    tables.mix(m.completed);
    tables.mix(m.swaps_in);
  }
  fp.emplace_back("tables", tables.str());
  return fp;
}

namespace {

/// One tie group (>1 candidate) encountered during a perturbed run.
struct Decision {
  double t = 0.0;
  std::vector<serve::LoopEvent> cands;
  std::size_t pick = 0;
};

std::string describe_event(const serve::LoopEvent& ev) {
  std::string s = serve::loop_event_kind_name(ev.kind);
  if (ev.index != 0) s += "@" + std::to_string(ev.index);
  return s;
}

std::string describe(const Decision& d) {
  std::ostringstream os;
  os << "t=" << fmt(d.t) << ": ran " << describe_event(d.cands[d.pick])
     << " before " << describe_event(d.cands[0]) << " (tie of "
     << d.cands.size() << ": ";
  for (std::size_t i = 0; i < d.cands.size(); ++i) {
    if (i) os << " < ";
    os << describe_event(d.cands[i]);
  }
  os << ")";
  return os.str();
}

std::vector<std::string> diff_fingerprints(const Fingerprint& base,
                                           const Fingerprint& got,
                                           std::size_t cap = 8) {
  std::vector<std::string> out;
  const std::size_t n = std::min(base.size(), got.size());
  for (std::size_t i = 0; i < n && out.size() < cap; ++i) {
    if (base[i] != got[i]) {
      out.push_back(base[i].first + ": " + base[i].second + " -> " +
                    got[i].second);
    }
  }
  if (base.size() != got.size() && out.size() < cap) {
    out.push_back("fingerprint size: " + std::to_string(base.size()) +
                  " -> " + std::to_string(got.size()));
  }
  return out;
}

struct PerturbedRun {
  Fingerprint fp;
  std::vector<Decision> log;
  std::int64_t ties = 0;
  std::int64_t perturbed = 0;
  std::string error;  ///< non-empty when the scenario threw
};

PerturbedRun run_seeded(const Scenario& scenario, std::uint64_t seed) {
  PerturbedRun run;
  // splitmix64 of the seed so seeds 1,2,3... give unrelated streams.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  auto rng = std::make_shared<std::mt19937_64>(z ^ (z >> 31));
  auto log = std::make_shared<std::vector<Decision>>();
  const serve::ScopedTieBreak hook(
      [rng, log](double t, const std::vector<serve::LoopEvent>& tied) {
        const std::size_t pick = std::uniform_int_distribution<std::size_t>(
            0, tied.size() - 1)(*rng);
        log->push_back({t, tied, pick});
        return pick;
      });
  try {
    run.fp = scenario();
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.log = std::move(*log);
  run.ties = static_cast<std::int64_t>(run.log.size());
  for (const auto& d : run.log) {
    if (d.pick != 0) ++run.perturbed;
  }
  return run;
}

/// Re-run with exactly one decision deviating from the fixed order.
Fingerprint run_single_deviation(const Scenario& scenario, std::size_t index,
                                 std::size_t pick, std::string* error) {
  auto counter = std::make_shared<std::size_t>(0);
  const serve::ScopedTieBreak hook(
      [counter, index, pick](double, const std::vector<serve::LoopEvent>&) {
        return (*counter)++ == index ? pick : std::size_t{0};
      });
  try {
    return scenario();
  } catch (const std::exception& e) {
    *error = e.what();
    return {};
  }
}

}  // namespace

std::string ScheduleDivergence::to_string() const {
  std::ostringstream os;
  os << "seed " << seed << " diverged after " << decisions
     << " tie decisions";
  if (minimized_index >= 0) {
    os << "; minimized to decision #" << minimized_index << " ("
       << minimized_choice << ")";
  } else if (!minimized_choice.empty()) {
    os << "; " << minimized_choice;
  }
  for (const auto& d : diffs) os << "\n  " << d;
  return os.str();
}

SchedFuzzReport fuzz_schedule(const Scenario& scenario,
                              const SchedFuzzConfig& config) {
  SchedFuzzReport report;
  const Fingerprint baseline = scenario();
  for (int seed = 1; seed <= config.seeds; ++seed) {
    PerturbedRun run = run_seeded(scenario, static_cast<std::uint64_t>(seed));
    ++report.seeds_run;
    report.ties_seen += run.ties;
    report.perturbed += run.perturbed;
    const bool diverged = !run.error.empty() || run.fp != baseline;
    if (!diverged) continue;

    ScheduleDivergence div;
    div.seed = static_cast<std::uint64_t>(seed);
    div.decisions = run.ties;
    if (!run.error.empty()) {
      div.diffs.push_back("exception: " + run.error);
    } else {
      div.diffs = diff_fingerprints(baseline, run.fp);
    }
    if (config.minimize) {
      for (std::size_t k = 0; k < run.log.size(); ++k) {
        if (run.log[k].pick == 0) continue;
        std::string err;
        const Fingerprint fp =
            run_single_deviation(scenario, k, run.log[k].pick, &err);
        if (!err.empty() || fp != baseline) {
          div.minimized_index = static_cast<std::int64_t>(k);
          div.minimized_choice = describe(run.log[k]);
          if (!err.empty()) {
            div.diffs.push_back("minimized run threw: " + err);
          }
          break;
        }
      }
      if (div.minimized_index < 0) {
        div.minimized_choice =
            "no single tie decision reproduces it (order-dependent chain)";
      }
    }
    report.divergences.push_back(std::move(div));
    if (static_cast<int>(report.divergences.size()) >=
        config.max_divergences) {
      break;
    }
  }
  return report;
}

}  // namespace ncsw::check
