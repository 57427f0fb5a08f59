#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "check/protocol.h"
#include "cluster/cluster.h"
#include "core/application.h"
#include "core/host_target.h"
#include "core/stick_fleet.h"
#include "core/vpu_target.h"
#include "dataset/synthetic.h"
#include "graphc/compiler.h"
#include "half/half.h"
#include "nn/executor.h"
#include "serve/arrivals.h"
#include "serve/zoo_serve.h"
#include "spans.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

namespace {

/// The CPU set the process started with (restored while measuring the
/// engine's own threading, which a one-CPU pin would hide).
cpu_set_t g_start_cpus;
bool g_pinned = false;

/// Widens the affinity back to the start set for its lifetime.
class Unpinned {
 public:
  Unpinned() {
    if (!g_pinned) return;
    sched_getaffinity(0, sizeof(saved_), &saved_);
    sched_setaffinity(0, sizeof(g_start_cpus), &g_start_cpus);
  }
  ~Unpinned() {
    if (g_pinned) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  Unpinned(const Unpinned&) = delete;
  Unpinned& operator=(const Unpinned&) = delete;

 private:
  cpu_set_t saved_{};
};

}  // namespace

bool pin_to_last_cpu() {
  if (sched_getaffinity(0, sizeof(g_start_cpus), &g_start_cpus) != 0) return false;
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &g_start_cpus)) --cpu;
  if (cpu < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  g_pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
  return g_pinned;
}

std::string full_digits(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks.push_back(Check{name, ok, detail});
  if (!ok) ++failed;
}

namespace {

using namespace ncsw;

// ---- shared ladder definition ------------------------------------------

/// Offered load of each rung as a multiple of the calibrated capacity.
constexpr double kRungLoad[] = {0.5, 0.8, 0.95, 1.2};
constexpr int kRungs = 4;
constexpr int kNominal = 1;   ///< 0.8x
constexpr int kOverload = 3;  ///< 1.2x
/// A rung meets the SLO when its p99 stays under ~5x the paper's 100.7 ms
/// single-input latency and at least 99 % of its requests complete.
constexpr double kP99LimitMs = 500.0;
constexpr double kOkLimit = 0.99;
/// The paper's Fig. 6a 8-stick throughput anchor (img/s).
constexpr double kFig6aVpuAnchor = 77.2;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

serve::SloClass draw_slo(util::Xoshiro256& rng) {
  const double c = rng.uniform();
  return c < 0.20   ? serve::SloClass::kInteractive
         : c < 0.80 ? serve::SloClass::kStandard
                    : serve::SloClass::kBatch;
}

double median(std::vector<double> xs) { return util::percentile(xs, 50.0); }

double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One rung's simulated outcome (first round; later rounds must repeat it).
struct Rung {
  double rate = 0.0;  ///< offered req/s
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  double goodput = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0, p99_interactive_ms = 0.0;

  double ok_frac() const { return frac(static_cast<double>(completed), static_cast<double>(offered)); }
  bool meets_slo(double limit_ms) const {
    return p99_ms <= limit_ms && ok_frac() >= kOkLimit;
  }
};

/// Digest of a ladder's simulated results, every digit.
std::string ladder_digest(const std::vector<Rung>& rungs) {
  std::string fp;
  for (const auto& g : rungs) {
    fp += full_digits(g.goodput) + full_digits(g.p50_ms) + full_digits(g.p99_ms) +
          full_digits(g.p999_ms) + full_digits(g.p99_interactive_ms) +
          std::to_string(g.completed) + ";";
  }
  return hex(fnv1a(fp));
}

/// Fill the simulated-clock ladder metrics. sim_max_rate_rps is the
/// goodput achieved on the highest rung that meets the SLO (p99 within
/// `limit_ms`, ok_frac >= 0.99); checks that the rungs straddle the SLO
/// (the lowest meets it, the overload rung does not). ok_frac is
/// completed / offered over all rungs; run.py sets it to 0 when any check
/// of the run failed.
void report_ladder(Result& r, const std::vector<Rung>& rungs, double limit_ms,
                   const Options& opt) {
  double max_rate = 0.0;
  std::int64_t offered = 0, completed = 0;
  for (const auto& g : rungs) {
    if (g.meets_slo(limit_ms)) max_rate = g.goodput;
    offered += g.offered;
    completed += g.completed;
  }
  const Rung& nom = rungs[kNominal];
  r.set("sim_goodput_rps", rungs[kOverload].goodput, "req/s");
  r.set("sim_p50_ms", nom.p50_ms, "ms");
  r.set("sim_p99_ms", nom.p99_ms, "ms");
  r.set("sim_p999_ms", nom.p999_ms, "ms");
  r.set("sim_p99_interactive_ms", nom.p99_interactive_ms, "ms");
  r.set("sim_max_rate_rps", max_rate, "req/s");
  r.set("ok_frac", frac(static_cast<double>(completed), static_cast<double>(offered)), "ratio");
  bool straddle = rungs.front().meets_slo(limit_ms) && !rungs.back().meets_slo(limit_ms);
  if (opt.sabotage == "straddle") straddle = !straddle;
  r.check("ladder-straddles-slo", straddle,
          "limit " + full_digits(limit_ms) + " ms; lowest rung p99 " + full_digits(rungs.front().p99_ms) + " ms, ok " +
              full_digits(rungs.front().ok_frac()) + "; overload rung p99 " +
              full_digits(rungs.back().p99_ms) + " ms, ok " +
              full_digits(rungs.back().ok_frac()));
}

/// Rounds. `round(k)` runs round k: a fixed list of units (a cluster
/// segment, a zoo rung, a fig7 subset), each timed on its own, plus a
/// fingerprint of its simulated and functional results. Round 0 runs cold
/// and untimed; its results are the reference every timed round must
/// reproduce bit-for-bit. Timed rounds repeat until `opt.seconds` of wall
/// time are spent (at least one; in a traced run at least two, the even
/// rounds recording spans and the odd ones not).
///
/// The speed of a shared host drifts: for minutes at a time, other tenants
/// slow this one by up to ~1.4x (the same code read 390k and 560k req/s in
/// consecutive runs). So every unit is followed by a host probe, a fixed
/// memory-bound loop that slows with it, and a unit's cost is the median
/// over rounds of its wall time in probe times. host_req_per_s converts
/// that back to seconds at the probe's nominal time: the rate this code
/// runs at when the host runs at the probe's nominal speed.
struct Unit {
  double work = 0.0;     ///< requests or classifications
  double wall_s = 0.0;   ///< timed wall seconds
  double probe_s = 0.0;  ///< host_probe_s() right after the unit
};

struct RoundOut {
  std::vector<Unit> units;
  std::string fingerprint;
};

/// The host probe: allocate, fill and stream an 8 MiB buffer, which the
/// library does not touch. Its time tracks the host's slow phases the way
/// the allocation-heavy event loops and kernels do.
double host_probe_s() {
  static volatile double sink = 0.0;
  const double t0 = now_s();
  std::vector<double> buf(std::size_t{1} << 20, 1.0);
  double s = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < buf.size(); ++i) s += buf[i] * 1.0000001 + static_cast<double>(i & 7);
  }
  sink = s;
  return now_s() - t0;
}

/// The probe's nominal time: about its time in the fast phases of the
/// 4-CPU Xeon the benchmark was tuned on (5-8 ms across phases there).
constexpr double kProbeNominalS = 5.5e-3;

struct Rounds {
  std::vector<double> unit_work;                ///< the same every round
  std::vector<std::vector<double>> scaled[2];   ///< [traced][unit] wall / probe
  double work[2] = {0.0, 0.0};                  ///< timed work: untraced, traced
  double raw_wall_s = 0.0;                      ///< untraced
  std::vector<double> probes;                   ///< every probe, seconds
  bool deterministic = true;

  void add(bool traced, const std::vector<Unit>& units) {
    unit_work.resize(units.size());
    scaled[traced].resize(units.size());
    for (std::size_t u = 0; u < units.size(); ++u) {
      unit_work[u] = units[u].work;
      scaled[traced][u].push_back(units[u].wall_s / units[u].probe_s);
      work[traced] += units[u].work;
      if (!traced) raw_wall_s += units[u].wall_s;
      probes.push_back(units[u].probe_s);
    }
  }
  /// Work per second with the host at the probe's nominal speed.
  double rate(bool traced) const {
    double w = 0.0, probe_times = 0.0;
    for (std::size_t u = 0; u < scaled[traced].size(); ++u) {
      w += unit_work[u];
      probe_times += median(scaled[traced][u]);
    }
    return frac(w, probe_times * kProbeNominalS);
  }
  /// Work per wall second as measured, untraced rounds.
  double raw_rate() const { return frac(work[0], raw_wall_s); }
};

template <class RoundFn>
Rounds run_rounds(const Options& opt, const std::string& workload,
                  RoundFn&& round) {
  Rounds out;
  std::string first;
  double t0 = 0.0;
  for (int k = 0; k < (opt.trace ? 3 : 2) || now_s() - t0 < opt.seconds; ++k) {
    const bool traced = opt.trace && k > 0 && k % 2 == 0;
    spans().set_enabled(traced);
    spans().set_scope(workload + "/round" + std::to_string(k));
    RoundOut r;
    {
      Scope s("round");
      r = round(k);
    }
    spans().set_enabled(false);
    if (k == 0) {
      first = r.fingerprint;
      t0 = now_s();
      continue;
    }
    if (k == 1 && opt.sabotage == "determinism") r.fingerprint += "!";
    if (r.fingerprint != first) out.deterministic = false;
    out.add(traced, r.units);
  }
  return out;
}

/// Timed set-ups: `reps` times a fresh rig (the old one closes first: one
/// mvnc fleet at a time); the last one stays. Each is timed in probe times
/// like a unit and converted at the probe's nominal time. A run does half
/// of opt.setup_reps before its rounds and the rest after them; setup_s
/// is the median of all. Spans are recorded for the first set-up only.
template <class Rig, class SetupFn>
void repeat_setup(const Options& opt, int reps, std::optional<Rig>& rig,
                  SetupFn&& setup, std::vector<double>& secs) {
  for (int i = 0; i < reps; ++i) {
    rig.reset();
    spans().set_enabled(opt.trace && secs.empty());
    spans().set_scope(opt.workload + "/setup");
    const double t0 = now_s();
    {
      Scope s("setup");
      rig.emplace(setup());
    }
    const double wall_s = now_s() - t0;
    secs.push_back(wall_s / host_probe_s() * kProbeNominalS);
    spans().set_enabled(false);
  }
}

int setup_reps_before(const Options& opt) { return (opt.setup_reps + 1) / 2; }
int setup_reps_after(const Options& opt) { return opt.setup_reps / 2; }

void report_host(Result& r, const Rounds& rounds, const std::vector<double>& setup_secs,
                 const Options& opt) {
  r.set("setup_s", median(setup_secs), "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("host_req_per_s", rounds.rate(false), "req/s");
  r.set("host.raw_req_per_s", rounds.raw_rate(), "req/s");
  r.set("host.probe_ms", median(rounds.probes) * 1e3, "ms");
  r.check("rounds-repeat-bit-identical", rounds.deterministic,
          "every timed round reproduces the untimed first round's results");
  if (opt.trace) r.set("trace.overhead_frac", rounds.rate(false) / rounds.rate(true) - 1.0, "ratio");
  r.attempted += static_cast<std::int64_t>(rounds.work[0] + rounds.work[1]);
}

/// Host wall microseconds per image of isolated submit+wait on `t`.
double isolated_us_per_img(core::Target& t, int batch, int batches,
                           const std::string& span) {
  double submit_s = 0.0;
  const double t0 = now_s();
  {
    Scope s(span);
    for (int i = 0; i < batches; ++i) {
      const auto ticket = t.submit(batch, batch, submit_s);
      submit_s = t.wait(ticket).seconds + submit_s;
    }
  }
  return (now_s() - t0) * 1e6 / (static_cast<double>(batch) * batches);
}

/// Host wall ms of an isolated FP16 compile of `graph` (span graphc.compile).
double isolated_compile_ms(const nn::Graph& graph) {
  const double t0 = now_s();
  {
    Scope s("graphc.compile");
    (void)graphc::compile(graph, graphc::Precision::kFP16);
  }
  return (now_s() - t0) * 1e3;
}

// ---- functional classification (fig7-classify and the canaries) -------

struct Fig7Rig {
  std::shared_ptr<const dataset::SyntheticImageNet> data;
  std::shared_ptr<const core::ModelBundle> bundle;
  std::unique_ptr<core::Application> app;  ///< target 0 = CPU, 1 = VPU
};

constexpr int kFig7Sticks = 4;

Fig7Rig fig7_setup(const dataset::DatasetConfig& dc) {
  Fig7Rig rig;
  {
    Scope s("dataset.init");
    rig.data = std::make_shared<dataset::SyntheticImageNet>(dc);
  }
  {
    Scope s("nn.weights");
    rig.bundle = core::ModelBundle::tiny_functional(*rig.data);
  }
  core::Preprocessor prep;
  prep.input_size = rig.bundle->input_size();
  prep.means = rig.data->means();
  rig.app = std::make_unique<core::Application>(prep);
  rig.app->add_target(core::make_cpu_target(rig.bundle));
  core::VpuTargetConfig vcfg;
  vcfg.devices = kFig7Sticks;
  // One host thread drives the sticks in turn: every measured run stays
  // on the one CPU it is pinned to.
  vcfg.parallel_host_threads = false;
  {
    Scope s("mvnc.open");
    rig.app->add_target(std::make_shared<core::VpuTarget>(rig.bundle, vcfg));
  }
  // Warm-up: one image per stick through both targets.
  core::ImageFolderSource warm(rig.data, 0, kFig7Sticks);
  std::vector<tensor::TensorF> inputs;
  while (auto item = warm.next()) inputs.push_back(rig.app->preprocessor()(item->image));
  (void)rig.app->target(0).classify(inputs);
  (void)rig.app->target(1).classify(inputs);
  return rig;
}

/// One pass over `per_subset` images of every subset: dataset generation,
/// preprocessing, FP32 classification on the CPU target and FP16 on the
/// VPU target. Each call into a layer is a span; each subset is a timed
/// unit.
struct ClassifyPass {
  core::ClassificationJob cpu, vpu;
  std::vector<tensor::TensorF> inputs;  ///< kept for the kernel profile
  std::vector<Unit> units;              ///< per subset: classifications, wall
};

ClassifyPass classify_pass(Fig7Rig& rig, int per_subset, std::uint64_t seed,
                           bool keep_inputs) {
  ClassifyPass pass;
  pass.cpu.target = rig.app->target(0).short_name();
  pass.vpu.target = rig.app->target(1).short_name();
  for (int subset = 0; subset < rig.data->subsets(); ++subset) {
    const double t0 = now_s();
    // The seed picks which window of the subset's images this run sees
    // (seed 0: the first images, as the paper's benches read them).
    const int span = rig.data->images_per_subset() - per_subset;
    const int first =
        seed == 0 ? 0
                  : static_cast<int>(mix_seed(seed, 400 + static_cast<std::uint64_t>(subset)) %
                                     static_cast<std::uint64_t>(span + 1));
    std::vector<core::SourceItem> items;
    for (int i = first; i < first + per_subset; ++i) {
      Scope s("dataset.gen");
      auto sample = rig.data->sample(subset, i);
      items.push_back({std::move(sample.image), sample.label,
                       dataset::subset_name(subset) + "/" + std::to_string(i)});
    }
    std::vector<tensor::TensorF> inputs;
    inputs.reserve(items.size());
    for (const auto& item : items) {
      Scope s("imgproc.prep");
      inputs.push_back(rig.app->preprocessor()(item.image));
    }
    std::vector<core::Prediction> cpu, vpu;
    {
      Scope s("nn.fp32_classify");
      cpu = rig.app->target(0).classify(inputs);
    }
    {
      Scope s("mvnc.fp16_classify");
      vpu = rig.app->target(1).classify(inputs);
    }
    // Each image is classified on both targets.
    const double wall_s = now_s() - t0;
    pass.units.push_back({2.0 * static_cast<double>(items.size()), wall_s, host_probe_s()});
    for (std::size_t i = 0; i < items.size(); ++i) {
      pass.cpu.items.push_back(items[i]);
      pass.vpu.items.push_back(std::move(items[i]));
      pass.cpu.predictions.push_back(std::move(cpu[i]));
      pass.vpu.predictions.push_back(std::move(vpu[i]));
    }
    if (keep_inputs) {
      for (auto& in : inputs) pass.inputs.push_back(std::move(in));
    }
  }
  return pass;
}

/// Digest of the predicted labels and confidences of both targets.
std::string label_digest(const ClassifyPass& p, const Options& opt) {
  std::string s;
  for (std::size_t i = 0; i < p.cpu.predictions.size(); ++i) {
    int cpu_label = p.cpu.predictions[i].label;
    if (i == 0 && opt.sabotage == "labels") cpu_label += 1;
    s += std::to_string(cpu_label) + "/" +
         std::to_string(p.vpu.predictions[i].label) + "/" +
         full_digits(p.cpu.predictions[i].confidence) + "/" +
         full_digits(p.vpu.predictions[i].confidence) + ";";
  }
  return hex(fnv1a(s));
}

void report_functional(Result& r, const ClassifyPass& p) {
  r.set("top1_err_cpu_pct", 100.0 * p.cpu.top1_error(), "%");
  r.set("top1_err_vpu_pct", 100.0 * p.vpu.top1_error(), "%");
  r.set("conf_diff_pct", 100.0 * core::confidence_difference(p.cpu, p.vpu), "%");
}

/// Per-layer kernel profile: wall ms per image by layer kind, from
/// ExecOptions::profile_layers, FP32 in the CPU target's batches of 8 and
/// FP16 one image at a time as each stick runs it; GFLOP/s of the conv
/// layers from the graph's MAC counts.
void report_kernel_profile(Result& r, const core::ModelBundle& bundle,
                           const std::vector<tensor::TensorF>& inputs,
                           double fp16_classify_ms_per_img) {
  const auto kind_key = [](nn::LayerKind k) -> std::string {
    switch (k) {
      case nn::LayerKind::kConv: return "conv";
      case nn::LayerKind::kMaxPool:
      case nn::LayerKind::kAvgPool: return "pool";
      case nn::LayerKind::kLRN: return "lrn";
      case nn::LayerKind::kFC: return "fc";
      default: return "other";
    }
  };
  std::int64_t conv_macs = 0;
  for (const auto& l : bundle.compiled_f16.layers) {
    if (l.kind == nn::LayerKind::kConv) conv_macs += l.macs;
  }
  const tensor::Shape item = bundle.graph.layer(bundle.graph.input_id()).out_shape;
  const auto n = static_cast<std::int64_t>(inputs.size());
  for (const bool fp16 : {false, true}) {
    std::map<std::string, double> secs;
    nn::ExecOptions eo;
    eo.threads = 1;
    eo.profile_layers = true;
    const std::string prefix = fp16 ? "nn.fp16." : "nn.fp32.";
    Scope s(fp16 ? "nn.fp16_profile" : "nn.fp32_profile");
    const std::int64_t step = fp16 ? 1 : 8;
    for (std::int64_t start = 0; start < n; start += step) {
      const std::int64_t b = std::min(step, n - start);
      tensor::TensorF blob(item.with_batch(b));
      for (std::int64_t j = 0; j < b; ++j) {
        const auto& in = inputs[static_cast<std::size_t>(start + j)];
        std::copy(in.data(), in.data() + in.numel(), blob.batch_ptr(j));
      }
      std::vector<double> layer_s;
      if (fp16) {
        layer_s = nn::run_forward(bundle.graph, bundle.weights_f16,
                                  tensor::tensor_cast<fp16::half>(blob), eo)
                      .layer_seconds;
      } else {
        layer_s = nn::run_forward(bundle.graph, bundle.weights_f32, blob, eo)
                      .layer_seconds;
      }
      for (std::size_t id = 0; id < layer_s.size(); ++id) {
        secs[kind_key(bundle.graph.layer(static_cast<int>(id)).kind)] += layer_s[id];
      }
    }
    double total_ms = 0.0;
    for (const char* k : {"conv", "pool", "lrn", "fc", "other"}) {
      const double ms = secs[k] * 1e3 / static_cast<double>(n);
      total_ms += ms;
      r.set(prefix + k + "_ms", ms, "ms");
    }
    r.set(prefix + "conv_gflops",
          frac(2.0 * static_cast<double>(conv_macs) * static_cast<double>(n),
               secs["conv"]) / 1e9,
          "GFLOP/s");
    if (fp16) r.set("mvnc.overhead_ms_per_img", fp16_classify_ms_per_img - total_ms, "ms");
  }
  // Threading pathology: one engine thread per CPU vs one thread, FP32,
  // with the one-CPU pin lifted.
  tensor::TensorF blob(item.with_batch(std::min<std::int64_t>(n, 8)));
  for (std::int64_t j = 0; j < blob.shape().n; ++j) {
    const auto& in = inputs[static_cast<std::size_t>(j)];
    std::copy(in.data(), in.data() + in.numel(), blob.batch_ptr(j));
  }
  std::vector<double> wall(2);
  const Unpinned unpinned;
  const int fanout = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int pass = 0; pass < 6; ++pass) {
    nn::ExecOptions eo;
    eo.threads = pass % 2 == 0 ? 1 : fanout;
    const double t0 = now_s();
    (void)nn::run_forward(bundle.graph, bundle.weights_f32, blob, eo);
    wall[static_cast<std::size_t>(pass % 2)] += now_s() - t0;
  }
  r.set("nn.threads_speedup", frac(wall[0], wall[1]), "ratio");
}

/// Per-image costs of the functional path's layers, from the traced
/// rounds' spans.
void report_functional_layers(Result& r, double images) {
  const auto per_img_ms = [&](const char* span) {
    return spans().total_s(span) * 1e3 / images;
  };
  r.set("dataset.gen_ms_per_img", per_img_ms("dataset.gen"), "ms");
  r.set("imgproc.prep_ms_per_img", per_img_ms("imgproc.prep"), "ms");
  r.set("nn.fp32_ms_per_img", per_img_ms("nn.fp32_classify"), "ms");
  r.set("mvnc.fp16_ms_per_img", per_img_ms("mvnc.fp16_classify"), "ms");
}

double span_ms_each(const char* name) {
  const auto n = spans().count(name);
  return n > 0 ? spans().total_s(name) * 1e3 / static_cast<double>(n) : 0.0;
}

/// The functional canary of the serving workloads: a fixed, seed-
/// independent 80-image slice of the default synthetic dataset classified
/// on CPU (FP32) and 4 sticks (FP16), so every workload reports the
/// functional metrics and checks its kernels against a recorded digest.
/// Timed outside setup_s and host_req_per_s.
void run_canary(Result& r, const Options& opt) {
  spans().set_scope(opt.workload + "/canary");
  Fig7Rig rig = fig7_setup(dataset::DatasetConfig{});
  ClassifyPass pass = classify_pass(rig, 16, /*seed=*/0, false);
  report_functional(r, pass);
  r.digests["canary_labels"] = label_digest(pass, opt);
  r.attempted += 2 * static_cast<std::int64_t>(pass.cpu.items.size());
}

// ---- cluster-ladder ------------------------------------------------------

constexpr int kClusterNodes = 8;
constexpr int kClusterSticks = 8;
constexpr int kClusterModels = 16;
/// Each rung is four independent 10 000-request segments (each with its
/// own node-1 crash) pooled: one crash episode's queue dynamics move a
/// single trace's p50 by ~10 % from seed to seed, whatever its length.
constexpr int kClusterSegments = 4;
constexpr std::int64_t kClusterRequests = 10000;  ///< per segment

struct ClusterRig {
  std::shared_ptr<const core::ModelBundle> bundle;
  double cpu_tput = 0.0, gpu_tput = 0.0, vpu_tput = 0.0;
  double capacity = 0.0;  ///< calibrated batch-8 req/s of the 8 nodes
  std::vector<std::vector<std::vector<serve::Request>>> traces;  ///< [rung][segment]
};

cluster::ClusterConfig cluster_config(double span_s) {
  cluster::ClusterConfig cfg;
  cfg.node.queue_capacity = 32;
  cfg.node.max_batch = 8;
  cfg.node.batch_timeout_s = 0.050;
  cfg.node.inflight_window = 2;
  cfg.node.trace_requests = false;
  cfg.trace_requests = false;
  cfg.replication = 2;
  cfg.models = kClusterModels;
  // Node 1 crashes for the middle quarter of the segment.
  cfg.faults.add(/*device=*/1, sim::FaultKind::kNodeCrash, 0.375 * span_s,
                 0.25 * span_s);
  return cfg;
}

std::vector<serve::Request> cluster_trace(std::int64_t n, double rate,
                                          std::uint64_t seed) {
  serve::PoissonArrivals arrivals(rate, mix_seed(seed, 1));
  util::Xoshiro256 mix(mix_seed(seed, 2));
  std::vector<serve::Request> trace(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    auto& req = trace[static_cast<std::size_t>(i)];
    req.id = i;
    req.arrival_s = arrivals.next();
    req.slo = draw_slo(mix);
    req.tag = "m" + std::to_string(mix.uniform_int(0, kClusterModels - 1));
  }
  return trace;
}

struct ClusterRun {
  cluster::ClusterReport report;
  double wall_s = 0.0;
};

ClusterRun run_cluster_rung(const ClusterRig& rig,
                            const std::vector<serve::Request>& trace) {
  std::vector<std::unique_ptr<core::HostTarget>> hosts;
  {
    Scope s("core.host_targets");
    for (int n = 0; n < kClusterNodes; ++n) {
      hosts.push_back(core::make_cpu_target(rig.bundle));
      hosts.push_back(core::make_gpu_target(rig.bundle));
    }
  }
  core::VpuTargetConfig vcfg;
  vcfg.devices = kClusterSticks;
  std::unique_ptr<core::VpuTarget> vpu;
  {
    Scope s("mvnc.open");
    vpu = std::make_unique<core::VpuTarget>(rig.bundle, vcfg);
  }
  std::vector<std::vector<core::Target*>> nodes(kClusterNodes);
  for (int n = 0; n < kClusterNodes; ++n) {
    nodes[static_cast<std::size_t>(n)] = {hosts[static_cast<std::size_t>(2 * n)].get(),
                                          hosts[static_cast<std::size_t>(2 * n + 1)].get()};
  }
  nodes[0].push_back(vpu.get());
  cluster::Cluster cl(std::move(nodes), cluster_config(trace.back().arrival_s));
  ClusterRun run;
  const double t0 = now_s();
  {
    Scope s("cluster.run");
    run.report = cl.run(trace);
  }
  run.wall_s = now_s() - t0;
  return run;
}

ClusterRig cluster_setup(const Options& opt) {
  ClusterRig rig;
  {
    Scope s("core.bundle");
    rig.bundle = core::ModelBundle::googlenet_reference();
  }
  {
    auto cpu = core::make_cpu_target(rig.bundle);
    auto gpu = core::make_gpu_target(rig.bundle);
    core::VpuTargetConfig vcfg;
    vcfg.devices = kClusterSticks;
    std::unique_ptr<core::VpuTarget> vpu;
    {
      Scope s("mvnc.open");
      vpu = std::make_unique<core::VpuTarget>(rig.bundle, vcfg);
    }
    Scope s("core.calibrate");
    rig.cpu_tput = cpu->run_timed(1000, 8).throughput();
    rig.gpu_tput = gpu->run_timed(1000, 8).throughput();
    rig.vpu_tput = vpu->run_timed(1000, 8).throughput();
  }
  rig.capacity = kClusterNodes * (rig.cpu_tput + rig.gpu_tput) + rig.vpu_tput;
  for (int g = 0; g < kRungs; ++g) {
    rig.traces.emplace_back();
    for (int seg = 0; seg < kClusterSegments; ++seg) {
      const auto salt = static_cast<std::uint64_t>(100 + kClusterSegments * g + seg);
      rig.traces.back().push_back(
          cluster_trace(kClusterRequests, kRungLoad[g] * rig.capacity, mix_seed(opt.seed, salt)));
    }
  }
  // Warm-up: a short nominal-rate run.
  (void)run_cluster_rung(rig, cluster_trace(1000, kRungLoad[kNominal] * rig.capacity,
                                            mix_seed(opt.seed, 99)));
  return rig;
}

std::string cluster_fingerprint(const cluster::ClusterReport& r) {
  std::string fp = std::to_string(r.completed) + "/" + std::to_string(r.rejected) +
                   "/" + std::to_string(r.dropped_deadline) + "/" +
                   std::to_string(r.requests_lost) + "/" +
                   std::to_string(r.requests_replayed) + "/" +
                   std::to_string(r.requests_hedged) + "/" +
                   std::to_string(r.requests_spilled) + "/" +
                   std::to_string(r.duplicate_completions) + "/" +
                   full_digits(r.last_complete_s);
  std::uint64_t h = fnv1a(fp);
  for (const auto& rec : r.records) {
    h = fnv1a(std::to_string(static_cast<int>(rec.state)) + full_digits(rec.finish_s) +
                  std::to_string(rec.node),
              h);
  }
  return hex(h);
}

/// One rung from its segments' reports. Percentiles come from the pooled
/// ClusterRecords (not the report's own percentile code), joined to the
/// trace's SLO class.
Rung cluster_rung(const std::vector<cluster::ClusterReport>& reps,
                  const std::vector<std::vector<serve::Request>>& traces,
                  double rate, Result& r, const Options& opt, int g) {
  Rung rung;
  rung.rate = rate;
  std::vector<double> lat, lat_interactive;
  double makespan = 0.0;
  for (std::size_t seg = 0; seg < reps.size(); ++seg) {
    const auto& rep = reps[seg];
    const auto& trace = traces[seg];
    for (const auto& rec : rep.records) {
      if (rec.state != cluster::RequestState::kCompleted) continue;
      const double ms = (rec.finish_s - rec.arrival_s) * 1e3;
      lat.push_back(ms);
      if (trace.at(static_cast<std::size_t>(rec.id)).slo == serve::SloClass::kInteractive) {
        lat_interactive.push_back(ms);
      }
    }
    makespan += rep.makespan_s();
    rung.offered += rep.offered;

    std::int64_t done = rep.completed;
    std::int64_t lost = rep.requests_lost;
    if (opt.sabotage == "conservation") done += 1;
    if (opt.sabotage == "lost") lost += 1;
    const std::string tag = "rung" + std::to_string(g) + "-seg" + std::to_string(seg);
    const bool conserved =
        rep.offered == static_cast<std::int64_t>(trace.size()) &&
        static_cast<std::int64_t>(rep.records.size()) == rep.offered &&
        rep.offered == done + rep.rejected + rep.dropped_deadline + lost;
    r.check(tag + "-conservation", conserved,
            "offered " + std::to_string(rep.offered) + " = completed " +
                std::to_string(done) + " + rejected " +
                std::to_string(rep.rejected) + " + deadline " +
                std::to_string(rep.dropped_deadline) + " + lost " +
                std::to_string(lost));
    r.check(tag + "-zero-lost", lost == 0,
            std::to_string(lost) + " requests lost through the node-1 crash");
    rung.completed += rep.completed;
    r.failed += lost;
  }
  rung.goodput = frac(static_cast<double>(rung.completed), makespan);
  rung.p50_ms = util::percentile(lat, 50.0);
  rung.p99_ms = util::percentile(lat, 99.0);
  rung.p999_ms = util::percentile(lat, 99.9);
  rung.p99_interactive_ms = util::percentile(lat_interactive, 99.0);
  return rung;
}

void cluster_layers(Result& r, const cluster::ClusterReport& nom,
                    const ClusterRig& rig, double traced_requests,
                    double rss_delta_mb, double round_host_images,
                    double round_vpu_images) {
  // Simulated-clock serving counters of the nominal rung's first segment.
  std::vector<double> waits;
  double images = 0.0, batches = 0.0;
  double busy[3] = {0.0, 0.0, 0.0};
  double count[3] = {0.0, 0.0, 0.0};
  for (const auto& node : nom.nodes) {
    for (const auto& rec : node.serve.records) {
      if (rec.outcome == serve::Outcome::kCompleted) waits.push_back(rec.queue_wait_s() * 1e3);
    }
    for (std::size_t t = 0; t < node.serve.targets.size(); ++t) {
      const auto& ts = node.serve.targets[t];
      images += static_cast<double>(ts.images);
      batches += static_cast<double>(ts.batches);
      busy[std::min<std::size_t>(t, 2)] += ts.busy_s;
      count[std::min<std::size_t>(t, 2)] += 1.0;
    }
  }
  const double makespan = nom.makespan_s();
  const auto offered = static_cast<double>(nom.offered);
  r.set("serve.queue_wait_p99_ms", util::percentile(waits, 99.0), "ms");
  r.set("serve.batch_mean", frac(images, batches), "count");
  r.set("serve.busy_frac.cpu", frac(busy[0], count[0] * makespan), "ratio");
  r.set("serve.busy_frac.gpu", frac(busy[1], count[1] * makespan), "ratio");
  r.set("serve.busy_frac.vpu", frac(busy[2], count[2] * makespan), "ratio");
  r.set("cluster.replayed_frac", frac(static_cast<double>(nom.requests_replayed), offered), "ratio");
  r.set("cluster.hedged_frac", frac(static_cast<double>(nom.requests_hedged), offered), "ratio");
  r.set("cluster.spilled_frac", frac(static_cast<double>(nom.requests_spilled), offered), "ratio");
  r.set("cluster.rejected_frac", frac(static_cast<double>(nom.rejected), offered), "ratio");
  r.set("cluster.dup_frac",
        frac(static_cast<double>(nom.duplicate_completions), static_cast<double>(nom.completed)),
        "ratio");

  // Host-clock layer costs from the spans and isolated calls.
  double vpu_us = 0.0, host_us = 0.0;
  {
    core::VpuTargetConfig vcfg;
    vcfg.devices = kClusterSticks;
    core::VpuTarget vpu(rig.bundle, vcfg);
    auto cpu = core::make_cpu_target(rig.bundle);
    vpu_us = isolated_us_per_img(vpu, 8, 400, "core.vpu_submit_wait");
    host_us = isolated_us_per_img(*cpu, 8, 400, "devices.host_submit_wait");
  }
  r.set("core.vpu_us_per_img", vpu_us, "us");
  r.set("devices.host_us_per_img", host_us, "us");
  // Loop self time: run wall minus the targets' images at their isolated
  // submit+wait cost (every round serves the same four rungs).
  const double iso_s = (round_host_images * host_us + round_vpu_images * vpu_us) * 1e-6;
  const double run_s = spans().total_s("cluster.run");
  const double rounds_traced =
      static_cast<double>(spans().count("cluster.run")) / (kRungs * kClusterSegments);
  r.set("cluster.us_per_req", run_s * 1e6 / traced_requests, "us");
  r.set("cluster.loop_self_us_per_req",
        (run_s - iso_s * rounds_traced) * 1e6 / traced_requests, "us");
  r.set("cluster.rss_mb_per_100k_req",
        rss_delta_mb * 1e5 / static_cast<double>(kClusterRequests), "MB");
  r.set("mvnc.open_ms", span_ms_each("mvnc.open"), "ms");
  r.set("graphc.compile_ms", isolated_compile_ms(rig.bundle->graph), "ms");
}

// ---- zoo-ladder ----------------------------------------------------------

constexpr int kZooSticks = 4;
constexpr std::int64_t kZooRequests = 10000;  ///< per rung
const std::vector<std::string> kZooNets = {"googlenet", "squeezenet", "alexnet", "tiny"};
/// Zipf exponent of the tenant mix over the 8 tenants (rank order below).
constexpr double kZooZipf = 0.5;
constexpr double kZooDeadlineS = 3.0;

struct ZooRig {
  std::vector<core::ZooModel> zoo;  ///< 8 tenants: each network twice
  double hot_tput = 0.0;
  double capacity = 0.0;  ///< 4 sticks x the hot model's req/s
  double max_swap_s = 0.0;  ///< costliest calibrated swap-in (alexnet)
  std::vector<std::vector<serve::ZooRequest>> traces;
};

serve::ZooConfig zoo_config() {
  serve::ZooConfig cfg;
  cfg.residency.placement = serve::Placement::kCostAware;
  cfg.queue_capacity = 96;
  cfg.max_batch = 4;
  cfg.queue_deadline_s = kZooDeadlineS;
  return cfg;
}

std::vector<serve::ZooRequest> zoo_trace(std::int64_t n, double rate,
                                         std::uint64_t seed, int tenants) {
  std::vector<double> cdf(static_cast<std::size_t>(tenants));
  double total = 0.0;
  for (int k = 0; k < tenants; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZooZipf);
    cdf[static_cast<std::size_t>(k)] = total;
  }
  serve::PoissonArrivals arrivals(rate, mix_seed(seed, 1));
  util::Xoshiro256 mix(mix_seed(seed, 2));
  std::vector<serve::ZooRequest> trace(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    auto& req = trace[static_cast<std::size_t>(i)];
    req.id = i;
    req.arrival_s = arrivals.next();
    const double u = mix.uniform() * total;
    req.model = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    req.model = std::min(req.model, tenants - 1);
    req.slo = draw_slo(mix);
  }
  return trace;
}

std::unique_ptr<core::StickFleet> open_fleet(const ZooRig& rig) {
  core::StickFleetConfig fcfg;
  fcfg.devices = kZooSticks;
  Scope s("stick_fleet.open");
  return std::make_unique<core::StickFleet>(rig.zoo, fcfg);
}

struct ZooRun {
  serve::ZooReport report;
  double wall_s = 0.0;
};

ZooRun run_zoo_rung(const ZooRig& rig, const std::vector<serve::ZooRequest>& trace) {
  auto fleet = open_fleet(rig);
  serve::ZooServer server(*fleet, zoo_config());
  ZooRun run;
  const double t0 = now_s();
  {
    Scope s("zoo.run");
    run.report = server.run(trace);
  }
  run.wall_s = now_s() - t0;
  return run;
}

ZooRig zoo_setup(const Options& opt) {
  ZooRig rig;
  {
    Scope s("core.bundle");
    for (const char* copy : {"a", "b"}) {
      for (const auto& net : kZooNets) {
        rig.zoo.push_back({net + "-" + copy, core::ModelBundle::zoo_reference(net)});
      }
    }
  }
  {
    auto fleet = open_fleet(rig);
    Scope s("core.calibrate");
    rig.hot_tput = fleet->stick(0).run_timed(64, 1).throughput();
    for (int m = 0; m < fleet->models(); ++m) {
      rig.max_swap_s = std::max(rig.max_swap_s, fleet->swap_in_cost_s(m));
    }
  }
  rig.capacity = kZooSticks * rig.hot_tput;
  const int tenants = static_cast<int>(rig.zoo.size());
  for (int g = 0; g < kRungs; ++g) {
    rig.traces.push_back(zoo_trace(kZooRequests, kRungLoad[g] * rig.capacity,
                                   mix_seed(opt.seed, 200 + static_cast<std::uint64_t>(g)),
                                   tenants));
  }
  (void)run_zoo_rung(rig, zoo_trace(800, kRungLoad[kNominal] * rig.capacity,
                                    mix_seed(opt.seed, 199), tenants));
  return rig;
}

std::string zoo_fingerprint(const serve::ZooReport& r) {
  std::string fp = std::to_string(r.completed) + "/" + std::to_string(r.rejected) +
                   "/" + std::to_string(r.dropped) + "/" + std::to_string(r.hits) +
                   "/" + std::to_string(r.misses) + "/" + std::to_string(r.swaps) +
                   "/" + full_digits(r.swap_stall_s) + "/" + full_digits(r.p50_ms) + "/" +
                   full_digits(r.p99_ms) + "/" + full_digits(r.latency_ms.max()) + "/" +
                   full_digits(r.last_complete_s);
  for (const auto& c : r.classes) fp += "|" + std::to_string(c.completed) + "/" + full_digits(c.p99_ms);
  return hex(fnv1a(fp));
}

Rung zoo_rung(const serve::ZooReport& rep, double rate, Result& r,
              const Options& opt, int g) {
  Rung rung;
  rung.rate = rate;
  rung.offered = rep.offered;
  rung.goodput = rep.goodput();
  rung.p50_ms = rep.p50_ms;
  rung.p99_ms = rep.p99_ms;
  // ZooReport keeps no per-request records: the worst completed latency
  // stands in for p999 (an upper bound on it).
  rung.p999_ms = rep.latency_ms.count() > 0 ? rep.latency_ms.max() : 0.0;
  rung.p99_interactive_ms =
      rep.classes[static_cast<std::size_t>(serve::SloClass::kInteractive)].p99_ms;
  std::int64_t hits = rep.hits;
  std::int64_t installs = rep.installs;
  if (opt.sabotage == "conservation") hits += 1;
  if (opt.sabotage == "residency") installs += 1;
  const std::string tag = "rung" + std::to_string(g);
  const bool conserved =
      rep.offered == rep.completed + rep.rejected + rep.dropped &&
      hits + rep.misses == rep.accepted;
  const bool resident = installs - rep.evicts == rep.resident;
  r.check(tag + "-conservation", conserved,
          "offered " + std::to_string(rep.offered) + " = completed + rejected + dropped; hits " +
              std::to_string(hits) + " + misses " + std::to_string(rep.misses) +
              " = accepted " + std::to_string(rep.accepted));
  r.check(tag + "-residency", resident,
          "installs " + std::to_string(installs) + " - evicts " +
              std::to_string(rep.evicts) + " = resident " + std::to_string(rep.resident));
  rung.completed = rep.completed;
  return rung;
}

// ---- fig7-classify -------------------------------------------------------

constexpr int kFig7PerSubset = 300;  ///< x 5 subsets per round
constexpr std::int64_t kFig7LadderRequests = 40000;  ///< per rung

/// The Fig. 7 targets served on the simulated clock: a serve::Server over
/// fresh CPU + 4-stick VPU targets of the functional bundle, fed the same
/// SLO-mixed open-loop ladder as the serving workloads. Gives the
/// workload its sim_* metrics; its host cost is outside host_req_per_s.
std::vector<Rung> fig7_ladder(const std::shared_ptr<const core::ModelBundle>& bundle,
                              Result& r, const Options& opt, std::string& digest) {
  core::VpuTargetConfig vcfg;
  vcfg.devices = kFig7Sticks;
  double capacity = 0.0;
  {
    auto cpu = core::make_cpu_target(bundle);
    core::VpuTarget vpu(bundle, vcfg);
    capacity = cpu->run_timed(1000, 8).throughput() +
               vpu.run_timed(1000, kFig7Sticks).throughput();
  }
  std::vector<Rung> rungs;
  std::string fp;
  for (int g = 0; g < kRungs; ++g) {
    const double rate = kRungLoad[g] * capacity;
    serve::PoissonArrivals arrivals(rate, mix_seed(opt.seed, 300 + static_cast<std::uint64_t>(g)));
    util::Xoshiro256 mix(mix_seed(opt.seed, 310 + static_cast<std::uint64_t>(g)));
    std::vector<serve::Request> trace(static_cast<std::size_t>(kFig7LadderRequests));
    for (std::int64_t i = 0; i < kFig7LadderRequests; ++i) {
      auto& req = trace[static_cast<std::size_t>(i)];
      req.id = i;
      req.arrival_s = arrivals.next();
      req.slo = draw_slo(mix);
    }
    auto cpu = core::make_cpu_target(bundle);
    core::VpuTarget vpu(bundle, vcfg);
    serve::ServerConfig scfg;
    scfg.queue_capacity = 1024;
    scfg.max_batch = 8;
    scfg.inflight_window = 2;
    scfg.trace_requests = false;
    serve::Server server({cpu.get(), &vpu}, scfg);
    const serve::ServeReport rep = server.run(trace);
    Rung rung;
    rung.rate = rate;
    rung.offered = rep.offered;
    rung.goodput = rep.goodput();
    std::vector<double> lat, lat_interactive;
    for (const auto& rec : rep.records) {
      if (rec.outcome != serve::Outcome::kCompleted) continue;
      lat.push_back(rec.latency_s() * 1e3);
      if (rec.request.slo == serve::SloClass::kInteractive) lat_interactive.push_back(rec.latency_s() * 1e3);
    }
    rung.p50_ms = util::percentile(lat, 50.0);
    rung.p99_ms = util::percentile(lat, 99.0);
    rung.p999_ms = util::percentile(lat, 99.9);
    rung.p99_interactive_ms = util::percentile(lat_interactive, 99.0);
    std::int64_t completed = rep.completed;
    if (opt.sabotage == "conservation") completed += 1;
    const bool conserved = rep.offered == completed + rep.rejected + rep.dropped;
    r.check("rung" + std::to_string(g) + "-conservation", conserved,
            "offered " + std::to_string(rep.offered) + " = completed " +
                std::to_string(completed) + " + rejected " + std::to_string(rep.rejected) +
                " + dropped " + std::to_string(rep.dropped));
    rung.completed = rep.completed;
    fp += std::to_string(rep.completed) + "/" + std::to_string(rep.rejected) + "/" +
          full_digits(rep.last_complete_s) + "/" + full_digits(rung.p99_ms) + ";";
    rungs.push_back(rung);
  }
  digest = hex(fnv1a(fp));
  return rungs;
}

}  // namespace

// ---- entry points --------------------------------------------------------

Result run_cluster_ladder(const Options& opt) {
  Result r;
  std::optional<ClusterRig> rig;
  const auto setup = [&] { return cluster_setup(opt); };
  std::vector<double> setup_secs;
  repeat_setup(opt, setup_reps_before(opt), rig, setup, setup_secs);

  double vpu_tput = rig->vpu_tput;
  if (opt.sabotage == "anchor") vpu_tput *= 1.05;
  r.check("calibration-fig6a-anchor", std::abs(vpu_tput / kFig6aVpuAnchor - 1.0) < 0.01,
          "8-stick batch-8 VPU throughput " + full_digits(vpu_tput) + " img/s vs the paper's 77.2");

  std::vector<Rung> rungs;
  std::optional<cluster::ClusterReport> nominal;
  // One round's target work: images served by host targets and the VPU.
  double round_host_images = 0.0, round_vpu_images = 0.0;
  // Growth of the peak RSS over the first round: what one Cluster::run's
  // records and reports add on top of set-up.
  const double rss_before = peak_rss_mb();
  double rss_delta = 0.0;
  const Rounds rounds = run_rounds(opt, opt.workload, [&](int k) {
    RoundOut out;
    std::string fp;
    for (int g = 0; g < kRungs; ++g) {
      const auto& traces = rig->traces[static_cast<std::size_t>(g)];
      Scope rung_span("rung");
      std::vector<cluster::ClusterReport> reports;
      Unit unit;  // the rung's four segments
      for (std::size_t seg = 0; seg < traces.size(); ++seg) {
        spans().set_scope(opt.workload + "/round" + std::to_string(k) + "/rung" +
                          std::to_string(g) + "/seg" + std::to_string(seg));
        ClusterRun run = run_cluster_rung(*rig, traces[seg]);
        unit.work += static_cast<double>(run.report.offered);
        unit.wall_s += run.wall_s;
        fp += cluster_fingerprint(run.report);
        if (k == 0) {
          for (const auto& node : run.report.nodes) {
            for (std::size_t t = 0; t < node.serve.targets.size(); ++t) {
              (t == 2 ? round_vpu_images : round_host_images) +=
                  static_cast<double>(node.serve.targets[t].images);
            }
          }
          rss_delta = std::max(rss_delta, peak_rss_mb() - rss_before);
          reports.push_back(std::move(run.report));
        }
      }
      unit.probe_s = host_probe_s();
      out.units.push_back(unit);
      if (k == 0) {
        rungs.push_back(cluster_rung(reports, traces, kRungLoad[g] * rig->capacity, r, opt, g));
        if (g == kNominal) nominal = std::move(reports.front());
      }
    }
    out.fingerprint = hex(fnv1a(fp));
    return out;
  });
  r.digests["sim"] = ladder_digest(rungs);
  report_ladder(r, rungs, kP99LimitMs, opt);

  if (opt.trace) {
    spans().set_enabled(true);
    spans().set_scope(opt.workload + "/layers");
    cluster_layers(r, *nominal, *rig, rounds.work[1], rss_delta, round_host_images,
                   round_vpu_images);
    // Verifier cost: one round's rungs with NCSW_CHECK=strict vs off.
    double wall[2] = {0.0, 0.0};
    for (int strict = 0; strict < 2; ++strict) {
      check::set_default_mode(strict ? check::CheckMode::kStrict : check::CheckMode::kOff);
      for (const auto& rung : rig->traces) {
        for (const auto& trace : rung) wall[strict] += run_cluster_rung(*rig, trace).wall_s;
      }
    }
    check::set_default_mode(check::CheckMode::kDefault);
    r.set("check.strict_slowdown", frac(wall[1], wall[0]), "ratio");
    spans().set_enabled(false);
  }
  repeat_setup(opt, setup_reps_after(opt), rig, setup, setup_secs);
  report_host(r, rounds, setup_secs, opt);
  rig.reset();
  run_canary(r, opt);
  return r;
}

Result run_zoo_ladder(const Options& opt) {
  Result r;
  std::optional<ZooRig> rig;
  const auto setup = [&] { return zoo_setup(opt); };
  std::vector<double> setup_secs;
  repeat_setup(opt, setup_reps_before(opt), rig, setup, setup_secs);

  std::vector<Rung> rungs;
  std::optional<serve::ZooReport> nominal;
  // One round's isolated work: completed requests and swaps per model.
  std::int64_t round_completed = 0;
  std::vector<std::int64_t> round_swaps_in(rig->zoo.size(), 0);
  const Rounds rounds = run_rounds(opt, opt.workload, [&](int k) {
    RoundOut out;
    std::string fp;
    for (int g = 0; g < kRungs; ++g) {
      spans().set_scope(opt.workload + "/round" + std::to_string(k) + "/rung" + std::to_string(g));
      Scope rung_span("rung");
      ZooRun run = run_zoo_rung(*rig, rig->traces[static_cast<std::size_t>(g)]);
      out.units.push_back({static_cast<double>(run.report.offered), run.wall_s, host_probe_s()});
      fp += zoo_fingerprint(run.report);
      if (k == 0) {
        rungs.push_back(zoo_rung(run.report, kRungLoad[g] * rig->capacity, r, opt, g));
        round_completed += run.report.completed;
        for (std::size_t m = 0; m < run.report.models.size(); ++m) {
          round_swaps_in[m] += run.report.models[m].swaps_in;
        }
        if (g == kNominal) nominal = std::move(run.report);
      }
    }
    out.fingerprint = hex(fnv1a(fp));
    return out;
  });
  r.digests["sim"] = ladder_digest(rungs);
  // A zoo request may pay one worst-case swap-in on top of the limit:
  // alexnet's calibrated ~1.4 s swap alone exceeds 500 ms.
  report_ladder(r, rungs, kP99LimitMs + 1e3 * rig->max_swap_s, opt);

  if (opt.trace) {
    const double traced_requests = rounds.work[1];
    spans().set_enabled(true);
    spans().set_scope(opt.workload + "/layers");
    const auto& nom = *nominal;
    const auto offered = static_cast<double>(nom.offered);
    r.set("residency.hit_rate", nom.hit_rate(), "ratio");
    r.set("residency.swaps_per_1k_req", frac(1e3 * static_cast<double>(nom.swaps), offered), "count");
    r.set("residency.swap_stall_frac", frac(nom.swap_stall_s, nom.makespan_s() * kZooSticks),
          "ratio");
    // Isolated costs on a fresh fleet: one stick's submit+wait per image,
    // and swap_to(m) per model (alternating with a cheap model on stick 0).
    double stick_us = 0.0;
    std::vector<double> swap_in_us;
    {
      auto fleet = open_fleet(*rig);
      stick_us = isolated_us_per_img(fleet->stick(0), 1, 400, "core.vpu_submit_wait");
      const int cheap = fleet->models() - 1;  // tiny-b
      double now = 0.0;
      for (int m = 0; m < fleet->models(); ++m) {
        double secs = 0.0;
        for (int i = 0; i < 8; ++i) {
          now = fleet->swap_to(0, m == cheap ? 0 : cheap, now);
          const double t0 = now_s();
          Scope s("stick_fleet.swap_to");
          now = fleet->swap_to(0, m, now);
          secs += now_s() - t0;
        }
        swap_in_us.push_back(secs * 1e6 / 8.0);
      }
    }
    // Weighted by the swaps the measured rounds performed.
    double swap_us_total = 0.0, iso_s = 0.0;
    for (std::size_t m = 0; m < swap_in_us.size(); ++m) {
      swap_us_total += static_cast<double>(round_swaps_in[m]) * swap_in_us[m];
    }
    iso_s = (static_cast<double>(round_completed) * stick_us + swap_us_total) * 1e-6;
    std::int64_t swaps = 0;
    for (const auto n : round_swaps_in) swaps += n;
    r.set("core.vpu_us_per_img", stick_us, "us");
    r.set("stick_fleet.swap_us", frac(swap_us_total, static_cast<double>(swaps)), "us");
    const double run_s = spans().total_s("zoo.run");
    const double rounds_traced = static_cast<double>(spans().count("zoo.run")) / kRungs;
    r.set("zoo.us_per_req", run_s * 1e6 / traced_requests, "us");
    r.set("zoo.loop_self_us_per_req", (run_s - iso_s * rounds_traced) * 1e6 / traced_requests,
          "us");
    r.set("stick_fleet.open_ms", span_ms_each("stick_fleet.open"), "ms");
    r.set("graphc.compile_ms", isolated_compile_ms(rig->zoo.front().bundle->graph), "ms");
    double wall[2] = {0.0, 0.0};
    for (int strict = 0; strict < 2; ++strict) {
      check::set_default_mode(strict ? check::CheckMode::kStrict : check::CheckMode::kOff);
      for (const auto& trace : rig->traces) wall[strict] += run_zoo_rung(*rig, trace).wall_s;
    }
    check::set_default_mode(check::CheckMode::kDefault);
    r.set("check.strict_slowdown", frac(wall[1], wall[0]), "ratio");
    spans().set_enabled(false);
  }
  repeat_setup(opt, setup_reps_after(opt), rig, setup, setup_secs);
  report_host(r, rounds, setup_secs, opt);
  rig.reset();
  run_canary(r, opt);
  return r;
}

Result run_fig7_classify(const Options& opt) {
  Result r;
  // The paper's layout (5 subsets of 10000) from the dataset's own fixed
  // seed, so the bundle fitted to it is the same for every run; the run's
  // seed picks the image windows.
  std::optional<Fig7Rig> rig;
  const auto setup = [] { return fig7_setup(dataset::DatasetConfig{}); };
  std::vector<double> setup_secs;
  repeat_setup(opt, setup_reps_before(opt), rig, setup, setup_secs);

  std::optional<ClassifyPass> first;
  const Rounds rounds = run_rounds(opt, opt.workload, [&](int k) {
    // Round 0 is untimed: it also keeps its inputs for the kernel profile.
    ClassifyPass pass = classify_pass(*rig, kFig7PerSubset, opt.seed, k == 0 && opt.trace);
    RoundOut out;
    out.units = pass.units;
    out.fingerprint = label_digest(pass, Options{});
    if (k == 0) first = std::move(pass);
    return out;
  });
  report_functional(r, *first);
  r.digests["labels"] = label_digest(*first, opt);
  const auto images = static_cast<std::int64_t>(first->cpu.items.size());

  if (opt.trace) {
    spans().set_enabled(true);
    spans().set_scope(opt.workload + "/layers");
    report_functional_layers(r, rounds.work[1] / 2.0);
    r.set("nn.weights_ms", span_ms_each("nn.weights"), "ms");
    r.set("dataset.init_ms", span_ms_each("dataset.init"), "ms");
    r.set("mvnc.open_ms", span_ms_each("mvnc.open"), "ms");
    r.set("graphc.compile_ms", isolated_compile_ms(rig->bundle->graph), "ms");
    std::vector<tensor::TensorF> sample(first->inputs.begin(),
                                        first->inputs.begin() + std::min<std::ptrdiff_t>(64, images));
    report_kernel_profile(r, *rig->bundle, sample,
                          r.metrics["mvnc.fp16_ms_per_img"].value);
    r.set("core.vpu_us_per_img",
          isolated_us_per_img(rig->app->target(1), kFig7Sticks, 400, "core.vpu_submit_wait"), "us");
    r.set("devices.host_us_per_img",
          isolated_us_per_img(rig->app->target(0), 8, 400, "devices.host_submit_wait"), "us");
    double wall[2] = {0.0, 0.0};
    for (int strict = 0; strict < 2; ++strict) {
      check::set_default_mode(strict ? check::CheckMode::kStrict : check::CheckMode::kOff);
      const double t0 = now_s();
      (void)classify_pass(*rig, kFig7PerSubset / 4, opt.seed, false);
      wall[strict] = now_s() - t0;
    }
    check::set_default_mode(check::CheckMode::kDefault);
    r.set("check.strict_slowdown", frac(wall[1], wall[0]), "ratio");
    spans().set_enabled(false);
  }
  repeat_setup(opt, setup_reps_after(opt), rig, setup, setup_secs);
  report_host(r, rounds, setup_secs, opt);
  // The ladder needs the only mvnc fleet: close the rig's sticks first.
  const auto bundle = rig->bundle;
  rig.reset();
  std::string sim_digest;
  const std::vector<Rung> rungs = fig7_ladder(bundle, r, opt, sim_digest);
  r.digests["sim"] = sim_digest;
  r.attempted += static_cast<std::int64_t>(rungs.size()) * kFig7LadderRequests;
  report_ladder(r, rungs, kP99LimitMs, opt);
  // ok_frac of fig7-classify counts classifications, not ladder requests:
  // every image is classified on both targets (run.py reports 0 when a
  // check failed).
  r.set("ok_frac", 1.0, "ratio");
  return r;
}

}  // namespace perfbench
