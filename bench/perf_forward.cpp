// Wall-clock performance of the host inference engine (not a paper
// figure): images/s of the functional TinyGoogLeNet forward pass for
// FP32 and FP16, on the pre-PR reference kernels (the recorded
// baseline), on the cache-tuned kernels at 1 and N threads, and on the
// opt-in fast tier (fused conv+bias+ReLU, direct 3x3/1x1 convolution,
// int8 FC, affinity-pinned chunking; docs/performance.md). The
// reference/optimised cells are bit-identical and differ only in time;
// the fast cells forfeit bit-identity, so the report also records their
// top-1 agreement and mean confidence delta against the bit-identical
// path (the paper's fig7 FP16-vs-FP32 methodology).
//
// The report (BENCH_perf_forward.json) is the one ncsw-bench-v1 report
// on the *wall* clock: values record img/s per cell, the speedup ratios
// and per-layer milliseconds of the optimised configuration. With
// --trace the profiled passes emit one "host" span per layer, so
// ncsw_profile-style viewers show where the time went.
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "bench_common.h"
#include "core/model.h"
#include "dataset/synthetic.h"
#include "nn/executor.h"
#include "nn/quant.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Cell {
  std::string name;      // e.g. "fp16 opt tN"
  double img_per_s = 0;
  double seconds = 0;
  std::int64_t images = 0;
};

// Deterministic input batch (same fill as the golden tests, so every
// timed cell computes the exact same tensors).
template <typename T>
ncsw::tensor::Tensor<T> make_input(const ncsw::nn::Graph& graph,
                                   std::int64_t batch) {
  const auto shape =
      graph.layer(graph.input_id()).out_shape.with_batch(batch);
  ncsw::tensor::TensorF in(shape);
  for (std::int64_t i = 0; i < in.numel(); ++i) {
    in[i] = 0.01f * static_cast<float>(i % 97) - 0.3f;
  }
  return ncsw::tensor::tensor_cast<T>(in);
}

template <typename T>
Cell time_cell(const std::string& name, const ncsw::nn::Graph& graph,
               const ncsw::nn::Weights<T>& weights,
               const ncsw::tensor::Tensor<T>& input,
               const ncsw::nn::ExecOptions& opts, std::int64_t images) {
  // Warmup: grows the workspaces and faults in the weights.
  (void)ncsw::nn::run_forward(graph, weights, input, opts);
  Cell cell;
  cell.name = name;
  const auto t0 = Clock::now();
  while (cell.images < images) {
    (void)ncsw::nn::run_forward(graph, weights, input, opts);
    cell.images += input.shape().n;
  }
  cell.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  cell.img_per_s =
      cell.seconds > 0 ? static_cast<double>(cell.images) / cell.seconds : 0;
  return cell;
}

// Fast-vs-reference digest tolerance (the fig7 methodology): top-1
// agreement fraction and mean |confidence delta| at the reference
// prediction, over a deterministic image set.
struct Agreement {
  double top1 = 0;
  double mean_conf_delta = 0;
};

template <typename T>
Agreement measure_agreement(const ncsw::nn::Graph& graph,
                            const ncsw::nn::Weights<T>& weights,
                            const ncsw::dataset::SyntheticImageNet& data,
                            const ncsw::nn::ExecOptions& base,
                            const ncsw::nn::ExecOptions& fast,
                            std::int64_t items) {
  // Dataset images, not arbitrary tensors: the class-prototype samples
  // produce confident predictions, so top-1 agreement measures whether
  // the fast tier preserves decisions. On unstructured noise the logits
  // are near-uniform and any rounding difference flips the argmax,
  // which measures nothing.
  const auto shape =
      graph.layer(graph.input_id()).out_shape.with_batch(items);
  const int input_size = static_cast<int>(shape.h);
  ncsw::tensor::TensorF in(shape);
  for (std::int64_t i = 0; i < items; ++i) {
    const auto sample = data.sample(static_cast<int>(i) % data.subsets(),
                                    static_cast<int>(i) / data.subsets());
    const auto img = data.preprocess(sample.image, input_size);
    std::copy(img.data(), img.data() + img.numel(), in.batch_ptr(i));
  }
  const auto input = ncsw::tensor::tensor_cast<T>(in);
  const auto p_base = ncsw::nn::run_probabilities(graph, weights, input, base);
  const auto p_fast = ncsw::nn::run_probabilities(graph, weights, input, fast);
  Agreement a;
  for (std::size_t b = 0; b < p_base.size(); ++b) {
    const auto top_base = ncsw::nn::top_k(p_base[b], 1)[0];
    const auto top_fast = ncsw::nn::top_k(p_fast[b], 1)[0];
    if (top_base.first == top_fast.first) a.top1 += 1.0;
    a.mean_conf_delta +=
        std::abs(static_cast<double>(top_base.second) -
                 static_cast<double>(
                     p_fast[b][static_cast<std::size_t>(top_base.first)]));
  }
  const double n = static_cast<double>(p_base.size());
  a.top1 /= n;
  a.mean_conf_delta /= n;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("perf_forward",
                "host engine wall-clock throughput (FP32/FP16, reference "
                "vs optimised vs fast kernels, 1..N threads)");
  cli.add_int("images", 200, "images per timed cell");
  cli.add_int("batch", 1, "batch size per forward pass");
  cli.add_int("threads", 0,
              "thread count for the threaded cells (0 = auto: "
              "$NCSW_THREADS, else hardware concurrency)");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  if (cli.get_int("threads") < 0) {
    return bench::usage_error(
        cli, "--threads must be >= 0 (got " +
                 std::to_string(cli.get_int("threads")) + "); 0 means auto");
  }
  bench::setup(cli);

  const std::int64_t images = cli.get_int("images");
  const std::int64_t batch = std::max<std::int64_t>(cli.get_int("batch"), 1);
  const int threads = nn::resolve_threads(static_cast<int>(cli.get_int("threads")));

  // Small dataset config: the class prototypes fit the classifier, the
  // timed inputs are deterministic tensors, and the agreement check runs
  // on dataset samples.
  dataset::DatasetConfig dc;
  dc.images_per_subset = 32;
  dataset::SyntheticImageNet data(dc);
  const auto bundle = core::ModelBundle::tiny_functional(data);
  const auto in_f32 = make_input<float>(bundle->graph, batch);
  const auto in_f16 = make_input<fp16::half>(bundle->graph, batch);

  // Fast-tier weights: the graph-load-time quantization pass, run once
  // outside the timed loops (as HostTarget::set_fast does).
  const auto quant_f32 = nn::quantize_weights(bundle->graph, bundle->weights_f32);
  const auto quant_f16 = nn::quantize_weights(bundle->graph, bundle->weights_f16);

  nn::ExecOptions ref_opts;
  ref_opts.reference_kernels = true;
  nn::ExecOptions opt_t1;
  opt_t1.threads = 1;
  nn::ExecOptions opt_tn;
  opt_tn.threads = threads;
  nn::ExecOptions fast32_t1 = opt_t1;
  fast32_t1.fast = true;
  fast32_t1.quant = &quant_f32;
  nn::ExecOptions fast32_tn = opt_tn;
  fast32_tn.fast = true;
  fast32_tn.quant = &quant_f32;
  nn::ExecOptions fast16_t1 = opt_t1;
  fast16_t1.fast = true;
  fast16_t1.quant = &quant_f16;
  nn::ExecOptions fast16_tn = opt_tn;
  fast16_tn.fast = true;
  fast16_tn.quant = &quant_f16;

  std::vector<Cell> cells;
  cells.push_back(time_cell<float>("fp32 ref t1", bundle->graph,
                                   bundle->weights_f32, in_f32, ref_opts,
                                   images));
  cells.push_back(time_cell<float>("fp32 opt t1", bundle->graph,
                                   bundle->weights_f32, in_f32, opt_t1,
                                   images));
  cells.push_back(time_cell<float>("fp32 opt tN", bundle->graph,
                                   bundle->weights_f32, in_f32, opt_tn,
                                   images));
  cells.push_back(time_cell<fp16::half>("fp16 ref t1", bundle->graph,
                                        bundle->weights_f16, in_f16, ref_opts,
                                        images));
  cells.push_back(time_cell<fp16::half>("fp16 opt t1", bundle->graph,
                                        bundle->weights_f16, in_f16, opt_t1,
                                        images));
  cells.push_back(time_cell<fp16::half>("fp16 opt tN", bundle->graph,
                                        bundle->weights_f16, in_f16, opt_tn,
                                        images));
  cells.push_back(time_cell<float>("fp32 fast t1", bundle->graph,
                                   bundle->weights_f32, in_f32, fast32_t1,
                                   images));
  cells.push_back(time_cell<float>("fp32 fast tN", bundle->graph,
                                   bundle->weights_f32, in_f32, fast32_tn,
                                   images));
  cells.push_back(time_cell<fp16::half>("fp16 fast t1", bundle->graph,
                                        bundle->weights_f16, in_f16, fast16_t1,
                                        images));
  cells.push_back(time_cell<fp16::half>("fp16 fast tN", bundle->graph,
                                        bundle->weights_f16, in_f16, fast16_tn,
                                        images));

  const double fp32_base = cells[0].img_per_s;
  const double fp16_base = cells[3].img_per_s;

  util::Table table("perf_forward: host forward pass, wall clock (batch " +
                    std::to_string(batch) + ", N = " +
                    std::to_string(threads) + " threads)");
  table.set_header({"Cell", "img/s", "ms/img", "speedup vs ref t1"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const bool is_f32 = c.name.compare(0, 4, "fp32") == 0;
    const double base = is_f32 ? fp32_base : fp16_base;
    table.add_row({c.name, util::Table::num(c.img_per_s, 1),
                   util::Table::num(1000.0 / std::max(c.img_per_s, 1e-9), 3),
                   util::Table::num(base > 0 ? c.img_per_s / base : 0, 2)});
  }
  bench::emit(table, cli);

  // Digest tolerance of the fast tier vs the bit-identical path.
  const auto agree_f32 = measure_agreement<float>(
      bundle->graph, bundle->weights_f32, data, opt_t1, fast32_t1, 64);
  const auto agree_f16 = measure_agreement<fp16::half>(
      bundle->graph, bundle->weights_f16, data, opt_t1, fast16_t1, 64);

  // Profiled pass (per-layer wall milliseconds) on the optimised
  // threaded configuration; with --trace this also emits "host" spans.
  nn::ExecOptions prof = opt_tn;
  prof.profile_layers = true;
  const auto prof_f32 =
      nn::run_forward(bundle->graph, bundle->weights_f32, in_f32, prof);
  const auto prof_f16 =
      nn::run_forward(bundle->graph, bundle->weights_f16, in_f16, prof);

  bench::BenchReport report("perf_forward");
  report.set_clock("wall");
  report.config("images", images);
  report.config("batch", batch);
  report.config("threads", static_cast<std::int64_t>(threads));
  report.config("hardware_concurrency",
                static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  // Machine/fast-tier context so perf trajectories across machines stay
  // interpretable: core count, worker->CPU pinning of the fast pool, and
  // the quantization configuration the fast cells ran with.
  report.config("cores",
                static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  report.config("pinning", nn::kernels::fast_pool().affinity_layout());
  report.config("quant",
                "int8 symmetric per-channel (fc), fp32 conv panels; " +
                    std::to_string(quant_f32.size()) + " layers");
  const char* keys[] = {"fp32.ref.t1.img_per_s",  "fp32.opt.t1.img_per_s",
                        "fp32.opt.tN.img_per_s",  "fp16.ref.t1.img_per_s",
                        "fp16.opt.t1.img_per_s",  "fp16.opt.tN.img_per_s",
                        "fp32.fast.t1.img_per_s", "fp32.fast.tN.img_per_s",
                        "fp16.fast.t1.img_per_s", "fp16.fast.tN.img_per_s"};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    report.value(keys[i], cells[i].img_per_s);
  }
  report.value("fp32.speedup_opt_t1_x",
               fp32_base > 0 ? cells[1].img_per_s / fp32_base : 0);
  report.value("fp32.speedup_total_x",
               fp32_base > 0 ? cells[2].img_per_s / fp32_base : 0);
  report.value("fp16.speedup_opt_t1_x",
               fp16_base > 0 ? cells[4].img_per_s / fp16_base : 0);
  report.value("fp16.speedup_total_x",
               fp16_base > 0 ? cells[5].img_per_s / fp16_base : 0);
  // Fast tier: speedups are measured against the *optimised* tier (the
  // bit-identical path users get by default), not the pre-PR reference.
  const double opt32_t1 = cells[1].img_per_s;
  const double opt16_t1 = cells[4].img_per_s;
  report.value("fp32.fast.speedup_vs_opt_t1_x",
               opt32_t1 > 0 ? cells[6].img_per_s / opt32_t1 : 0);
  report.value("fp32.fast.speedup_total_x",
               opt32_t1 > 0 ? cells[7].img_per_s / opt32_t1 : 0);
  report.value("fp16.fast.speedup_vs_opt_t1_x",
               opt16_t1 > 0 ? cells[8].img_per_s / opt16_t1 : 0);
  report.value("fp16.fast.speedup_total_x",
               opt16_t1 > 0 ? cells[9].img_per_s / opt16_t1 : 0);
  report.value("fp32.fast.top1_agreement", agree_f32.top1);
  report.value("fp32.fast.mean_conf_delta", agree_f32.mean_conf_delta);
  report.value("fp16.fast.top1_agreement", agree_f16.top1);
  report.value("fp16.fast.mean_conf_delta", agree_f16.mean_conf_delta);
  for (int id = 1; id < bundle->graph.size(); ++id) {
    const auto& name = bundle->graph.layer(id).name;
    report.value("fp32.layer_ms." + name,
                 prof_f32.layer_seconds[static_cast<std::size_t>(id)] * 1e3);
    report.value("fp16.layer_ms." + name,
                 prof_f16.layer_seconds[static_cast<std::size_t>(id)] * 1e3);
  }
  bench::write_report(report, cli);

  std::cout << "\nfp16 total speedup (opt tN vs ref t1): "
            << util::Table::num(
                   fp16_base > 0 ? cells[5].img_per_s / fp16_base : 0, 2)
            << "x; fast tier (t1 vs opt t1): "
            << util::Table::num(
                   opt16_t1 > 0 ? cells[8].img_per_s / opt16_t1 : 0, 2)
            << "x at top-1 agreement "
            << util::Table::num(agree_f16.top1, 3) << "\n";
  bench::finalize(cli);
  return 0;
}
