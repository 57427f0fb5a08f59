// Google-benchmark microbenchmarks of the substrate layers: FP16
// conversion, GEMM, convolution, max pooling, LRN, the libm spans, USB
// reservation, the chip model, the dataset generator, functional
// inference, zoo graph swaps and the cluster's serving loop. These
// measure *this host's* real performance (unlike the figure harnesses,
// which report simulated device time).
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/host_target.h"
#include "core/model.h"
#include "core/stick_fleet.h"
#include "core/vpu_target.h"
#include "dataset/synthetic.h"
#include "half/half.h"
#include "imgproc/ops.h"
#include "imgproc/ppm.h"
#include "mvnc/mvnc.h"
#include "mvnc/sim_host.h"
#include "nn/executor.h"
#include "nn/googlenet.h"
#include "nn/kernels.h"
#include "mdk/mdk.h"
#include "serve/arrivals.h"
#include "sim/resource.h"
#include "sipp/filters.h"
#include "tensor/gemm.h"
#include "tensor/gemm_detail.h"
#include "util/libm_span.h"
#include "util/multiversion.h"
#include "util/rng.h"

namespace {

using ncsw::fp16::half;

void BM_HalfFromFloat(benchmark::State& state) {
  ncsw::util::Xoshiro256 rng(1);
  std::vector<float> xs(4096);
  for (auto& x : xs) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (float x : xs) acc += ncsw::fp16::float_to_half_bits(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HalfFromFloat);

void BM_HalfToFloat(benchmark::State& state) {
  std::vector<std::uint16_t> bits(4096);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<std::uint16_t>(i * 16 + 1);
  }
  for (auto _ : state) {
    float acc = 0;
    for (auto b : bits) acc += ncsw::fp16::half_bits_to_float(b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HalfToFloat);

// The exact GEMM at TinyGoogLeNet's conv shapes: M = output channels,
// N = output pixels, K = input channels x kernel area. These are the 17
// distinct shapes of its 21 convs (four pairs repeat), from the 7x7/s2
// stem at N = 256 to the 4x4 inception towers at N = 16. A and B carry
// the weights' and activations' spread of values, with some exact zeros
// in A so the zero-skip branch is exercised as in a real layer.
constexpr std::array<std::array<std::int64_t, 3>, 17> kTinyConvGemms{{
    {16, 256, 147}, {16, 64, 16},  {32, 64, 144}, {8, 64, 32},
    {12, 64, 32},   {16, 64, 108}, {4, 64, 32},   {8, 64, 100},
    {16, 64, 40},   {24, 64, 144}, {4, 64, 40},   {8, 64, 40},
    {24, 16, 56},   {32, 16, 216}, {8, 16, 56},   {16, 16, 200},
    {16, 16, 56}}};

void gemm_shape_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"M", "N", "K"});
  for (const auto& s : kTinyConvGemms) b->Args({s[0], s[1], s[2]});
}

std::vector<float> gemm_operand(std::int64_t elems, std::uint64_t seed,
                                double zero_frac) {
  ncsw::util::Xoshiro256 rng(seed);
  std::vector<float> v(static_cast<std::size_t>(elems));
  for (auto& x : v) {
    x = rng.uniform(0.0, 1.0) < zero_frac
            ? 0.0f
            : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return v;
}

void set_gemm_counters(benchmark::State& state, std::int64_t m,
                       std::int64_t n, std::int64_t k) {
  const double flops = static_cast<double>(2 * m * n * k);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

// The variant a benchmark's `isa` argument names (0 base, 1 x86-64-v3,
// 2 x86-64-v4), or false (the benchmark skipped with an error) when the
// host cannot run it.
bool pinned_isa(benchmark::State& state, std::int64_t arg,
                ncsw::util::IsaLevel& isa) {
  using ncsw::util::IsaLevel;
  isa = arg == 0 ? IsaLevel::kBase : arg == 1 ? IsaLevel::kV3 : IsaLevel::kV4;
  if (isa > ncsw::util::isa_level()) {
    state.SkipWithError("host isa_level cannot run this variant");
    return false;
  }
  return true;
}

void BM_GemmF32(benchmark::State& state) {
  const auto m = state.range(0), n = state.range(1), k = state.range(2);
  const auto a = gemm_operand(m * k, 1, 0.05);
  const auto b = gemm_operand(k * n, 2, 0.0);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    ncsw::tensor::gemm_f32(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, m, n, k);
}
BENCHMARK(BM_GemmF32)->Apply(gemm_shape_args);

// Each instantiation of the exact GEMM (isa: 0 base, 1 x86-64-v3,
// 2 x86-64-v4) at the same shapes, so the per-variant gain is measured
// on one host; variants the host cannot run report an error instead.
void exact_variant_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"isa", "M", "N", "K"});
  for (const std::int64_t isa : {0, 1, 2}) {
    for (const auto& s : kTinyConvGemms) b->Args({isa, s[0], s[1], s[2]});
  }
}

void BM_GemmF32Exact(benchmark::State& state) {
  using ncsw::util::IsaLevel;
  IsaLevel isa;
  if (!pinned_isa(state, state.range(0), isa)) return;
  const auto m = state.range(1), n = state.range(2), k = state.range(3);
  const auto fn = isa == IsaLevel::kBase ? ncsw::tensor::detail::gemm_f32_base
                  : isa == IsaLevel::kV3 ? ncsw::tensor::detail::gemm_f32_v3
                                         : ncsw::tensor::detail::gemm_f32_v4;
  const auto a = gemm_operand(m * k, 1, 0.05);
  const auto b = gemm_operand(k * n, 2, 0.0);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    fn(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, m, n, k);
}
BENCHMARK(BM_GemmF32Exact)->Apply(exact_variant_args);

void BM_GemmF16(benchmark::State& state) {
  const auto m = state.range(0), n = state.range(1), k = state.range(2);
  std::vector<half> a(static_cast<std::size_t>(m * k));
  std::vector<half> b(static_cast<std::size_t>(k * n));
  std::vector<half> c(static_cast<std::size_t>(m * n));
  const auto af = gemm_operand(m * k, 1, 0.05);
  const auto bf = gemm_operand(k * n, 2, 0.0);
  ncsw::fp16::float_to_half_span(af.data(), a.data(), a.size());
  ncsw::fp16::float_to_half_span(bf.data(), b.data(), b.size());
  ncsw::tensor::GemmScratch scratch;
  for (auto _ : state) {
    ncsw::tensor::gemm_f16(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data(),
                           &scratch);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, m, n, k);
}
BENCHMARK(BM_GemmF16)->Apply(gemm_shape_args);

void BM_Conv3x3(benchmark::State& state) {
  using namespace ncsw::nn;
  ncsw::tensor::TensorF in(ncsw::tensor::Shape{1, 16, 32, 32}, 0.5f);
  LayerParams<float> p;
  p.w = ncsw::tensor::TensorF(ncsw::tensor::Shape{32, 16, 3, 3}, 0.01f);
  p.b = ncsw::tensor::TensorF(ncsw::tensor::Shape{1, 32, 1, 1});
  ncsw::tensor::TensorF out;
  for (auto _ : state) {
    kernels::conv2d(in, p, ConvParams{32, 3, 1, 1}, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Conv3x3);

// The exact conv (shifted planes + row-table GEMM + epilogue, one
// thread) at TinyGoogLeNet's 8 spatial convs: the 7x7/s2 stem, conv2's
// 3x3, inception_3a's and 3b's 3x3 and 5x5 towers on the 8x8 map and
// 4a's on the 4x4 map (a 5x5/p2 window is wider than a 4x4 map; 3a's
// and 3b's 5x5 share a shape), plus a padded 1x1, which builds planes
// where an unpadded one reads its input. Args: input channels, map size,
// output channels, kernel, stride, pad, FP16 (0/1). GFLOP/s counts the
// GEMM's multiply-adds.
void conv_shape_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"C", "H", "M", "k", "s", "p", "fp16"});
  for (const int fp16 : {0, 1}) {
    for (const auto& s : {std::array<std::int64_t, 6>{3, 32, 16, 7, 2, 3},
                          std::array<std::int64_t, 6>{16, 8, 32, 3, 1, 1},
                          std::array<std::int64_t, 6>{12, 8, 16, 3, 1, 1},
                          std::array<std::int64_t, 6>{16, 8, 24, 3, 1, 1},
                          std::array<std::int64_t, 6>{4, 8, 8, 5, 1, 2},
                          std::array<std::int64_t, 6>{24, 4, 32, 3, 1, 1},
                          std::array<std::int64_t, 6>{8, 4, 16, 5, 1, 2},
                          std::array<std::int64_t, 6>{40, 8, 8, 1, 1, 1}}) {
      b->Args({s[0], s[1], s[2], s[3], s[4], s[5], fp16});
    }
  }
}

// gemm_operand() values as a tensor of precision T. Activations get 30%
// exact zeros, as a ReLU leaves them.
template <typename T>
ncsw::tensor::Tensor<T> operand_tensor(const ncsw::tensor::Shape& shape,
                                       std::uint64_t seed, double zero_frac) {
  const auto v = gemm_operand(shape.numel(), seed, zero_frac);
  ncsw::tensor::TensorF t(shape);
  std::copy(v.begin(), v.end(), t.data());
  return ncsw::tensor::tensor_cast<T>(t);
}

template <typename T>
void run_conv2d_exact(benchmark::State& state) {
  using namespace ncsw::nn;
  const auto c = state.range(0), h = state.range(1), m = state.range(2);
  const int k = static_cast<int>(state.range(3));
  const ConvParams cp{static_cast<int>(m), k, static_cast<int>(state.range(4)),
                      static_cast<int>(state.range(5))};
  const auto in = operand_tensor<T>(Shape{1, c, h, h}, 3, 0.3);
  LayerParams<T> p;
  p.w = operand_tensor<T>(Shape{m, c, k, k}, 4, 0.05);
  p.b = operand_tensor<T>(Shape{1, m, 1, 1}, 5, 0.0);
  // FP32 views or the FP16 widening, and the operand's row table,
  // prepared once as a plan does.
  const kernels::LayerWeights lw(p);
  const kernels::ConvOperand op(in.shape(), cp);
  ncsw::tensor::Tensor<T> out;
  kernels::Workspace ws;
  kernels::ExecCtx ctx;
  ctx.ws = &ws;
  for (auto _ : state) {
    kernels::conv2d(in, lw, op, /*fuse_relu=*/false, out, ctx);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const std::int64_t oh = conv_extent(h, k, cp.stride, cp.pad);
  set_gemm_counters(state, m, oh * oh, c * k * k);
}

void BM_Conv2dExact(benchmark::State& state) {
  if (state.range(6) != 0) {
    run_conv2d_exact<half>(state);
  } else {
    run_conv2d_exact<float>(state);
  }
}
BENCHMARK(BM_Conv2dExact)->Apply(conv_shape_args);

// Max pool (one thread) at TinyGoogLeNet's five pool layers: pool1 and
// pool3 (3x3/s2, ceil) and the inception pool branches (3x3/s1/p1) on
// the 8x8 and 4x4 maps, per variant (isa, as BM_GemmF32Exact). Args:
// isa, channels, map size, stride, pad, FP16.
void pool_shape_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"isa", "C", "H", "s", "p", "fp16"});
  const std::array<std::int64_t, 4> shapes[] = {
      {16, 16, 2, 0}, {32, 8, 1, 1}, {40, 8, 1, 1}, {56, 8, 2, 0}, {56, 4, 1, 1}};
  for (const std::int64_t isa : {0, 1, 2}) {
    for (const int fp16 : {0, 1}) {
      for (const auto& s : shapes) b->Args({isa, s[0], s[1], s[2], s[3], fp16});
    }
  }
}

template <typename T>
void run_max_pool(benchmark::State& state) {
  using namespace ncsw::nn;
  ncsw::util::IsaLevel isa;
  if (!pinned_isa(state, state.range(0), isa)) return;
  const auto c = state.range(1), h = state.range(2);
  const PoolParams pp{3, static_cast<int>(state.range(3)),
                      static_cast<int>(state.range(4)), true, false};
  const auto in = operand_tensor<T>(Shape{1, c, h, h}, 6, 0.3);
  ncsw::tensor::Tensor<T> out;
  kernels::Workspace ws;
  kernels::ExecCtx ctx;
  ctx.ws = &ws;
  for (auto _ : state) {
    kernels::detail::max_pool(in, pp, out, ctx, isa);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * c);
}

void BM_MaxPool(benchmark::State& state) {
  if (state.range(5) != 0) {
    run_max_pool<half>(state);
  } else {
    run_max_pool<float>(state);
  }
}
BENCHMARK(BM_MaxPool)->Apply(pool_shape_args);

// Exact LRN (one thread) at TinyGoogLeNet's two norms: pool1/norm1 on
// 16 x 8 x 8 and conv2/norm2 on 32 x 8 x 8, per variant. The inputs are
// post-ReLU, with 40% exact zeros. Args: isa, channels, map size, FP16.
void lrn_shape_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"isa", "C", "H", "fp16"});
  for (const std::int64_t isa : {0, 1, 2}) {
    for (const int fp16 : {0, 1}) {
      for (const std::int64_t c : {16, 32}) b->Args({isa, c, 8, fp16});
    }
  }
}

template <typename T>
void run_lrn(benchmark::State& state) {
  using namespace ncsw::nn;
  ncsw::util::IsaLevel isa;
  if (!pinned_isa(state, state.range(0), isa)) return;
  const auto c = state.range(1), h = state.range(2);
  const auto in = operand_tensor<T>(Shape{1, c, h, h}, 7, 0.4);
  const LRNParams lp{5, 1e-4f, 0.75f, 1.0f};
  ncsw::tensor::Tensor<T> out;
  kernels::Workspace ws;
  kernels::ExecCtx ctx;
  ctx.ws = &ws;
  for (auto _ : state) {
    kernels::detail::lrn(in, lp, out, ctx, isa);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * c * h * h);
}

void BM_Lrn(benchmark::State& state) {
  if (state.range(3) != 0) {
    run_lrn<half>(state);
  } else {
    run_lrn<float>(state);
  }
}
BENCHMARK(BM_Lrn)->Apply(lrn_shape_args);

void BM_TinyGoogLeNetForward(benchmark::State& state) {
  using namespace ncsw::nn;
  const Graph g = build_tiny_googlenet({32, 50});
  const WeightsF w = init_msra(g, 1);
  ncsw::tensor::TensorF in(ncsw::tensor::Shape{1, 3, 32, 32}, 0.1f);
  for (auto _ : state) {
    auto result = run_forward(g, w, in);
    benchmark::DoNotOptimize(result.output.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TinyGoogLeNetForward);

void BM_TinyGoogLeNetForwardFp16(benchmark::State& state) {
  using namespace ncsw::nn;
  const Graph g = build_tiny_googlenet({32, 50});
  const WeightsH w = to_fp16(init_msra(g, 1));
  ncsw::tensor::Tensor<half> in(ncsw::tensor::Shape{1, 3, 32, 32},
                                half(0.1f));
  for (auto _ : state) {
    auto result = run_forward(g, w, in);
    benchmark::DoNotOptimize(result.output.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TinyGoogLeNetForwardFp16);

void BM_IntervalReserve(benchmark::State& state) {
  for (auto _ : state) {
    ncsw::sim::IntervalResource r;
    double t = 0;
    for (int i = 0; i < 10000; ++i) {
      t = r.reserve(t, 1e-4) + 5e-5;
    }
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_IntervalReserve);

void BM_Myriad2ExecuteGoogLeNet(benchmark::State& state) {
  const auto compiled = ncsw::graphc::compile(ncsw::nn::build_googlenet(),
                                              ncsw::graphc::Precision::kFP16);
  ncsw::myriad::Myriad2 chip;
  for (auto _ : state) {
    auto profile = chip.execute(compiled);
    benchmark::DoNotOptimize(profile.total_s);
  }
}
BENCHMARK(BM_Myriad2ExecuteGoogLeNet);

void BM_MvncTimedRoundTrip(benchmark::State& state) {
  ncsw::mvnc::HostConfig host;
  host.devices = 1;
  ncsw::mvnc::host_reset(host);
  char name[64];
  ncsw::mvnc::mvncGetDeviceName(0, name, sizeof(name));
  void* dev = nullptr;
  ncsw::mvnc::mvncOpenDevice(name, &dev);
  const auto blob = ncsw::graphc::serialize(ncsw::graphc::compile(
      ncsw::nn::build_googlenet(), ncsw::graphc::Precision::kFP16));
  void* graph = nullptr;
  ncsw::mvnc::mvncAllocateGraph(dev, &graph, blob.data(),
                                static_cast<unsigned int>(blob.size()));
  std::vector<std::uint8_t> input(224 * 224 * 3 * 2, 0);
  for (auto _ : state) {
    ncsw::mvnc::mvncLoadTensor(graph, input.data(),
                               static_cast<unsigned int>(input.size()),
                               nullptr);
    void* out;
    unsigned int len;
    ncsw::mvnc::mvncGetResult(graph, &out, &len, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  ncsw::mvnc::mvncDeallocateGraph(graph);
  ncsw::mvnc::mvncCloseDevice(dev);
}
BENCHMARK(BM_MvncTimedRoundTrip);

// Host cost of one zoo residency swap: drain, deallocate, allocate. Two
// models alternate on one stick, so every iteration is a real swap.
void BM_StickFleetSwap(benchmark::State& state) {
  std::vector<ncsw::core::ZooModel> zoo;
  for (const char* name : {"googlenet", "squeezenet"}) {
    zoo.push_back({name, ncsw::core::ModelBundle::zoo_reference(name)});
  }
  ncsw::core::StickFleetConfig cfg;
  cfg.devices = 1;
  ncsw::core::StickFleet fleet(std::move(zoo), cfg);
  double now = 0.0;
  int m = 0;
  for (auto _ : state) {
    m ^= 1;
    now = fleet.swap_to(0, m, now);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StickFleetSwap);

// Host cost of the cluster's own loop per request, on perfbench's
// cluster-ladder shape: 8 nodes (CPU + GPU each, plus an 8-stick VPU on
// node 0), 16 models, replication 2, node 1 crashed for the middle
// quarter, and 10k Poisson requests at 0.8x the calibrated capacity.
// Only Cluster::run is timed; each iteration gets fresh targets.
void BM_ClusterRun(benchmark::State& state) {
  constexpr int kNodes = 8, kModels = 16;
  constexpr std::int64_t kRequests = 10000;
  const auto bundle = ncsw::core::ModelBundle::googlenet_reference();
  ncsw::core::VpuTargetConfig vcfg;
  vcfg.devices = 8;
  const double capacity =
      kNodes * (ncsw::core::make_cpu_target(bundle)->run_timed(1000, 8)
                    .throughput() +
                ncsw::core::make_gpu_target(bundle)->run_timed(1000, 8)
                    .throughput()) +
      ncsw::core::VpuTarget(bundle, vcfg).run_timed(1000, 8).throughput();

  ncsw::serve::PoissonArrivals arrivals(0.8 * capacity, 1);
  ncsw::util::Xoshiro256 mix(2);
  std::vector<ncsw::serve::Request> trace(kRequests);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = static_cast<std::int64_t>(i);
    trace[i].arrival_s = arrivals.next();
    const double c = mix.uniform();
    trace[i].slo = c < 0.20   ? ncsw::serve::SloClass::kInteractive
                   : c < 0.80 ? ncsw::serve::SloClass::kStandard
                              : ncsw::serve::SloClass::kBatch;
    trace[i].tag = "m" + std::to_string(mix.uniform_int(0, kModels - 1));
  }
  const double span_s = trace.back().arrival_s;

  ncsw::cluster::ClusterConfig cfg;
  cfg.node.queue_capacity = 32;
  cfg.node.max_batch = 8;
  cfg.node.inflight_window = 2;
  cfg.trace_requests = false;
  cfg.models = kModels;
  cfg.faults.add(/*device=*/1, ncsw::sim::FaultKind::kNodeCrash,
                 0.375 * span_s, 0.25 * span_s);

  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<ncsw::core::HostTarget>> hosts;
    std::vector<std::vector<ncsw::core::Target*>> nodes(kNodes);
    for (auto& node : nodes) {
      hosts.push_back(ncsw::core::make_cpu_target(bundle));
      node.push_back(hosts.back().get());
      hosts.push_back(ncsw::core::make_gpu_target(bundle));
      node.push_back(hosts.back().get());
    }
    ncsw::core::VpuTarget vpu(bundle, vcfg);
    nodes[0].push_back(&vpu);
    ncsw::cluster::Cluster cl(std::move(nodes), cfg);
    state.ResumeTiming();
    benchmark::DoNotOptimize(cl.run(trace).completed);
    state.PauseTiming();  // keep the teardown untimed
    hosts.clear();
    state.ResumeTiming();
  }
  // Seconds per request (printed with an SI prefix, e.g. "1.9us").
  state.counters["per_req"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kRequests,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ClusterRun)->Unit(benchmark::kMillisecond);

// One generated 48 x 48 sample, per variant of its factor and pixel
// passes (isa, as BM_GemmF32Exact).
void BM_DatasetSample(benchmark::State& state) {
  ncsw::util::IsaLevel isa;
  if (!pinned_isa(state, state.range(0), isa)) return;
  ncsw::dataset::DatasetConfig cfg;
  cfg.num_classes = 50;
  cfg.image_size = 48;
  const ncsw::dataset::SyntheticImageNet data(cfg);
  int i = 0;
  for (auto _ : state) {
    auto s = data.sample(0, i++ % cfg.images_per_subset, isa);
    benchmark::DoNotOptimize(s.image.pixels().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatasetSample)->ArgName("isa")->Arg(0)->Arg(1)->Arg(2);

// The libm calls of Fig. 7's host path, as a plain libm loop (port:0)
// and through util::libm_span (port:1, the vector port on x86-64-v4
// hosts, the same loop elsewhere). BM_PowSpan: one exact LRN pass's
// scales over TinyGoogLeNet's two norms (16 + 32 channels of 8 x 8), at
// LRN-like values just above k = 1. BM_LogSpan: one 48 x 48 sample's
// polar-method pairs (3456), s drawn as the generator draws it.
void BM_PowSpan(benchmark::State& state) {
  ncsw::util::Xoshiro256 rng(3);
  std::vector<float> x(3072), out(x.size());
  for (auto& v : x) v = 1.0f + static_cast<float>(rng.uniform(0.0, 1e-3));
  const bool port = state.range(0) != 0;
  for (auto _ : state) {
    if (port) {
      ncsw::util::pow_span(x.data(), 0.75f, out.data(), x.size());
    } else {
      for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = std::pow(x[i], 0.75f);
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_PowSpan)->ArgName("port")->Arg(0)->Arg(1);

void BM_LogSpan(benchmark::State& state) {
  ncsw::util::Xoshiro256 rng(4);
  std::vector<double> s(3456), out(s.size());
  for (std::size_t w = 0; w < s.size();) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double sq = u * u + v * v;
    if (sq < 1.0 && sq != 0.0) s[w++] = sq;
  }
  const bool port = state.range(0) != 0;
  for (auto _ : state) {
    if (port) {
      ncsw::util::log_span(s.data(), out.data(), s.size());
    } else {
      for (std::size_t i = 0; i < s.size(); ++i) out[i] = std::log(s[i]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_LogSpan)->ArgName("port")->Arg(0)->Arg(1);

// Fig. 7's host preprocessing of one generated 48 x 48 image for the
// 32 x 32 network input (core::Preprocessor's fused resize): bilinear
// resize, CHW layout, means subtracted, per variant (isa).
void BM_Preprocess(benchmark::State& state) {
  ncsw::util::IsaLevel isa;
  if (!pinned_isa(state, state.range(0), isa)) return;
  const ncsw::dataset::SyntheticImageNet data;
  const auto img = data.sample(0, 0).image;
  for (auto _ : state) {
    auto t = ncsw::imgproc::detail::resize_to_tensor_f32(img, 32, 32,
                                                         data.means(), isa);
    benchmark::DoNotOptimize(t.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Preprocess)->ArgName("isa")->Arg(0)->Arg(1)->Arg(2);

void BM_PpmRoundTrip(benchmark::State& state) {
  ncsw::dataset::SyntheticImageNet data;
  const auto img = data.prototype(0);
  for (auto _ : state) {
    auto bytes = ncsw::imgproc::encode_ppm(img);
    auto back = ncsw::imgproc::decode_ppm(bytes);
    benchmark::DoNotOptimize(back.pixels().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PpmRoundTrip);

void BM_MdkPlanAndSimulateGemm(benchmark::State& state) {
  ncsw::mdk::MdkContext ctx;
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    const auto plan =
        ctx.plan_gemm(n, n, n, ncsw::graphc::Precision::kFP16);
    const auto stats = ctx.simulate_gemm(plan);
    benchmark::DoNotOptimize(stats.gflops);
  }
}
BENCHMARK(BM_MdkPlanAndSimulateGemm)->Arg(512)->Arg(2048);

void BM_SippHarrisVga(benchmark::State& state) {
  ncsw::sipp::Plane frame(640, 480);
  for (std::size_t i = 0; i < frame.data.size(); ++i) {
    frame.data[i] = static_cast<float>(i % 255);
  }
  for (auto _ : state) {
    auto resp = ncsw::sipp::harris_response(frame);
    benchmark::DoNotOptimize(resp.data.data());
  }
  state.SetItemsProcessed(state.iterations() * 640 * 480);
}
BENCHMARK(BM_SippHarrisVga);

void BM_GraphPackageRoundTrip(benchmark::State& state) {
  const auto g = ncsw::nn::build_tiny_googlenet({32, 20});
  const auto w = ncsw::nn::to_fp16(ncsw::nn::init_msra(g, 1));
  const auto compiled =
      ncsw::graphc::compile(g, ncsw::graphc::Precision::kFP16);
  for (auto _ : state) {
    const auto blob = ncsw::graphc::serialize_package(compiled, &g, &w);
    auto pkg = ncsw::graphc::deserialize_package(blob);
    benchmark::DoNotOptimize(pkg.compiled.num_outputs);
  }
}
BENCHMARK(BM_GraphPackageRoundTrip);

}  // namespace

BENCHMARK_MAIN();
