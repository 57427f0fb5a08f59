// Google-benchmark microbenchmarks of the substrate layers: FP16
// conversion, GEMM, convolution, USB reservation, the chip model, the
// dataset generator, functional inference and zoo graph swaps. These
// measure *this host's* real performance (unlike the figure harnesses,
// which report simulated device time).
#include <benchmark/benchmark.h>

#include <array>

#include "core/model.h"
#include "core/stick_fleet.h"
#include "dataset/synthetic.h"
#include "half/half.h"
#include "imgproc/ppm.h"
#include "mvnc/mvnc.h"
#include "mvnc/sim_host.h"
#include "nn/executor.h"
#include "nn/googlenet.h"
#include "mdk/mdk.h"
#include "sim/resource.h"
#include "sipp/filters.h"
#include "tensor/gemm.h"
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
// N = output pixels, K = input channels x kernel area (the stem's 7x7
// over 3 channels, an inception 3x3, a 1x1 reduce and a late 3x3).
// A and B carry the weights' and activations' spread of values, with
// some exact zeros in A so the zero-skip branch is exercised as in a
// real layer.
void gemm_shape_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"M", "N", "K"});
  for (const auto& s : {std::array<std::int64_t, 3>{16, 256, 147},
                        std::array<std::int64_t, 3>{32, 64, 144},
                        std::array<std::int64_t, 3>{16, 64, 16},
                        std::array<std::int64_t, 3>{32, 16, 216}}) {
    b->Args({s[0], s[1], s[2]});
  }
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

void BM_DatasetSample(benchmark::State& state) {
  ncsw::dataset::DatasetConfig cfg;
  cfg.num_classes = 50;
  cfg.image_size = 48;
  const ncsw::dataset::SyntheticImageNet data(cfg);
  int i = 0;
  for (auto _ : state) {
    auto s = data.sample(0, i++ % cfg.images_per_subset);
    benchmark::DoNotOptimize(s.image.pixels().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatasetSample);

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
