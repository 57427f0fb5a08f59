// Workspace reuse, thread-count resolution and the executor-level golden
// guarantee: every layer's run_forward activation is byte-identical to
// the oracle's (tests/oracle/), serial and threaded, in both precisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "core/model.h"
#include "nn/executor.h"
#include "nn/kernels.h"
#include "oracle/oracle.h"
#include "util/rng.h"

namespace {

using namespace ncsw::nn;
using ncsw::fp16::half;
using ncsw::tensor::Shape;
using ncsw::tensor::Tensor;
using ncsw::tensor::TensorF;

TensorF random_tensor(const Shape& s, std::uint64_t seed) {
  ncsw::util::Xoshiro256 rng(seed);
  TensorF t(s);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// A GoogLeNet-in-miniature: conv/relu/LRN/pools/inception-style concat/
// dropout/FC/softmax, so the golden tests cover every kernel the real
// networks use.
Graph tiny_net() {
  Graph g("tiny");
  const int in = g.add_input("data", 3, 16, 16);
  const int c1 = g.add_conv("conv1", in, ConvParams{8, 3, 1, 1});
  const int r1 = g.add_relu("relu1", c1);
  const int n1 = g.add_lrn("norm1", r1, LRNParams{5, 1e-4f, 0.75f, 1.0f});
  const int p1 = g.add_max_pool("pool1", n1, PoolParams{3, 2, 1, true, false});
  const int ia = g.add_conv("inc_a", p1, ConvParams{4, 1, 1, 0});
  const int ib = g.add_conv("inc_b", p1, ConvParams{6, 3, 1, 1});
  const int cat = g.add_concat("concat", {ia, ib});
  const int r2 = g.add_relu("relu2", cat);
  PoolParams gp;
  gp.global = true;
  const int gap = g.add_avg_pool("gap", r2, gp);
  const int drop = g.add_dropout("drop", gap);
  const int fc = g.add_fc("fc", drop, FCParams{10});
  g.add_softmax("prob", fc);
  return g;
}

template <typename T>
void expect_bytes_equal(const Tensor<T>& a, const Tensor<T>& b,
                        const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(T)))
      << what;
}

// --- Workspace -------------------------------------------------------------

TEST(Workspace, CapacityGrowsMonotonicallyAcrossHeterogeneousLayers) {
  kernels::Workspace ws;
  EXPECT_EQ(ws.capacity_bytes(), 0u);
  ws.planes(1000);
  const std::size_t after_big = ws.capacity_bytes();
  EXPECT_GE(after_big, 1000 * sizeof(float));
  // A smaller request must not shrink anything.
  ws.planes(10);
  EXPECT_EQ(ws.capacity_bytes(), after_big);
  ws.acts(500);
  ws.out(200);
  ws.slabs(4, 64);
  EXPECT_GE(ws.capacity_bytes(),
            after_big + (500 + 200 + 4 * 64) * sizeof(float));
}

TEST(Workspace, SlabsHandsOutDisjointPerTaskSlices) {
  kernels::Workspace ws;
  float* base = ws.slabs(3, 100);
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 100; ++i) base[t * 100 + i] = static_cast<float>(t);
  }
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(base[t * 100 + i], static_cast<float>(t));
    }
  }
}

TEST(Workspace, NoStaleDataBleedAcrossLayerShapes) {
  // Run a big conv through a workspace, then a small conv through the
  // same workspace: the small result must match a fresh-workspace run
  // byte for byte (the big layer's leftovers must not leak in).
  const TensorF big_in = random_tensor(Shape{1, 6, 20, 20}, 1);
  LayerParams<float> big_p;
  big_p.w = random_tensor(Shape{8, 6, 5, 5}, 2);
  big_p.b = random_tensor(Shape{1, 8, 1, 1}, 3);
  const TensorF small_in = random_tensor(Shape{1, 2, 5, 5}, 4);
  LayerParams<float> small_p;
  small_p.w = random_tensor(Shape{3, 2, 3, 3}, 5);
  small_p.b = random_tensor(Shape{1, 3, 1, 1}, 6);

  kernels::Workspace shared;
  kernels::ExecCtx shared_ctx;
  shared_ctx.ws = &shared;
  TensorF big_out, reused_out, fresh_out;
  kernels::conv2d(big_in, big_p, ConvParams{8, 5, 1, 2}, big_out, shared_ctx);
  kernels::conv2d(small_in, small_p, ConvParams{3, 3, 1, 1}, reused_out,
                  shared_ctx);
  kernels::conv2d(small_in, small_p, ConvParams{3, 3, 1, 1}, fresh_out);
  expect_bytes_equal(reused_out, fresh_out, "conv2d after big layer");

  // Same check in FP16, which additionally exercises acts/out/gemm arenas.
  const auto big_in_h = ncsw::tensor::tensor_cast<half>(big_in);
  const auto small_in_h = ncsw::tensor::tensor_cast<half>(small_in);
  LayerParams<half> big_ph, small_ph;
  big_ph.w = ncsw::tensor::tensor_cast<half>(big_p.w);
  big_ph.b = ncsw::tensor::tensor_cast<half>(big_p.b);
  small_ph.w = ncsw::tensor::tensor_cast<half>(small_p.w);
  small_ph.b = ncsw::tensor::tensor_cast<half>(small_p.b);
  kernels::Workspace shared_h;
  kernels::ExecCtx shared_h_ctx;
  shared_h_ctx.ws = &shared_h;
  Tensor<half> big_out_h, reused_out_h, fresh_out_h;
  kernels::conv2d(big_in_h, big_ph, ConvParams{8, 5, 1, 2}, big_out_h,
                  shared_h_ctx);
  kernels::conv2d(small_in_h, small_ph, ConvParams{3, 3, 1, 1}, reused_out_h,
                  shared_h_ctx);
  kernels::conv2d(small_in_h, small_ph, ConvParams{3, 3, 1, 1}, fresh_out_h);
  expect_bytes_equal(reused_out_h, fresh_out_h, "fp16 conv2d after big layer");
}

// --- thread-count resolution ----------------------------------------------

TEST(ResolveThreads, ExplicitPositiveWins) {
  setenv("NCSW_THREADS", "7", 1);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
  unsetenv("NCSW_THREADS");
}

TEST(ResolveThreads, EnvUsedWhenAuto) {
  setenv("NCSW_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(0), 5);
  EXPECT_EQ(resolve_threads(-1), 5);
  unsetenv("NCSW_THREADS");
}

TEST(ResolveThreads, BadEnvFallsBackToHardware) {
  for (const char* bad : {"0", "-2", "abc", "3x", ""}) {
    setenv("NCSW_THREADS", bad, 1);
    EXPECT_GE(resolve_threads(0), 1) << "env=" << bad;
    EXPECT_EQ(resolve_threads(0),
              resolve_threads(0));  // stable
  }
  unsetenv("NCSW_THREADS");
  EXPECT_GE(resolve_threads(0), 1);
}

// --- golden: run_forward bit-identical across configurations --------------

template <typename T>
void golden_run_forward_case(const Graph& g, const Weights<T>& w,
                             const Tensor<T>& in) {
  ExecOptions serial;
  serial.threads = 1;
  serial.keep_all_activations = true;
  ExecOptions threaded;
  threaded.threads = 4;
  threaded.keep_all_activations = true;

  const auto oracle = ncsw::oracle::run_forward(g, w, in);
  const auto r_serial = run_forward(g, w, in, serial);
  const auto r_threaded = run_forward(g, w, in, threaded);

  ASSERT_EQ(oracle.size(), r_serial.activations.size());
  ASSERT_EQ(oracle.size(), r_threaded.activations.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    const std::string what = g.name() + " layer '" +
                             g.layer(static_cast<int>(i)).name + "' (id " +
                             std::to_string(i) + ")";
    expect_bytes_equal(r_serial.activations[i], oracle[i], what.c_str());
    expect_bytes_equal(r_threaded.activations[i], oracle[i], what.c_str());
  }
}

// The Fig. 7 classifier (TinyGoogLeNet fitted to the default dataset, as
// fig7a/fig7b and the fig7-classify workload build it) and a batch of two
// preprocessed dataset images.
struct Fig7Case {
  std::shared_ptr<const ncsw::core::ModelBundle> bundle;
  TensorF batch;
};

const Fig7Case& fig7_case() {
  static const Fig7Case c = [] {
    const ncsw::dataset::SyntheticImageNet data{
        ncsw::dataset::DatasetConfig{}};
    Fig7Case f{ncsw::core::ModelBundle::tiny_functional(data), {}};
    const Graph& g = f.bundle->graph;
    const Shape shape = g.layer(g.input_id()).out_shape.with_batch(2);
    f.batch = TensorF(shape);
    for (std::int64_t b = 0; b < shape.n; ++b) {
      const auto img = data.preprocess(
          data.sample(0, static_cast<int>(b)).image, static_cast<int>(shape.h));
      std::copy(img.data(), img.data() + img.numel(), f.batch.batch_ptr(b));
    }
    return f;
  }();
  return c;
}

TEST(GoldenForward, Fp32BitIdenticalAcrossConfigs) {
  const Graph g = tiny_net();
  const WeightsF w = init_msra(g, 42);
  const TensorF in = random_tensor(Shape{3, 3, 16, 16}, 7);
  golden_run_forward_case<float>(g, w, in);

  // 13 of the Fig. 7 classifier's 21 convs take the direct 1x1 path.
  const Fig7Case& fig7 = fig7_case();
  int convs = 0, pointwise = 0;
  for (const Layer& l : fig7.bundle->graph.layers()) {
    if (l.kind != LayerKind::kConv) continue;
    ++convs;
    if (l.conv.kernel == 1 && l.conv.stride == 1 && l.conv.pad == 0) {
      ++pointwise;
    }
  }
  EXPECT_EQ(convs, 21);
  EXPECT_EQ(pointwise, 13);
  golden_run_forward_case<float>(fig7.bundle->graph, fig7.bundle->weights_f32,
                                 fig7.batch);
}

TEST(GoldenForward, Fp16BitIdenticalAcrossConfigs) {
  const Graph g = tiny_net();
  const WeightsH w = to_fp16(init_msra(g, 42));
  const auto in = ncsw::tensor::tensor_cast<half>(
      random_tensor(Shape{3, 3, 16, 16}, 7));
  golden_run_forward_case<half>(g, w, in);

  const Fig7Case& fig7 = fig7_case();
  golden_run_forward_case<half>(fig7.bundle->graph, fig7.bundle->weights_f16,
                                ncsw::tensor::tensor_cast<half>(fig7.batch));
}

// A ReLU or Dropout takes its input's buffer when it is that input's
// last consumer, and copies it otherwise. "shared": conv1 feeds relu1
// and then the concat, so relu1 must copy (moving would leave the concat
// an empty conv1). "chain": every ReLU and the Dropout is its input's
// last consumer, so each one moves. Without keep_all_activations the
// output must still match the oracle byte for byte.
Graph relu_shared_net() {
  Graph g("shared");
  const int in = g.add_input("data", 3, 8, 8);
  const int c1 = g.add_conv("conv1", in, ConvParams{4, 3, 1, 1});
  const int r1 = g.add_relu("relu1", c1);
  g.add_concat("concat", {c1, r1});
  return g;
}

Graph relu_chain_net() {
  Graph g("chain");
  const int in = g.add_input("data", 3, 8, 8);
  const int c1 = g.add_conv("conv1", in, ConvParams{4, 3, 1, 1});
  const int r1 = g.add_relu("relu1", c1);
  const int d1 = g.add_dropout("drop1", r1);
  const int c2 = g.add_conv("conv2", d1, ConvParams{5, 1, 1, 0});
  g.add_relu("relu2", c2);
  return g;
}

template <typename T>
void moved_output_case(const Graph& g, const Weights<T>& w,
                       const Tensor<T>& in) {
  const auto oracle = ncsw::oracle::run_forward(g, w, in);
  for (const int threads : {1, 4}) {
    ExecOptions o;
    o.threads = threads;
    const auto r = run_forward(g, w, in, o);
    const std::string what =
        g.name() + " output, threads " + std::to_string(threads);
    expect_bytes_equal(r.output, oracle.back(), what.c_str());
  }
}

TEST(GoldenForward, ReluAndDropoutMoveOnlyFromTheirLastConsumer) {
  const TensorF in = random_tensor(Shape{2, 3, 8, 8}, 21);
  for (const Graph& g : {relu_shared_net(), relu_chain_net()}) {
    const WeightsF w = init_msra(g, 22);
    moved_output_case<float>(g, w, in);
    moved_output_case<half>(g, to_fp16(w),
                            ncsw::tensor::tensor_cast<half>(in));
  }
}

TEST(GoldenForward, ThreadsKnobDoesNotChangeOutput) {
  const Graph g = tiny_net();
  const WeightsF w = init_msra(g, 9);
  const TensorF in = random_tensor(Shape{2, 3, 16, 16}, 10);
  ExecOptions base;
  base.threads = 1;
  const auto r1 = run_forward(g, w, in, base);
  for (int t : {2, 3, 8}) {
    ExecOptions o;
    o.threads = t;
    const auto rt = run_forward(g, w, in, o);
    expect_bytes_equal(rt.output, r1.output,
                       ("threads=" + std::to_string(t)).c_str());
  }
}

TEST(GoldenForward, ProfileLayersRecordsPerLayerTimes) {
  const Graph g = tiny_net();
  const WeightsF w = init_msra(g, 11);
  const TensorF in = random_tensor(Shape{1, 3, 16, 16}, 12);
  ExecOptions o;
  o.profile_layers = true;
  const auto r = run_forward(g, w, in, o);
  ASSERT_EQ(r.layer_seconds.size(), static_cast<std::size_t>(g.size()));
  for (int id = 1; id < g.size(); ++id) {
    EXPECT_GE(r.layer_seconds[static_cast<std::size_t>(id)], 0.0);
  }
  // Profiling must not perturb the result.
  const auto plain = run_forward(g, w, in);
  expect_bytes_equal(r.output, plain.output, "profiled output");
}

}  // namespace