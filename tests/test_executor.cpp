#include "nn/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <new>
#include <thread>

#include "core/model.h"
#include "oracle/oracle.h"
#include "util/rng.h"

// Heap allocations made by any thread of the process, pool workers
// included, for the plan's zero-allocation test: every operator new in
// this binary goes through here. Not inlined, so the compiler never pairs
// the malloc/free inside with a new/delete expression at a call site.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace ncsw::nn;
using ncsw::fp16::half;
using ncsw::tensor::Shape;
using ncsw::tensor::Tensor;
using ncsw::tensor::TensorF;

Graph small_graph() {
  Graph g("small");
  const int in = g.add_input("data", 3, 8, 8);
  const int c1 = g.add_conv("conv1", in, ConvParams{4, 3, 1, 1});
  const int r1 = g.add_relu("relu1", c1);
  const int p1 = g.add_max_pool("pool1", r1, PoolParams{2, 2, 0, true, false});
  const int c2a = g.add_conv("conv2a", p1, ConvParams{2, 1, 1, 0});
  const int c2b = g.add_conv("conv2b", p1, ConvParams{3, 3, 1, 1});
  const int cat = g.add_concat("concat", {c2a, c2b});
  PoolParams gp;
  gp.global = true;
  const int pool = g.add_avg_pool("gap", cat, gp);
  const int drop = g.add_dropout("drop", pool);
  const int fc = g.add_fc("fc", drop, FCParams{6});
  g.add_softmax("prob", fc);
  return g;
}

TensorF random_input(const Shape& s, std::uint64_t seed) {
  ncsw::util::Xoshiro256 rng(seed);
  TensorF t(s);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

TEST(Executor, ForwardShapesAndSoftmaxOutput) {
  const Graph g = small_graph();
  const WeightsF w = init_msra(g, 1);
  const TensorF in = random_input(Shape{2, 3, 8, 8}, 2);
  const auto result = run_forward(g, w, in);
  ASSERT_EQ(result.output.shape(), (Shape{2, 6, 1, 1}));
  for (std::int64_t b = 0; b < 2; ++b) {
    double sum = 0;
    for (int c = 0; c < 6; ++c) sum += result.output.at(b, c, 0, 0);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Executor, RejectsWrongInputShape) {
  const Graph g = small_graph();
  const WeightsF w = init_msra(g, 1);
  EXPECT_THROW(run_forward(g, w, TensorF(Shape{1, 3, 9, 8})),
               std::invalid_argument);
  EXPECT_THROW(run_forward(g, w, TensorF(Shape{1, 4, 8, 8})),
               std::invalid_argument);
}

TEST(Executor, RejectsMissingWeights) {
  const Graph g = small_graph();
  WeightsF w = init_msra(g, 1);
  WeightsF incomplete;
  incomplete["conv1"] = w.at("conv1");
  EXPECT_THROW(run_forward(g, incomplete, TensorF(Shape{1, 3, 8, 8})),
               std::logic_error);
}

TEST(Executor, RejectsWrongWeightShape) {
  const Graph g = small_graph();
  WeightsF w = init_msra(g, 1);
  w["conv1"].w = TensorF(Shape{4, 3, 5, 5});
  EXPECT_THROW(run_forward(g, w, TensorF(Shape{1, 3, 8, 8})),
               std::logic_error);
}

TEST(Executor, KeepAllActivationsExposesEveryLayer) {
  const Graph g = small_graph();
  const WeightsF w = init_msra(g, 3);
  ExecOptions opts;
  opts.keep_all_activations = true;
  const auto result = run_forward(g, w, random_input(Shape{1, 3, 8, 8}, 4),
                                  opts);
  ASSERT_EQ(result.activations.size(), static_cast<std::size_t>(g.size()));
  for (int id = 0; id < g.size(); ++id) {
    EXPECT_EQ(result.activations[id].shape(),
              g.layer(id).out_shape.with_batch(1))
        << g.layer(id).name;
  }
}

TEST(Executor, DropoutIsIdentityAtInference) {
  Graph g;
  const int in = g.add_input("data", 2, 2, 2);
  g.add_dropout("drop", in);
  const TensorF input = random_input(Shape{1, 2, 2, 2}, 5);
  const auto result = run_forward(g, WeightsF{}, input);
  EXPECT_EQ(ncsw::tensor::max_abs_diff(result.output, input), 0.0);
}

TEST(Executor, DeterministicAcrossRuns) {
  const Graph g = small_graph();
  const WeightsF w = init_msra(g, 7);
  const TensorF in = random_input(Shape{1, 3, 8, 8}, 8);
  const auto a = run_forward(g, w, in);
  const auto b = run_forward(g, w, in);
  EXPECT_EQ(ncsw::tensor::max_abs_diff(a.output, b.output), 0.0);
}

TEST(Executor, BatchMatchesPerItemRuns) {
  const Graph g = small_graph();
  const WeightsF w = init_msra(g, 9);
  const TensorF x0 = random_input(Shape{1, 3, 8, 8}, 10);
  const TensorF x1 = random_input(Shape{1, 3, 8, 8}, 11);
  TensorF batch(Shape{2, 3, 8, 8});
  std::copy(x0.data(), x0.data() + x0.numel(), batch.batch_ptr(0));
  std::copy(x1.data(), x1.data() + x1.numel(), batch.batch_ptr(1));
  const auto rb = run_forward(g, w, batch);
  const auto r0 = run_forward(g, w, x0);
  const auto r1 = run_forward(g, w, x1);
  for (int c = 0; c < 6; ++c) {
    EXPECT_NEAR(rb.output.at(0, c, 0, 0), r0.output.at(0, c, 0, 0), 1e-6);
    EXPECT_NEAR(rb.output.at(1, c, 0, 0), r1.output.at(0, c, 0, 0), 1e-6);
  }
}

TEST(Executor, Fp16TracksFp32Closely) {
  const Graph g = small_graph();
  const WeightsF wf = init_msra(g, 12);
  const WeightsH wh = to_fp16(wf);
  const TensorF in = random_input(Shape{1, 3, 8, 8}, 13);
  const auto rf = run_forward(g, wf, in);
  const auto rh =
      run_forward(g, wh, ncsw::tensor::tensor_cast<half>(in));
  // Softmax probabilities differ by well under a percent.
  EXPECT_LT(ncsw::tensor::max_abs_diff(rf.output, rh.output), 0.01);
}

TEST(Executor, ProbabilitiesHelperMatchesForward) {
  const Graph g = small_graph();
  const WeightsF w = init_msra(g, 14);
  const TensorF in = random_input(Shape{3, 3, 8, 8}, 15);
  const auto probs = run_probabilities(g, w, in);
  const auto fwd = run_forward(g, w, in);
  ASSERT_EQ(probs.size(), 3u);
  for (std::int64_t b = 0; b < 3; ++b) {
    ASSERT_EQ(probs[b].size(), 6u);
    for (int c = 0; c < 6; ++c) {
      EXPECT_FLOAT_EQ(probs[b][c], fwd.output.at(b, c, 0, 0));
    }
  }
}

TEST(TopK, ArgmaxAndOrdering) {
  const std::vector<std::vector<float>> probs{{0.1f, 0.7f, 0.2f},
                                              {0.5f, 0.2f, 0.3f}};
  const auto arg = argmax_per_item(probs);
  EXPECT_EQ(arg[0], 1);
  EXPECT_EQ(arg[1], 0);

  const auto top = top_k(probs[0], 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 1);
  EXPECT_FLOAT_EQ(top[0].second, 0.7f);
  EXPECT_EQ(top[1].first, 2);
}

TEST(TopK, TiesBrokenByLowerIndex) {
  const auto top = top_k({0.4f, 0.4f, 0.2f}, 3);
  EXPECT_EQ(top[0].first, 0);
  EXPECT_EQ(top[1].first, 1);
}

TEST(TopK, KLargerThanSizeClamps) {
  const auto top = top_k({0.9f, 0.1f}, 10);
  EXPECT_EQ(top.size(), 2u);
}

TEST(TopK, NonPositiveKGivesEmpty) {
  EXPECT_TRUE(top_k({0.5f, 0.5f}, 0).empty());
  EXPECT_TRUE(top_k({0.5f, 0.5f}, -3).empty());
}

TEST(Weights, Fp16ConversionRoundsEveryEntry) {
  Graph g;
  const int in = g.add_input("data", 1, 4, 4);
  g.add_conv("c", in, ConvParams{2, 3, 1, 1});
  WeightsF wf = init_msra(g, 20);
  const WeightsH wh = to_fp16(wf);
  const auto& pf = wf.at("c");
  const auto& ph = wh.at("c");
  for (std::int64_t i = 0; i < pf.w.numel(); ++i) {
    EXPECT_FLOAT_EQ(static_cast<float>(ph.w[i]),
                    ncsw::fp16::round_to_half(pf.w[i]));
  }
}

TEST(Weights, MsraStatisticsMatchFanIn) {
  Graph g;
  const int in = g.add_input("data", 8, 16, 16);
  g.add_conv("c", in, ConvParams{64, 3, 1, 1});
  const WeightsF w = init_msra(g, 33);
  const auto& p = w.at("c");
  double sum = 0, sumsq = 0;
  for (std::int64_t i = 0; i < p.w.numel(); ++i) {
    sum += p.w[i];
    sumsq += static_cast<double>(p.w[i]) * p.w[i];
  }
  const double n = static_cast<double>(p.w.numel());
  const double expected_var = 2.0 / (8 * 3 * 3);
  EXPECT_NEAR(sum / n, 0.0, 0.005);
  EXPECT_NEAR(sumsq / n, expected_var, expected_var * 0.1);
  // Biases are zero.
  for (std::int64_t i = 0; i < p.b.numel(); ++i) EXPECT_EQ(p.b[i], 0.0f);
}

TEST(Weights, ParamShapesForConvAndFc) {
  Graph g;
  const int in = g.add_input("data", 3, 8, 8);
  const int c = g.add_conv("c", in, ConvParams{5, 3, 1, 1});
  const int fc = g.add_fc("fc", c, FCParams{7});
  const auto [cw, cb] = param_shapes(g, c);
  EXPECT_EQ(cw, (Shape{5, 3, 3, 3}));
  EXPECT_EQ(cb, (Shape{1, 5, 1, 1}));
  const auto [fw, fb] = param_shapes(g, fc);
  EXPECT_EQ(fw, (Shape{7, 5 * 8 * 8, 1, 1}));
  EXPECT_EQ(fb, (Shape{1, 7, 1, 1}));
  EXPECT_THROW(param_shapes(g, 0), std::logic_error);
}

// --- Plan: compile once, run many ----------------------------------------

template <typename T>
void expect_bytes_equal(const Tensor<T>& a, const Tensor<T>& b,
                        const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(T)))
      << what;
}

// The Fig. 7 classifier and eight preprocessed dataset images.
struct Fig7 {
  std::shared_ptr<const ncsw::core::ModelBundle> bundle;
  TensorF batch;
};

const Fig7& fig7() {
  static const Fig7 f = [] {
    const ncsw::dataset::SyntheticImageNet data{
        ncsw::dataset::DatasetConfig{}};
    Fig7 c{ncsw::core::ModelBundle::tiny_functional(data), {}};
    const Graph& g = c.bundle->graph;
    const Shape shape = g.layer(g.input_id()).out_shape.with_batch(8);
    c.batch = TensorF(shape);
    for (std::int64_t b = 0; b < shape.n; ++b) {
      const auto img = data.preprocess(
          data.sample(static_cast<int>(b % 2), static_cast<int>(b)).image,
          static_cast<int>(shape.h));
      std::copy(img.data(), img.data() + img.numel(), c.batch.batch_ptr(b));
    }
    return c;
  }();
  return f;
}

// The first `n` images of `t`.
template <typename T>
Tensor<T> first_items(const Tensor<T>& t, std::int64_t n) {
  Tensor<T> out(t.shape().with_batch(n));
  std::copy(t.data(), t.data() + out.numel(), out.data());
  return out;
}

template <typename T>
void plan_matches_oracle(const Graph& g, const Weights<T>& w,
                         const Tensor<T>& in) {
  const auto oracle = ncsw::oracle::run_forward(g, w, in);
  const Plan<T> plan(g, w);
  ExecResult<T> r;
  ExecOptions serial;
  serial.threads = 1;
  plan.run(in, r, serial);
  const std::string what = g.name() + " batch " +
                           std::to_string(in.shape().n);
  expect_bytes_equal(r.output, oracle.back(), what + " output");
  ExecOptions keep = serial;
  keep.keep_all_activations = true;
  plan.run(in, r, keep);
  ASSERT_EQ(r.activations.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    expect_bytes_equal(r.activations[i], oracle[i],
                       what + " layer " + g.layer(static_cast<int>(i)).name);
  }
  expect_bytes_equal(r.output, oracle.back(), what + " kept output");
}

TEST(Plan, MatchesOracleOnTinyGoogLeNetBothPrecisionsBatch1And8) {
  const Fig7& f = fig7();
  for (const std::int64_t n : {1, 8}) {
    const TensorF in = first_items(f.batch, n);
    plan_matches_oracle<float>(f.bundle->graph, f.bundle->weights_f32, in);
    plan_matches_oracle<half>(f.bundle->graph, f.bundle->weights_f16,
                              ncsw::tensor::tensor_cast<half>(in));
  }
}

TEST(Plan, MatchesOracleOnReluMoveGraphs) {
  // "shared": relu1 is not conv1's last consumer, so it must copy.
  // "chain": every ReLU and the Dropout runs in its input's slot.
  Graph shared("shared");
  {
    const int in = shared.add_input("data", 3, 8, 8);
    const int c1 = shared.add_conv("conv1", in, ConvParams{4, 3, 1, 1});
    const int r1 = shared.add_relu("relu1", c1);
    shared.add_concat("concat", {c1, r1});
  }
  Graph chain("chain");
  {
    const int in = chain.add_input("data", 3, 8, 8);
    const int c1 = chain.add_conv("conv1", in, ConvParams{4, 3, 1, 1});
    const int r1 = chain.add_relu("relu1", c1);
    const int d1 = chain.add_dropout("drop1", r1);
    const int c2 = chain.add_conv("conv2", d1, ConvParams{5, 1, 1, 0});
    chain.add_relu("relu2", c2);
  }
  const TensorF in = random_input(Shape{2, 3, 8, 8}, 21);
  for (const Graph* g : {&shared, &chain}) {
    const WeightsF w = init_msra(*g, 22);
    plan_matches_oracle<float>(*g, w, in);
    plan_matches_oracle<half>(*g, to_fp16(w),
                              ncsw::tensor::tensor_cast<half>(in));
  }
  // chain's five non-input layers need two slots; shared's three, three.
  EXPECT_EQ(Plan<float>(chain, init_msra(chain, 22)).slot_count(), 2);
  EXPECT_EQ(Plan<float>(shared, init_msra(shared, 22)).slot_count(), 3);
}

// --- conv + ReLU fusion (both tiers) -------------------------------------

// A fused run (serial and threaded) against the oracle and against a
// keep_all_activations run of the same plan, which runs every ReLU on
// its own.
template <typename T>
void fused_run_matches(const Plan<T>& plan, const Weights<T>& w,
                       const Tensor<T>& in, const std::string& what) {
  const auto oracle = ncsw::oracle::run_forward(plan.graph(), w, in);
  ExecOptions keep;
  keep.threads = 1;
  keep.keep_all_activations = true;
  ExecResult<T> kept;
  plan.run(in, kept, keep);
  expect_bytes_equal(kept.output, oracle.back(), what + " keep_all");
  for (const int threads : {1, 4}) {
    ExecOptions opts;
    opts.threads = threads;
    ExecResult<T> r;
    plan.run(in, r, opts);
    const std::string at = what + " threads " + std::to_string(threads);
    expect_bytes_equal(r.output, oracle.back(), at + " vs oracle");
    expect_bytes_equal(r.output, kept.output, at + " vs keep_all");
  }
}

TEST(Plan, FusedReluMatchesOracleAndKeepAllOnTinyGoogLeNet) {
  const Fig7& f = fig7();
  const Graph& g = f.bundle->graph;
  const Plan<float> plan32(g, f.bundle->weights_f32);
  const Plan<half> plan16(g, f.bundle->weights_f16);
  // Every conv of the network feeds exactly one ReLU, so all fuse.
  int convs = 0;
  for (int id = 0; id < g.size(); ++id) {
    if (g.layer(id).kind != LayerKind::kConv) continue;
    ++convs;
    EXPECT_TRUE(plan32.fuses_relu(id)) << g.layer(id).name;
    EXPECT_TRUE(plan16.fuses_relu(id)) << g.layer(id).name;
  }
  EXPECT_GT(convs, 10);
  fused_run_matches(plan32, f.bundle->weights_f32, f.batch, "tiny fp32");
  fused_run_matches(plan16, f.bundle->weights_f16,
                    ncsw::tensor::tensor_cast<half>(f.batch), "tiny fp16");
}

TEST(Plan, ConvWithTwoConsumersStaysUnfused) {
  // conv1 feeds relu1 and conv2: a fused ReLU would hand conv2 clamped
  // inputs. conv2's only consumer is relu2, which fuses.
  Graph g("forked");
  const int in = g.add_input("data", 3, 7, 6);
  const int c1 = g.add_conv("conv1", in, ConvParams{4, 3, 1, 1});
  const int r1 = g.add_relu("relu1", c1);
  const int c2 = g.add_conv("conv2", c1, ConvParams{5, 3, 2, 1});
  const int r2 = g.add_relu("relu2", c2);
  const int p1 = g.add_max_pool("pool1", r1, PoolParams{2, 2, 0, true, false});
  g.add_concat("concat", {p1, r2});
  const WeightsF w = init_msra(g, 31);
  const TensorF x = random_input(Shape{2, 3, 7, 6}, 32);
  const Plan<float> plan32(g, w);
  const WeightsH wh = to_fp16(w);
  const Plan<half> plan16(g, wh);
  EXPECT_FALSE(plan32.fuses_relu(c1));
  EXPECT_TRUE(plan32.fuses_relu(c2));
  EXPECT_FALSE(plan16.fuses_relu(c1));
  EXPECT_TRUE(plan16.fuses_relu(c2));
  fused_run_matches(plan32, w, x, "forked fp32");
  fused_run_matches(plan16, wh, ncsw::tensor::tensor_cast<half>(x),
                    "forked fp16");
}

TEST(Plan, FusedFp16ReluKeepsABiasedSumThatRoundsToMinusZero) {
  // Inputs 2^-14, weights -2^-18 and a -0 bias: each accumulator is
  // -(taps * 2^-32), which rounds to the half -0; -0 + -0 is -0, and the
  // ReLU, applied after the final rounding, keeps it. A ReLU on the FP32
  // accumulator would give +0 + -0 = +0 instead.
  Graph g("minus_zero");
  const int in = g.add_input("data", 2, 5, 4);
  const int c = g.add_conv("conv", in, ConvParams{3, 3, 1, 1});
  g.add_relu("relu", c);
  WeightsH w = to_fp16(init_msra(g, 41));
  auto& p = w["conv"];
  for (std::int64_t i = 0; i < p.w.numel(); ++i) {
    p.w[i] = half(-0x1p-18f);
  }
  for (std::int64_t i = 0; i < p.b.numel(); ++i) p.b[i] = half(-0.0f);
  Tensor<half> x(Shape{2, 2, 5, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = half(0x1p-14f);
  const Plan<half> plan(g, w);
  ASSERT_TRUE(plan.fuses_relu(c));
  fused_run_matches(plan, w, x, "minus zero");
  ExecOptions serial;
  serial.threads = 1;
  const Tensor<half> out = plan.run(x, serial).output;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    ASSERT_EQ(out[i].bits(), 0x8000u) << "element " << i;
  }
}

TEST(Plan, RunningTwiceGivesIdenticalBytes) {
  const Fig7& f = fig7();
  const Plan<half> plan(f.bundle->graph, f.bundle->weights_f16);
  const auto in = ncsw::tensor::tensor_cast<half>(f.batch);
  ExecResult<half> r;
  plan.run(in, r);
  const Tensor<half> first = r.output;
  plan.run(first_items(in, 3), r);  // a different batch size in between
  plan.run(in, r);
  expect_bytes_equal(r.output, first, "second run");
}

TEST(Plan, BadWeightShapeThrowsAtBuildWrongInputShapeAtRun) {
  const Graph g = small_graph();
  WeightsF bad = init_msra(g, 1);
  bad["conv1"].w = TensorF(Shape{4, 3, 5, 5});
  EXPECT_THROW(Plan<float>(g, bad), std::logic_error);
  const WeightsF w = init_msra(g, 1);
  const Plan<float> plan(g, w);
  EXPECT_THROW(plan.run(TensorF(Shape{1, 3, 9, 8})), std::invalid_argument);
  EXPECT_THROW(plan.run(TensorF(Shape{1, 4, 8, 8})), std::invalid_argument);
}

// A graph whose conv, LRN and pool each hold far more than the fan-out
// grain per image, so a pass at threads > 1 splits them on the pool.
Graph wide_graph() {
  Graph g("wide");
  const int in = g.add_input("data", 32, 56, 56);
  const int c1 = g.add_conv("conv1", in, ConvParams{32, 3, 1, 1});
  const int r1 = g.add_relu("relu1", c1);
  const int n1 = g.add_lrn("norm1", r1, LRNParams{});
  const int p1 = g.add_max_pool("pool1", n1, PoolParams{3, 1, 1, true, false});
  const int c2 = g.add_conv("conv2", p1, ConvParams{16, 1, 1, 0});
  const int r2 = g.add_relu("relu2", c2);
  PoolParams gp;
  gp.global = true;
  const int gap = g.add_avg_pool("gap", r2, gp);
  const int fc = g.add_fc("fc", gap, FCParams{10});
  g.add_softmax("prob", fc);
  return g;
}

// Every worker of kernels::compute_pool() held busy until release():
// while held, no fan-out from another thread can finish, so a pass that
// finishes made no pool submission.
class HeldPool {
 public:
  HeldPool() {
    while (held_.load() < kernels::compute_pool().size()) {
      std::this_thread::yield();
    }
  }
  HeldPool(const HeldPool&) = delete;
  HeldPool& operator=(const HeldPool&) = delete;
  ~HeldPool() {
    release();
    holder_.join();
  }
  void release() {
    if (!released_.exchange(true)) open_.set_value();
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> gate_ = open_.get_future().share();
  std::atomic<std::size_t> held_{0};
  std::atomic<bool> released_{false};
  std::thread holder_{[this] {
    ncsw::util::ThreadPool& pool = kernels::compute_pool();
    pool.fan_out(pool.size() + 1, [this](std::size_t t) {
      if (t == 0) return;  // the holder's own chunk
      held_.fetch_add(1);
      gate_.wait();
    });
  }};
};

// Whether `pass` finishes within `wait` while every pool worker is held;
// the pass is then let finish either way.
template <typename Pass>
bool finishes_with_pool_held(const Pass& pass, std::chrono::milliseconds wait) {
  HeldPool held;
  auto done = std::async(std::launch::async, pass);
  const bool finished = done.wait_for(wait) == std::future_status::ready;
  held.release();
  done.get();
  return finished;
}

TEST(Plan, LayersBelowTheGrainMakeNoPoolSubmission) {
  // Every TinyGoogLeNet layer is below the grain, even at batch 8, so a
  // pass at 4 threads runs inline on the caller.
  const Fig7& f = fig7();
  const Plan<float> plan32(f.bundle->graph, f.bundle->weights_f32);
  const Plan<half> plan16(f.bundle->graph, f.bundle->weights_f16);
  const auto in16 = ncsw::tensor::tensor_cast<half>(f.batch);
  ExecOptions four;
  four.threads = 4;
  ExecResult<float> r32;
  ExecResult<half> r16;
  EXPECT_TRUE(finishes_with_pool_held(
      [&] { plan32.run(f.batch, r32, four); }, std::chrono::seconds(20)))
      << "FP32";
  EXPECT_TRUE(finishes_with_pool_held(
      [&] { plan16.run(in16, r16, four); }, std::chrono::seconds(20)))
      << "FP16";
  // Negative controls: the same stem conv split 4 ways by the kernel
  // itself, and a plan whose layers are above the grain, wait for the
  // held workers.
  const Graph& g = f.bundle->graph;
  int conv1 = -1;
  for (int id = 0; id < g.size() && conv1 < 0; ++id) {
    if (g.layer(id).kind == LayerKind::kConv) conv1 = id;
  }
  ASSERT_GE(conv1, 0);
  const Layer& stem = g.layer(conv1);
  const kernels::LayerWeights lw(f.bundle->weights_f32.at(stem.name));
  kernels::Workspace ws;
  kernels::ExecCtx split;
  split.ws = &ws;
  split.threads = 4;
  TensorF out;
  EXPECT_FALSE(finishes_with_pool_held(
      [&] { kernels::conv2d(f.batch, lw, stem.conv, out, split); },
      std::chrono::milliseconds(200)));
  const Graph wide = wide_graph();
  const WeightsF ww = init_msra(wide, 51);
  const Plan<float> wide_plan(wide, ww);
  const TensorF wide_in = random_input(Shape{1, 32, 56, 56}, 52);
  ExecResult<float> rw;
  EXPECT_FALSE(finishes_with_pool_held(
      [&] { wide_plan.run(wide_in, rw, four); },
      std::chrono::milliseconds(200)));
}

TEST(Plan, LayersAboveTheGrainMatchOracleAtEveryThreadCount) {
  const Graph g = wide_graph();
  const WeightsF w = init_msra(g, 53);
  const WeightsH wh = to_fp16(w);
  const TensorF in = random_input(Shape{2, 32, 56, 56}, 54);
  const Tensor<half> in16 = ncsw::tensor::tensor_cast<half>(in);
  const auto oracle32 = ncsw::oracle::run_forward(g, w, in);
  const auto oracle16 = ncsw::oracle::run_forward(g, wh, in16);
  const Plan<float> plan32(g, w);
  const Plan<half> plan16(g, wh);
  for (const int threads : {1, 2, 3, 4, 8}) {
    ExecOptions o;
    o.threads = threads;
    const std::string at = "threads " + std::to_string(threads);
    expect_bytes_equal(plan32.run(in, o).output, oracle32.back(),
                       "wide fp32 " + at);
    expect_bytes_equal(plan16.run(in16, o).output, oracle16.back(),
                       "wide fp16 " + at);
  }
}

TEST(Plan, SteadyStateRunMakesNoHeapAllocation) {
  const Fig7& f = fig7();
  const auto in16 = ncsw::tensor::tensor_cast<half>(f.batch);
  const Graph wide = wide_graph();
  const WeightsF wide_w = init_msra(wide, 55);
  const WeightsH wide_wh = to_fp16(wide_w);
  const TensorF wide_in = random_input(Shape{1, 32, 56, 56}, 56);
  const auto wide_in16 = ncsw::tensor::tensor_cast<half>(wide_in);
  const Plan<float> plan32(f.bundle->graph, f.bundle->weights_f32);
  const Plan<half> plan16(f.bundle->graph, f.bundle->weights_f16);
  const Plan<float> wide32(wide, wide_w);
  const Plan<half> wide16(wide, wide_wh);
  ExecResult<float> r32;
  ExecResult<half> r16;
  // At 4 threads the wide plan's layers fan out on the pool; the counter
  // sees the workers' allocations too.
  for (const int threads : {1, 4}) {
    ExecOptions opts;
    opts.threads = threads;
    const std::string at = " threads " + std::to_string(threads);
    const auto allocations = [&](const auto& pass) {
      pass();  // warm-up grows the workspace
      const std::size_t before = g_allocations.load();
      pass();
      return g_allocations.load() - before;
    };
    EXPECT_EQ(allocations([&] { plan32.run(f.batch, r32, opts); }), 0u)
        << "FP32" << at;
    EXPECT_EQ(allocations([&] { plan16.run(in16, r16, opts); }), 0u)
        << "FP16" << at;
    EXPECT_EQ(allocations([&] { wide32.run(wide_in, r32, opts); }), 0u)
        << "wide FP32" << at;
    EXPECT_EQ(allocations([&] { wide16.run(wide_in16, r16, opts); }), 0u)
        << "wide FP16" << at;
  }
  // Negative controls: the one-shot wrapper builds a plan (and a result)
  // per call, and an allocation inside a chunk on a pool worker counts.
  ExecOptions serial;
  serial.threads = 1;
  std::size_t before = g_allocations.load();
  (void)run_forward(f.bundle->graph, f.bundle->weights_f16, in16, serial);
  EXPECT_GT(g_allocations.load() - before, 0u);
  static std::atomic<int*> escaped{nullptr};  // keeps the new observable
  before = g_allocations.load();
  kernels::compute_pool().fan_out(2, [](std::size_t t) {
    if (t == 1) escaped = new int(1);
  });
  EXPECT_EQ(g_allocations.load() - before, 1u);
  delete escaped.exchange(nullptr);
}

TEST(Plan, OnePlanServesTwoThreadsAtOnce) {
  const Fig7& f = fig7();
  const Plan<half> plan(f.bundle->graph, f.bundle->weights_f16);
  const auto in = ncsw::tensor::tensor_cast<half>(f.batch);
  ExecOptions serial;
  serial.threads = 1;
  const Tensor<half> want = plan.run(in, serial).output;
  std::vector<Tensor<half>> got(2);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t) {
      threads.emplace_back([&, t] {
        ExecResult<half> r;
        for (int pass = 0; pass < 3; ++pass) plan.run(in, r, serial);
        got[t] = r.output;
      });
    }
    for (auto& th : threads) th.join();
  }
  for (const auto& g : got) expect_bytes_equal(g, want, "concurrent run");
}

TEST(Plan, PreparedWeightsPerLayer) {
  // Conv/FC layers resolve by id to FP32 views of their own tensors (no
  // copy); other layers have none.
  const Graph g = small_graph();
  const WeightsF w = init_msra(g, 7);
  const Plan<float> plan(g, w);
  for (int id = 0; id < g.size(); ++id) {
    const Layer& l = g.layer(id);
    const kernels::LayerWeights* lw = plan.layer_weights(id);
    if (!Graph::has_weights(l.kind)) {
      EXPECT_EQ(lw, nullptr) << l.name;
      continue;
    }
    ASSERT_NE(lw, nullptr) << l.name;
    EXPECT_EQ(lw->shape(), w.at(l.name).w.shape()) << l.name;
    EXPECT_EQ(lw->w(), w.at(l.name).w.data()) << l.name;
    EXPECT_EQ(lw->b(), w.at(l.name).b.data()) << l.name;
  }
  EXPECT_EQ(plan.layer_weights(g.size()), nullptr);
}

TEST(Plan, Fp16WeightsWidenExactly) {
  const Graph g = small_graph();
  const WeightsH wh = to_fp16(init_msra(g, 8));
  const Plan<half> plan(g, wh);
  for (int id = 0; id < g.size(); ++id) {
    const Layer& l = g.layer(id);
    if (!Graph::has_weights(l.kind)) continue;
    const kernels::LayerWeights* lw = plan.layer_weights(id);
    ASSERT_NE(lw, nullptr) << l.name;
    const auto& p = wh.at(l.name);
    for (std::int64_t i = 0; i < p.w.numel(); ++i) {
      ASSERT_EQ(lw->w()[i], p.w[i].to_float()) << l.name << " w" << i;
    }
    for (std::int64_t i = 0; i < p.b.numel(); ++i) {
      ASSERT_EQ(lw->b()[i], p.b[i].to_float()) << l.name << " b" << i;
    }
  }
}

}  // namespace
