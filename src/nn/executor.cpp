#include "nn/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "util/trace.h"

namespace ncsw::nn {

int resolve_threads(int requested) noexcept {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("NCSW_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<int>(v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

// The least work worth a chunk, in conv multiply-adds (~60 us of the
// exact GEMM). An empty fan-out on 4 workers takes ~17 us, mostly waking
// them (x86-64-v4), so every chunk stays several times that cost and
// every TinyGoogLeNet layer runs inline.
constexpr std::int64_t kGrain = 1 << 20;

bool resolve_fast(bool requested) noexcept {
  if (requested) return true;
  const char* env = std::getenv("NCSW_FAST");
  if (!env) return false;
  const std::string_view v(env);
  return v == "1" || v == "true" || v == "on";
}

template <typename T>
Plan<T>::Plan(const Graph& graph, const Weights<T>& weights, bool fast)
    : graph_(&graph), fast_(fast) {
  graph.validate();
  check_weights(graph, weights);
  const auto at = [](int id) { return static_cast<std::size_t>(id); };
  const int n = graph.size();
  const int in_id = graph.input_id();
  // Consumers and the last consumer of every activation; the caller
  // consumes the output after the last layer.
  std::vector<int> consumers(at(n), 0), last_use(at(n), 0);
  for (int id = 0; id < n; ++id) {
    for (const int in : graph.layer(id).inputs) {
      ++consumers[at(in)];
      last_use[at(in)] = id;
    }
  }
  ++consumers[at(graph.output_id())];
  last_use[at(graph.output_id())] = n;

  steps_.resize(at(n));
  std::vector<int> free_slots;
  for (int id = 0; id < n; ++id) {
    const Layer& l = graph.layer(id);
    Step& s = steps_[at(id)];
    if (id == in_id) continue;  // the caller's tensor, never a slot
    if (Graph::has_weights(l.kind)) {
      s.weights = static_cast<int>(weights_.size());
      weights_.emplace_back(weights.at(l.name));
    }
    const int src = l.inputs[0];
    // Per-image work in conv multiply-adds: a pool's taps cost ~4 of the
    // GEMM's multiply-adds and an LRN's operations ~12 (measured).
    const bool pool =
        l.kind == LayerKind::kMaxPool || l.kind == LayerKind::kAvgPool;
    s.work = layer_macs(graph, id) *
             (pool ? 4 : l.kind == LayerKind::kLRN ? 12 : 1);
    if (l.kind == LayerKind::kConv) {
      s.conv = static_cast<int>(convs_.size());
      convs_.emplace_back(graph.layer(src).out_shape, l.conv);
    }
    // A ReLU or Dropout that is the last consumer of its input runs in
    // the input's slot instead of copying it (the caller's input and the
    // graph output must survive the layer).
    s.take = (l.kind == LayerKind::kReLU || l.kind == LayerKind::kDropout) &&
             src != in_id && last_use[at(src)] == id;
    // A ReLU that is its Conv's only consumer runs in the conv's
    // epilogue and becomes a no-op here.
    if (l.kind == LayerKind::kReLU &&
        graph.layer(src).kind == LayerKind::kConv && consumers[at(src)] == 1) {
      steps_[at(src)].fuse_relu = true;
      s.fused_away = true;
    }
    if (s.take) {
      s.slot = steps_[at(src)].slot;
      continue;
    }
    if (free_slots.empty()) {
      s.slot = slots_++;
    } else {
      s.slot = free_slots.back();
      free_slots.pop_back();
    }
    // Inputs whose last consumer this is release their slots, each once.
    for (auto it = l.inputs.begin(); it != l.inputs.end(); ++it) {
      if (*it != in_id && last_use[at(*it)] == id &&
          std::find(l.inputs.begin(), it, *it) == it) {
        free_slots.push_back(steps_[at(*it)].slot);
      }
    }
  }
}

template <typename T>
const kernels::LayerWeights* Plan<T>::layer_weights(int id) const noexcept {
  if (id < 0 || id >= graph_->size()) return nullptr;
  const int w = steps_[static_cast<std::size_t>(id)].weights;
  return w < 0 ? nullptr : &weights_[static_cast<std::size_t>(w)];
}

template <typename T>
void Plan<T>::run(const tensor::Tensor<T>& input, ExecResult<T>& result,
                  const ExecOptions& options) const {
  const Graph& graph = *graph_;
  const auto at = [](int id) { return static_cast<std::size_t>(id); };
  const int in_id = graph.input_id();
  const Shape expected =
      graph.layer(in_id).out_shape.with_batch(input.shape().n);
  if (input.shape() != expected) {
    throw std::invalid_argument("nn::Plan::run: input shape " +
                                input.shape().to_string() + ", expected " +
                                expected.to_string());
  }

  // One workspace per executing thread: the scratch arenas and the
  // activation slots grow to the largest pass on first use and are
  // reused by every later pass.
  thread_local kernels::Workspace workspace;
  const std::int64_t threads = resolve_threads(options.threads);
  const std::int64_t batch = input.shape().n;
  kernels::ExecCtx ctx;
  ctx.ws = &workspace;
  ctx.fast = fast_;

  // keep_all_activations gives every layer its own tensor in the result
  // and turns off fusion and the in-place layers, so each activation
  // keeps its unfused meaning.
  const bool keep_all = options.keep_all_activations;
  auto& slots = workspace.slots<T>();
  if (keep_all) {
    result.activations.resize(at(graph.size()));
    result.activations[at(in_id)] = input;
  } else {
    result.activations.clear();
    if (slots.tensors.size() < at(slots_)) slots.tensors.resize(at(slots_));
  }
  const auto act = [&](int id) -> tensor::Tensor<T>& {
    return keep_all ? result.activations[at(id)]
                    : slots.tensors[at(steps_[at(id)].slot)];
  };
  const auto src_of = [&](int id) -> const tensor::Tensor<T>& {
    return !keep_all && id == in_id ? input : act(id);
  };

  using Clock = std::chrono::steady_clock;
  const bool profile = options.profile_layers;
  Clock::time_point pass_start{};
  if (profile) {
    result.layer_seconds.assign(at(graph.size()), 0.0);
    pass_start = Clock::now();
  } else {
    result.layer_seconds.clear();
  }

  for (int id = 0; id < graph.size(); ++id) {
    if (id == in_id) continue;
    const Layer& l = graph.layer(id);
    const Step& s = steps_[at(id)];
    const tensor::Tensor<T>& src = src_of(l.inputs[0]);
    tensor::Tensor<T>& dst = act(id);
    const bool in_place = s.take && !keep_all;
    // A conv or an LRN fans out per image, a pool or a ReLU per batch.
    const bool per_image =
        l.kind == LayerKind::kConv || l.kind == LayerKind::kLRN;
    const std::int64_t work = per_image ? s.work : s.work * batch;
    ctx.threads = static_cast<int>(
        std::clamp<std::int64_t>((work + kGrain - 1) / kGrain, 1, threads));
    const Clock::time_point t0 = profile ? Clock::now() : Clock::time_point{};
    switch (l.kind) {
      case LayerKind::kInput:
        throw std::logic_error("nn::Plan::run: unexpected input layer");
      case LayerKind::kConv:
        kernels::conv2d(src, weights_[at(s.weights)], convs_[at(s.conv)],
                        s.fuse_relu && !keep_all, dst, ctx);
        break;
      case LayerKind::kReLU:
        if (!in_place) dst = src;
        // A fused ReLU already ran in the producing layer's epilogue.
        if (!s.fused_away || keep_all) kernels::relu(dst, ctx);
        break;
      case LayerKind::kMaxPool:
        kernels::max_pool(src, l.pool, dst, ctx);
        break;
      case LayerKind::kAvgPool:
        kernels::avg_pool(src, l.pool, dst, ctx);
        break;
      case LayerKind::kLRN:
        kernels::lrn(src, l.lrn, dst, ctx);
        break;
      case LayerKind::kConcat:
        slots.ins.clear();
        for (const int in : l.inputs) slots.ins.push_back(&src_of(in));
        kernels::concat(slots.ins, dst);
        break;
      case LayerKind::kFC:
        kernels::fully_connected(src, weights_[at(s.weights)], l.fc, dst, ctx);
        break;
      case LayerKind::kSoftmax:
        kernels::softmax(src, dst, ctx);
        break;
      case LayerKind::kDropout:
        if (!in_place) dst = src;  // inference-time identity
        break;
    }
    if (profile) {
      const Clock::time_point t1 = Clock::now();
      const double dt = std::chrono::duration<double>(t1 - t0).count();
      result.layer_seconds[at(id)] = dt;
      // Wall-clock spans live in their own "host" category/lane so they
      // never mix with the simulated-clock device timelines.
      util::Tracer& tr = util::tracer();
      if (tr.enabled()) {
        const double s0 = std::chrono::duration<double>(t0 - pass_start).count();
        tr.complete("host", l.name, tr.lane("host compute"), s0, s0 + dt,
                    {util::TraceArg::str("kind", layer_kind_name(l.kind)),
                     util::TraceArg::num("chunks",
                                         static_cast<std::int64_t>(ctx.threads))});
      }
    }
    // Sanity: computed shape must match the inferred one.
    const Shape want = l.out_shape.with_batch(batch);
    if (dst.shape() != want) {
      throw std::logic_error("nn::Plan::run: layer '" + l.name +
                             "' produced " + dst.shape().to_string() +
                             ", inferred " + want.to_string());
    }
  }
  result.output = src_of(graph.output_id());
}

template <typename T>
ExecResult<T> Plan<T>::run(const tensor::Tensor<T>& input,
                           const ExecOptions& options) const {
  ExecResult<T> result;
  run(input, result, options);
  return result;
}

template <typename T>
ExecResult<T> run_forward(const Graph& graph, const Weights<T>& weights,
                          const tensor::Tensor<T>& input,
                          const ExecOptions& options) {
  return Plan<T>(graph, weights, resolve_fast(options.fast))
      .run(input, options);
}

template <typename T>
std::vector<std::vector<float>> run_probabilities(
    const Plan<T>& plan, const tensor::Tensor<T>& input,
    const ExecOptions& options) {
  const auto result = plan.run(input, options);
  const auto& out = result.output;
  const std::int64_t batch = out.shape().n;
  const std::int64_t dim = out.shape().chw();
  std::vector<std::vector<float>> probs(static_cast<std::size_t>(batch));
  for (std::int64_t b = 0; b < batch; ++b) {
    auto& row = probs[static_cast<std::size_t>(b)];
    row.resize(static_cast<std::size_t>(dim));
    const T* src = out.batch_ptr(b);
    if constexpr (std::is_same_v<T, float>) {
      std::copy(src, src + dim, row.begin());
    } else {
      ncsw::fp16::half_to_float_span(src, row.data(),
                                     static_cast<std::size_t>(dim));
    }
  }
  return probs;
}

template <typename T>
std::vector<std::vector<float>> run_probabilities(
    const Graph& graph, const Weights<T>& weights,
    const tensor::Tensor<T>& input, const ExecOptions& options) {
  return run_probabilities(
      Plan<T>(graph, weights, resolve_fast(options.fast)), input, options);
}

std::vector<int> argmax_per_item(
    const std::vector<std::vector<float>>& probs) {
  std::vector<int> out;
  out.reserve(probs.size());
  for (const auto& row : probs) {
    const auto it = std::max_element(row.begin(), row.end());
    out.push_back(static_cast<int>(it - row.begin()));
  }
  return out;
}

std::vector<std::pair<int, float>> top_k(const std::vector<float>& probs,
                                         int k) {
  std::vector<std::pair<int, float>> items;
  items.reserve(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    items.emplace_back(static_cast<int>(i), probs[i]);
  }
  const std::size_t kk = std::min<std::size_t>(static_cast<std::size_t>(std::max(k, 0)), items.size());
  std::partial_sort(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(kk),
                    items.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  items.resize(kk);
  return items;
}

template class Plan<float>;
template class Plan<ncsw::fp16::half>;
template ExecResult<float> run_forward<float>(const Graph&,
                                              const Weights<float>&,
                                              const tensor::Tensor<float>&,
                                              const ExecOptions&);
template ExecResult<ncsw::fp16::half> run_forward<ncsw::fp16::half>(
    const Graph&, const Weights<ncsw::fp16::half>&,
    const tensor::Tensor<ncsw::fp16::half>&, const ExecOptions&);
template std::vector<std::vector<float>> run_probabilities<float>(
    const Plan<float>&, const tensor::Tensor<float>&, const ExecOptions&);
template std::vector<std::vector<float>> run_probabilities<ncsw::fp16::half>(
    const Plan<ncsw::fp16::half>&, const tensor::Tensor<ncsw::fp16::half>&,
    const ExecOptions&);
template std::vector<std::vector<float>> run_probabilities<float>(
    const Graph&, const Weights<float>&, const tensor::Tensor<float>&,
    const ExecOptions&);
template std::vector<std::vector<float>> run_probabilities<ncsw::fp16::half>(
    const Graph&, const Weights<ncsw::fp16::half>&,
    const tensor::Tensor<ncsw::fp16::half>&, const ExecOptions&);

}  // namespace ncsw::nn
