// Functional graph executor. A Plan compiles a Graph and its weights
// once (validation, per-layer parameters resolved by layer id, FP16
// weights widened to FP32, fusion and activation-slot decisions) and then
// runs it over batched inputs in either precision, producing the output
// activation and (optionally) retaining all intermediate activations for
// inspection — which is how the tests diff FP32 against FP16 layer by
// layer. run_forward() is the one-shot form: a temporary plan, one run.
//
// Two tiers run behind it. The default exact tier is threaded but
// deterministic: outputs are bit-identical for any `threads` value and
// to the test-only oracle kernels (docs/performance.md), so the knob is
// purely a wall-clock choice. The opt-in fast tier trades bit-identity
// for speed.
#pragma once

#include <vector>

#include "nn/graph.h"
#include "nn/kernels.h"
#include "nn/weights.h"
#include "tensor/tensor.h"

namespace ncsw::nn {

/// Execution options.
struct ExecOptions {
  /// Keep every layer's activation (memory-heavy; default keeps only what
  /// downstream layers still need).
  bool keep_all_activations = false;
  /// Slab fan-out for the threaded kernels: 0 resolves via
  /// resolve_threads() ($NCSW_THREADS, else hardware concurrency);
  /// 1 runs serial; n > 1 splits each layer into at most n chunks, as
  /// many as its work fills (Plan).
  int threads = 0;
  /// Record wall-clock seconds per layer in ExecResult::layer_seconds
  /// and, when the global tracer is enabled, emit one "host" span per
  /// layer. Off by default so simulated-clock traces stay clean.
  bool profile_layers = false;
  /// Opt into the fast tier (docs/performance.md): the conv's FMA GEMM
  /// and single-rounding epilogue, and the sqrt-based LRN. Also enabled
  /// by $NCSW_FAST=1; default off, keeping the bit-identical contract
  /// (and every golden digest) untouched. Both tiers fuse a conv's
  /// sole-consumer ReLU into
  /// its epilogue except under keep_all_activations, so per-layer diffs
  /// keep their meaning. The tier is part of what a Plan compiles:
  /// run_forward reads this field, Plan::run ignores it.
  bool fast = false;
};

/// Thread count an ExecOptions::threads value resolves to: the value
/// itself when positive, else $NCSW_THREADS when set to a positive
/// integer, else std::thread::hardware_concurrency() (minimum 1).
int resolve_threads(int requested) noexcept;

/// Whether an ExecOptions::fast value resolves on: true when requested,
/// else when $NCSW_FAST is "1", "true" or "on".
bool resolve_fast(bool requested) noexcept;

/// Result of a forward pass.
template <typename T>
struct ExecResult {
  /// Output of the final layer.
  tensor::Tensor<T> output;
  /// When keep_all_activations: one activation per layer id (else empty).
  std::vector<tensor::Tensor<T>> activations;
  /// When profile_layers: wall-clock seconds per layer id (else empty).
  std::vector<double> layer_seconds;
};

/// A graph compiled for repeated forward passes ("compile once, run
/// many"), built once per (graph, weights, tier). Construction validates
/// the graph and the weights (throwing as run_forward does), resolves
/// every Conv/FC layer's parameters by layer id, widens FP16 weights and
/// biases to FP32 (exact), computes each conv's operand geometry and row
/// table (kernels::ConvOperand), and fixes the consumer counts, the
/// conv+ReLU fusion (both tiers; off under keep_all_activations), the
/// in-place ReLU/Dropout decisions, a liveness-planned slot for every
/// activation, and each layer's work, which caps its chunks at
/// ceil(work / grain): a layer below the grain runs inline on the caller.
///
/// run() is const: the slot tensors live in the calling thread's
/// kernels::Workspace, so one plan serves concurrent callers. At any
/// thread count a steady-state run into a reused ExecResult makes no heap
/// allocation. The graph and (for FP32, whose weights are not copied)
/// the weights must outlive the plan.
template <typename T>
class Plan {
 public:
  Plan(const Graph& graph, const Weights<T>& weights, bool fast = false);

  /// Run on `input` (shape must match the graph's input layer, any batch
  /// size; std::invalid_argument otherwise) into `result`, reusing its
  /// storage. options.fast is ignored: the tier was fixed at build.
  void run(const tensor::Tensor<T>& input, ExecResult<T>& result,
           const ExecOptions& options = {}) const;

  /// Run into a fresh result.
  ExecResult<T> run(const tensor::Tensor<T>& input,
                    const ExecOptions& options = {}) const;

  const Graph& graph() const noexcept { return *graph_; }
  /// Prepared FP32 weights of Conv/FC layer `id` (nullptr for others).
  const kernels::LayerWeights* layer_weights(int id) const noexcept;
  /// Activation slots a pass without keep_all_activations uses.
  int slot_count() const noexcept { return slots_; }
  /// Whether layer `id` is a conv that applies its ReLU consumer in its
  /// epilogue (unless the run keeps all activations).
  bool fuses_relu(int id) const noexcept {
    return id >= 0 && id < graph_->size() &&
           steps_[static_cast<std::size_t>(id)].fuse_relu;
  }

 private:
  struct Step {
    int weights = -1;         // index into weights_, -1 for none
    int conv = -1;            // index into convs_, -1 for none
    int slot = -1;            // activation slot (-1: the caller's input)
    bool take = false;        // ReLU/Dropout runs in its input's slot
    bool fuse_relu = false;   // the conv applies the next ReLU itself
    bool fused_away = false;  // this ReLU already ran in its producer
    std::int64_t work = 0;    // per-image work its kernel fans out
  };

  const Graph* graph_;
  bool fast_;
  std::vector<kernels::LayerWeights> weights_;
  std::vector<kernels::ConvOperand> convs_;
  std::vector<Step> steps_;  // indexed by layer id
  int slots_ = 0;
};

/// Run `graph` forward on `input` (shape must match the graph's input
/// layer, any batch size) through a temporary Plan. Throws on shape or
/// weight mismatches.
template <typename T>
ExecResult<T> run_forward(const Graph& graph, const Weights<T>& weights,
                          const tensor::Tensor<T>& input,
                          const ExecOptions& options = {});

/// Convenience: run and return softmax class probabilities as FP32,
/// one vector of size C per batch item.
template <typename T>
std::vector<std::vector<float>> run_probabilities(
    const Plan<T>& plan, const tensor::Tensor<T>& input,
    const ExecOptions& options = {});

/// The same through a temporary plan.
template <typename T>
std::vector<std::vector<float>> run_probabilities(
    const Graph& graph, const Weights<T>& weights,
    const tensor::Tensor<T>& input, const ExecOptions& options = {});

/// Index of the most probable class per batch item.
std::vector<int> argmax_per_item(const std::vector<std::vector<float>>& probs);

/// Top-k (index, probability) pairs for one probability vector, sorted by
/// descending probability (ties broken by lower index).
std::vector<std::pair<int, float>> top_k(const std::vector<float>& probs,
                                         int k);

}  // namespace ncsw::nn
