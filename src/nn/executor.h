// Functional graph executor. Runs a validated Graph over a batched input
// tensor in either precision, producing the output activation and
// (optionally) retaining all intermediate activations for inspection —
// which is how the tests diff FP32 against FP16 layer by layer.
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
  /// 1 runs serial; n > 1 splits each kernel into n chunks.
  int threads = 0;
  /// Record wall-clock seconds per layer in ExecResult::layer_seconds
  /// and, when the global tracer is enabled, emit one "host" span per
  /// layer. Off by default so simulated-clock traces stay clean.
  bool profile_layers = false;
  /// Opt into the fast tier (docs/performance.md): fused conv+bias+ReLU,
  /// direct 3x3/1x1 convolution, int8 fully-connected layers (when
  /// `quant` is set) and affinity-pinned chunk placement. Also enabled
  /// by $NCSW_FAST=1; default off, keeping the bit-identical contract
  /// (and every golden digest) untouched. Fusion is skipped under
  /// keep_all_activations so per-layer diffs keep their meaning.
  bool fast = false;
  /// Graph-load-time fast-tier weights from nn::quantize_weights();
  /// nullptr keeps the fully-connected layers in FP32 and makes the fast
  /// conv kernels expand weights per call. Only read when fast resolves
  /// on.
  const QuantizedWeights* quant = nullptr;
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

/// Run `graph` forward on `input` (shape must match the graph's input
/// layer, any batch size). Throws on shape or weight mismatches.
template <typename T>
ExecResult<T> run_forward(const Graph& graph, const Weights<T>& weights,
                          const tensor::Tensor<T>& input,
                          const ExecOptions& options = {});

/// Convenience: run and return softmax class probabilities as FP32,
/// one vector of size C per batch item.
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
