// The bit-identity oracle: the scalar kernels this engine shipped before
// its blocked/threaded rewrite, kept verbatim (serial, per-layer
// allocation, per-MAC half<->float conversion in the FP16 GEMM). The
// exact tier is specified as byte-equal to them: test_gemm, test_kernels,
// test_workspace and test_executor compare against these functions with
// memcmp, and bench/perf_forward times its `ref` cells on them as the
// recorded baseline. Test-only: no ncsw_* library links this code.
#pragma once

#include <cstdint>
#include <vector>

#include "half/half.h"
#include "nn/graph.h"
#include "nn/weights.h"
#include "tensor/tensor.h"

namespace ncsw::oracle {

/// Reference FP32 GEMM: C = alpha * A*B + beta * C, row-major and dense.
/// tensor::gemm_f32 must reproduce it bit for bit.
void gemm_f32_ref(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                  const float* a, const float* b, float beta,
                  float* c) noexcept;

/// Reference FP16 GEMM with an FP32 accumulator per output row, rounded
/// to FP16 per element. tensor::gemm_f16 must reproduce it bit for bit.
void gemm_f16_ref(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                  const ncsw::fp16::half* a, const ncsw::fp16::half* b,
                  float beta, ncsw::fp16::half* c) noexcept;

/// im2col + reference GEMM per batch item, then the bias add (rounded
/// per element in FP16). `out` is resized to the batched output shape.
template <typename T>
void conv2d(const tensor::Tensor<T>& in, const nn::LayerParams<T>& params,
            const nn::ConvParams& p, tensor::Tensor<T>& out);

/// In-place ReLU on the widened float value.
template <typename T>
void relu(tensor::Tensor<T>& x);

/// Max pooling, one clamped window at a time: each output is
/// std::max folded from -inf over its window in row-major order (FP16
/// planes widened first). Caffe semantics: padded cells never win.
template <typename T>
void max_pool(const tensor::Tensor<T>& in, const nn::PoolParams& p,
              tensor::Tensor<T>& out);

/// Across-channel LRN, one element at a time through Tensor::at().
template <typename T>
void lrn(const tensor::Tensor<T>& in, const nn::LRNParams& p,
         tensor::Tensor<T>& out);

/// Fully connected as an n = 1 reference GEMM per batch item plus bias.
template <typename T>
void fully_connected(const tensor::Tensor<T>& in,
                     const nn::LayerParams<T>& params, const nn::FCParams& p,
                     tensor::Tensor<T>& out);

/// Serial, unfused forward pass: the oracle conv/ReLU/max pool/LRN/FC
/// above and the production average pool, concat and softmax kernels
/// (serial, call-local workspace). Returns every layer's activation,
/// indexed by layer id (slot 0 holds the input).
template <typename T>
std::vector<tensor::Tensor<T>> run_forward(const nn::Graph& graph,
                                           const nn::Weights<T>& weights,
                                           const tensor::Tensor<T>& input);

}  // namespace ncsw::oracle
