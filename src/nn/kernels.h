// Layer kernels, templated over precision. The FP32 instantiation is the
// "Caffe-MKL" functional path; the FP16 instantiation is the Myriad-2
// path (FP16 storage, FP32 accumulation where a hardware MAC pipeline
// would keep a wide accumulator, per-element rounding on write-back).
//
// The kernels are cache-tuned and optionally threaded (docs/
// performance.md): convolution builds its shifted input planes by
// channel and splits its GEMM (with the bias/rounding/ReLU epilogue) by
// output column range, the pools / LRN / ReLU split by (batch, channel)
// slabs, and every
// split writes a disjoint output region with the same per-element
// arithmetic as the serial path — so results are bit-identical across
// thread counts, and identical to the pre-rewrite scalar kernels, which
// the memcmp tests keep as a test-only oracle (tests/oracle/).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/graph.h"
#include "nn/weights.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/multiversion.h"
#include "util/thread_pool.h"

namespace ncsw::nn::kernels {

using tensor::Tensor;

/// Reusable scratch arenas for the kernel hot loop. Buffers grow to the
/// high-water mark of the layers they serve and are never shrunk, so a
/// forward pass allocates at most once per arena instead of once per
/// layer. Not thread-safe: one Workspace per concurrent forward pass
/// (slabs() hands disjoint slices to the pool workers of a single call).
class Workspace {
 public:
  /// A conv's shifted input planes (ConvOperand), `count` floats.
  float* planes(std::int64_t count) { return grow(planes_, count); }

  /// FP32 expansion of an FP16 activation tensor (conv/LRN inputs).
  float* acts(std::int64_t count) { return grow(acts_, count); }

  /// FP32 accumulator image of an FP16 output before rounding (and
  /// LRN's per-channel squares).
  float* out(std::int64_t count) { return grow(out_, count); }

  /// Base of `count` disjoint per-task slices of `per_task` floats each;
  /// task t uses [base + t*per_task, base + (t+1)*per_task). Call before
  /// fanning out.
  float* slabs(int count, std::int64_t per_task) {
    return grow(slabs_, static_cast<std::int64_t>(count) * per_task);
  }

  /// nn::Plan's activation slots and the input list a concat layer
  /// reads through, one set per precision. They grow to the plan's
  /// high-water mark and are reused by every later pass on this thread.
  template <typename T>
  struct Slots {
    std::vector<Tensor<T>> tensors;
    std::vector<const Tensor<T>*> ins;
  };
  template <typename T>
  Slots<T>& slots() noexcept {
    if constexpr (std::is_same_v<T, float>) {
      return slots_f32_;
    } else {
      return slots_f16_;
    }
  }

  /// Bytes reserved across all arenas (monotonically non-decreasing).
  std::size_t capacity_bytes() const noexcept {
    return (planes_.capacity() + acts_.capacity() + out_.capacity() +
            slabs_.capacity()) *
           sizeof(float);
  }

 private:
  static float* grow(std::vector<float>& v, std::int64_t count) {
    const auto need = static_cast<std::size_t>(count);
    if (v.size() < need) v.resize(need);
    return v.data();
  }

  std::vector<float> planes_, acts_, out_, slabs_;
  Slots<float> slots_f32_;
  Slots<ncsw::fp16::half> slots_f16_;
};

/// A Conv/FC layer's weights [rows x cols] and bias [rows] as the
/// kernels read them, in FP32: views of the tensors for FP32, an exact
/// widening (owned here) for FP16. nn::Plan prepares one per layer at
/// graph-load time; the implicit conversion lets a one-off kernel call
/// pass LayerParams directly, widening FP16 per call. Move-only: the
/// views point into the owned buffer, which a move carries along.
class LayerWeights {
 public:
  template <typename T>
  LayerWeights(const LayerParams<T>& params);  // implicit by design
  LayerWeights(LayerWeights&&) noexcept = default;
  LayerWeights& operator=(LayerWeights&&) noexcept = default;

  /// Shape of the weight tensor the views were taken from.
  const tensor::Shape& shape() const noexcept { return shape_; }
  const float* w() const noexcept { return w_; }
  const float* b() const noexcept { return b_; }

 private:
  tensor::Shape shape_;
  std::vector<float> wide_;  // FP16: the widened weights, then the bias
  const float* w_ = nullptr;
  const float* b_ = nullptr;
};

/// Per-call execution context the executor threads through the kernels.
/// The default ({}) is the serial optimised path with a transient
/// workspace.
struct ExecCtx {
  /// Scratch arenas; nullptr makes each kernel use a call-local one.
  Workspace* ws = nullptr;
  /// Most chunks a kernel splits its work into on compute_pool(); 1 runs
  /// it on the caller.
  int threads = 1;
  /// Opt-in fast tier (docs/performance.md): the conv's FMA GEMM and
  /// FP32 epilogue with a single rounding, and the sqrt-based LRN.
  /// Forfeits bit-identity with the exact tier (still deterministic
  /// across thread counts); validated by the digest-tolerance tests. Off
  /// by default.
  bool fast = false;
};

/// The process-wide pool the kernels of both tiers fan out on, created
/// on first use with one worker per hardware thread.
util::ThreadPool& compute_pool();

/// A conv layer's GEMM operand B without the [C*k*k x oh*ow] column
/// matrix (docs/performance.md, "The conv operand and epilogue"). Per
/// input channel c, kernel column kx and stride phase f < min(s, k), the
/// conv builds the compact plane S[c,kx,f][y][ox] =
/// P_c[(s*y + f)*pw + s*ox + kx] of the channel's zero-bordered padded
/// plane P_c (row width pw). GEMM row (c, ky, kx) is then the contiguous
/// oh*ow span at S[c,kx,ky%s] + (ky/s)*ow, which holds im2col's row
/// value for value; rows() lists those spans' offsets. A 1x1/s1/p0 conv
/// builds no planes (direct()): its table points at the input planes,
/// which already are its B. nn::Plan
/// builds one per conv layer at graph-load time; the ConvParams
/// overloads of conv2d build one per call.
class ConvOperand {
 public:
  /// Geometry for inputs of in.c x in.h x in.w (in.n is ignored).
  /// Throws std::invalid_argument when the kernel does not fit.
  ConvOperand(const tensor::Shape& in, const ConvParams& p);

  const ConvParams& params() const noexcept { return p_; }
  std::int64_t out_h() const noexcept { return oh_; }
  std::int64_t out_w() const noexcept { return ow_; }
  /// The GEMM's inner dimension, C*k*k.
  std::int64_t k_dim() const noexcept {
    return in_.c * p_.kernel * p_.kernel;
  }
  /// True for a 1x1/s1/p0 conv, whose B is the input itself.
  bool direct() const noexcept { return plane_len_ == 0; }
  /// Offset of each GEMM row's span (k_dim entries): into the plane
  /// arena, or for direct(), into the FP32 input item (row c at c*h*w).
  const std::int64_t* rows() const noexcept { return rows_.data(); }
  /// Floats of shifted planes per input channel (0 when direct()).
  std::int64_t plane_len() const noexcept { return plane_len_; }

  /// Throws std::invalid_argument unless `in` has this operand's c, h, w.
  void check_input(const tensor::Shape& in) const;

  /// Build channels [c0, c1) of the planes into `planes` (the arena base)
  /// from the FP32 channel planes at `src` (channel c at src + c*h*w),
  /// with the copy and gather loops compiled for `isa` (at most
  /// util::isa_level(); the same values at every level).
  /// `padded` is (h + 2*pad) x (w + 2*pad) scratch whose border the
  /// caller zero-filled; unused when pad is 0.
  void build(const float* src, std::int64_t c0, std::int64_t c1,
             float* padded, float* planes, util::IsaLevel isa) const noexcept;

 private:
  /// Rows of each plane of stride phase f.
  std::int64_t plane_rows(int f) const noexcept;

  tensor::Shape in_;
  ConvParams p_;
  std::int64_t oh_ = 0, ow_ = 0, plane_len_ = 0;
  std::vector<std::int64_t> rows_;
};

/// 2-D convolution: a GEMM of the weights with the ConvOperand's planes,
/// finished by one epilogue pass per output element: FP32 adds the bias,
/// FP16 rounds the accumulator, widens, adds the bias and rounds again,
/// and with `fuse_relu` a ReLU then clamps the final value (for FP16,
/// the final half: a sum that rounds to -0 stays -0). Bit-identical to
/// the oracle's im2col conv (followed by its ReLU). With `ctx.fast` the
/// GEMM is gemm_f32_fast and FP16 takes the FP32 epilogue and rounds
/// once: not bit-identical, still deterministic across thread counts.
/// `out` is resized to the batched output shape.
template <typename T>
void conv2d(const Tensor<T>& in, const LayerWeights& weights,
            const ConvOperand& op, bool fuse_relu, Tensor<T>& out,
            const ExecCtx& ctx = {});

/// The same, unfused, with the operand built for this call.
template <typename T>
void conv2d(const Tensor<T>& in, const LayerWeights& weights,
            const ConvParams& p, Tensor<T>& out, const ExecCtx& ctx = {});

/// In-place ReLU.
template <typename T>
void relu(Tensor<T>& x, const ExecCtx& ctx = {});

/// Max pooling (Caffe semantics: padded cells never win; ceil_mode sizes).
/// One kernel for both tiers, bit-identical to the oracle's row-major
/// window loop: each output is the first window element holding the
/// maximum, NaNs skipped.
template <typename T>
void max_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx = {});

/// Average pooling. Matches Caffe: the divisor is the full window size
/// including padding cells (AVE pooling with pad counts zeros).
template <typename T>
void avg_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx = {});

/// Across-channel LRN. Accumulation in FP32 for both precisions; the
/// exact tier takes scale^beta as libm's powf bits (util::pow_span).
template <typename T>
void lrn(const Tensor<T>& in, const LRNParams& p, Tensor<T>& out,
         const ExecCtx& ctx = {});

/// Channel concatenation. Inputs must agree on n/h/w.
template <typename T>
void concat(const std::vector<const Tensor<T>*>& ins, Tensor<T>& out);

/// Fully connected: out[n, f] = sum_i w[f, i] * in[n, i] + b[f].
/// Runs as a GEMV per batch item (bit-identical to the n = 1 GEMM it
/// replaced).
template <typename T>
void fully_connected(const Tensor<T>& in, const LayerWeights& weights,
                     const FCParams& p, Tensor<T>& out,
                     const ExecCtx& ctx = {});

/// Channel-wise softmax (numerically stabilised; always computed in FP32).
template <typename T>
void softmax(const Tensor<T>& in, Tensor<T>& out, const ExecCtx& ctx = {});

namespace detail {

// The exact kernels above with their loops (pool planes, LRN, the conv's
// plane build and FP32 epilogue, the FC's GEMV and bias) compiled for
// `isa`, which must not exceed util::isa_level() (util/multiversion.h).
// The kernels above pass util::isa_level(); tests and micro benchmarks
// pin each level with these. Every level gives the same bits.

template <typename T>
void conv2d(const Tensor<T>& in, const LayerWeights& weights,
            const ConvOperand& op, bool fuse_relu, Tensor<T>& out,
            const ExecCtx& ctx, util::IsaLevel isa);

template <typename T>
void max_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx, util::IsaLevel isa);

template <typename T>
void avg_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx, util::IsaLevel isa);

template <typename T>
void lrn(const Tensor<T>& in, const LRNParams& p, Tensor<T>& out,
         const ExecCtx& ctx, util::IsaLevel isa);

template <typename T>
void fully_connected(const Tensor<T>& in, const LayerWeights& weights,
                     const FCParams& p, Tensor<T>& out, const ExecCtx& ctx,
                     util::IsaLevel isa);

}  // namespace detail

}  // namespace ncsw::nn::kernels
