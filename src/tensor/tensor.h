// Dense NCHW tensor over float (FP32) or ncsw::fp16::half (FP16).
//
// The two instantiations back the two execution policies the paper
// compares: Caffe-MKL style FP32 on the CPU target and native FP16 on the
// VPU target.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "half/half.h"
#include "tensor/shape.h"

namespace ncsw::tensor {

/// Trait: scalar types the tensor supports.
template <typename T>
inline constexpr bool is_tensor_scalar_v =
    std::is_same_v<T, float> || std::is_same_v<T, ncsw::fp16::half>;

/// Convert between tensor scalars through float.
template <typename To, typename From>
inline To scalar_cast(From v) noexcept {
  if constexpr (std::is_same_v<To, From>) {
    return v;
  } else if constexpr (std::is_same_v<To, float>) {
    return static_cast<float>(v);
  } else {
    return To(static_cast<float>(v));
  }
}

/// Contiguous NCHW tensor.
template <typename T>
class Tensor {
  static_assert(is_tensor_scalar_v<T>, "Tensor<T>: unsupported scalar");

 public:
  using value_type = T;

  /// Empty (shape 1x1x1x1, one zero element).
  Tensor() : shape_{}, data_(1, T{}) {}

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(const Shape& shape) : shape_(shape) {
    check_shape(shape, "Tensor");
    data_.assign(static_cast<std::size_t>(shape.numel()), T{});
  }

  /// Tensor filled with `init`.
  Tensor(const Shape& shape, T init) : shape_(shape) {
    check_shape(shape, "Tensor");
    data_.assign(static_cast<std::size_t>(shape.numel()), init);
  }

  const Shape& shape() const noexcept { return shape_; }
  std::int64_t numel() const noexcept { return shape_.numel(); }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }

  /// Element access without bounds checking.
  T& at(std::int64_t n, std::int64_t c, std::int64_t h,
        std::int64_t w) noexcept {
    return data_[static_cast<std::size_t>(shape_.offset(n, c, h, w))];
  }
  const T& at(std::int64_t n, std::int64_t c, std::int64_t h,
              std::int64_t w) const noexcept {
    return data_[static_cast<std::size_t>(shape_.offset(n, c, h, w))];
  }

  /// Linear element access without bounds checking.
  T& operator[](std::int64_t i) noexcept {
    return data_[static_cast<std::size_t>(i)];
  }
  const T& operator[](std::int64_t i) const noexcept {
    return data_[static_cast<std::size_t>(i)];
  }

  /// Fill every element with `v`.
  void fill(T v) noexcept { std::fill(data_.begin(), data_.end(), v); }

  /// Reshape without reallocating; the element count must match.
  void reshape(const Shape& shape) {
    check_shape(shape, "Tensor::reshape");
    if (shape.numel() != shape_.numel()) {
      throw std::invalid_argument("Tensor::reshape: numel mismatch " +
                                  shape_.to_string() + " -> " +
                                  shape.to_string());
    }
    shape_ = shape;
  }

  /// Resize, discarding contents (zero-filled).
  void resize(const Shape& shape) {
    check_shape(shape, "Tensor::resize");
    shape_ = shape;
    data_.assign(static_cast<std::size_t>(shape.numel()), T{});
  }

  /// Pointer to the start of batch item `n`.
  T* batch_ptr(std::int64_t n) noexcept {
    return data() + n * shape_.chw();
  }
  const T* batch_ptr(std::int64_t n) const noexcept {
    return data() + n * shape_.chw();
  }

 private:
  Shape shape_;
  std::vector<T> data_;
};

using TensorF = Tensor<float>;
using TensorH = Tensor<ncsw::fp16::half>;

/// Elementwise conversion between precisions (or a copy when identical).
/// half <-> float goes through the bulk span converters, which are
/// bit-identical to the scalar conversions.
template <typename To, typename From>
Tensor<To> tensor_cast(const Tensor<From>& src) {
  Tensor<To> dst(src.shape());
  const std::int64_t n = src.numel();
  if constexpr (std::is_same_v<From, ncsw::fp16::half> &&
                std::is_same_v<To, float>) {
    ncsw::fp16::half_to_float_span(src.data(), dst.data(),
                                   static_cast<std::size_t>(n));
  } else if constexpr (std::is_same_v<From, float> &&
                       std::is_same_v<To, ncsw::fp16::half>) {
    ncsw::fp16::float_to_half_span(src.data(), dst.data(),
                                   static_cast<std::size_t>(n));
  } else {
    for (std::int64_t i = 0; i < n; ++i) {
      dst[i] = scalar_cast<To>(src[i]);
    }
  }
  return dst;
}

/// Largest absolute elementwise difference, computed in double.
template <typename A, typename B>
double max_abs_diff(const Tensor<A>& a, const Tensor<B>& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(scalar_cast<float>(a[i])) -
                     static_cast<double>(scalar_cast<float>(b[i]));
    m = std::max(m, d < 0 ? -d : d);
  }
  return m;
}

}  // namespace ncsw::tensor
