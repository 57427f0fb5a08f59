#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

namespace {

using ncsw::fp16::half;
using ncsw::tensor::Shape;
using ncsw::tensor::Tensor;
using ncsw::tensor::TensorF;
using ncsw::tensor::TensorH;

TEST(Shape, NumelAndSlices) {
  const Shape s{2, 3, 4, 5};
  EXPECT_EQ(s.numel(), 120);
  EXPECT_EQ(s.chw(), 60);
  EXPECT_EQ(s.hw(), 20);
}

TEST(Shape, OffsetIsRowMajorNchw) {
  const Shape s{2, 3, 4, 5};
  EXPECT_EQ(s.offset(0, 0, 0, 0), 0);
  EXPECT_EQ(s.offset(0, 0, 0, 1), 1);
  EXPECT_EQ(s.offset(0, 0, 1, 0), 5);
  EXPECT_EQ(s.offset(0, 1, 0, 0), 20);
  EXPECT_EQ(s.offset(1, 0, 0, 0), 60);
  EXPECT_EQ(s.offset(1, 2, 3, 4), 119);
}

TEST(Shape, EqualityAndValidity) {
  EXPECT_EQ((Shape{1, 2, 3, 4}), (Shape{1, 2, 3, 4}));
  EXPECT_NE((Shape{1, 2, 3, 4}), (Shape{1, 2, 3, 5}));
  EXPECT_TRUE((Shape{1, 1, 1, 1}).valid());
  EXPECT_FALSE((Shape{0, 1, 1, 1}).valid());
  EXPECT_FALSE((Shape{1, -2, 1, 1}).valid());
}

TEST(Shape, ToStringAndWithBatch) {
  EXPECT_EQ((Shape{1, 64, 112, 112}).to_string(), "1x64x112x112");
  EXPECT_EQ((Shape{1, 3, 8, 8}).with_batch(16), (Shape{16, 3, 8, 8}));
}

TEST(Tensor, DefaultIsSingleZero) {
  TensorF t;
  EXPECT_EQ(t.numel(), 1);
  EXPECT_EQ(t[0], 0.0f);
}

TEST(Tensor, ZeroInitialised) {
  TensorF t(Shape{1, 2, 3, 4});
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillValueConstructor) {
  TensorF t(Shape{1, 1, 2, 2}, 7.0f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 7.0f);
}

TEST(Tensor, InvalidShapeThrows) {
  EXPECT_THROW(TensorF(Shape{0, 1, 1, 1}), std::invalid_argument);
}

TEST(Tensor, AtMatchesLinearIndexing) {
  TensorF t(Shape{2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 42.0f;
  EXPECT_EQ(t[119], 42.0f);
}

// Writing through a const tensor's element does not compile: the const
// accessors return const T&, not a temporary copy that would take the
// assignment and drop it.
static_assert(!std::is_assignable_v<decltype(std::declval<const TensorH&>()[0]),
                                    half>);
static_assert(!std::is_assignable_v<
              decltype(std::declval<const TensorH&>().at(0, 0, 0, 0)),
              half>);
static_assert(!std::is_assignable_v<decltype(std::declval<const TensorF&>()[0]),
                                    float>);
static_assert(std::is_assignable_v<decltype(std::declval<TensorH&>()[0]),
                                   half>);

TEST(Tensor, ConstAccessorsReferTheStoredElement) {
  TensorH t(Shape{1, 1, 2, 2});
  const TensorH& ct = t;
  EXPECT_EQ(&ct[3], t.data() + 3);
  EXPECT_EQ(&ct.at(0, 0, 1, 0), t.data() + 2);
}

TEST(Tensor, ReshapePreservesData) {
  TensorF t(Shape{1, 2, 3, 4});
  t[5] = 9.0f;
  t.reshape(Shape{1, 24, 1, 1});
  EXPECT_EQ(t[5], 9.0f);
  EXPECT_EQ(t.shape(), (Shape{1, 24, 1, 1}));
}

TEST(Tensor, ReshapeNumelMismatchThrows) {
  TensorF t(Shape{1, 2, 3, 4});
  EXPECT_THROW(t.reshape(Shape{1, 2, 3, 5}), std::invalid_argument);
}

TEST(Tensor, ResizeDiscardsContents) {
  TensorF t(Shape{1, 1, 1, 4}, 3.0f);
  t.resize(Shape{1, 1, 1, 8});
  EXPECT_EQ(t.numel(), 8);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, BatchPtrStride) {
  TensorF t(Shape{2, 1, 2, 2});
  t.at(1, 0, 0, 0) = 5.0f;
  EXPECT_EQ(t.batch_ptr(1)[0], 5.0f);
  EXPECT_EQ(t.batch_ptr(1) - t.batch_ptr(0), 4);
}

TEST(Tensor, CastFloatToHalfRounds) {
  TensorF f(Shape{1, 1, 1, 3});
  f[0] = 1.0f;
  f[1] = 3.14159265f;
  f[2] = -2.5f;
  const TensorH h = ncsw::tensor::tensor_cast<half>(f);
  EXPECT_EQ(h.shape(), f.shape());
  EXPECT_FLOAT_EQ(static_cast<float>(h[0]), 1.0f);
  EXPECT_NEAR(static_cast<float>(h[1]), 3.14159265f, 0.002f);
  EXPECT_FLOAT_EQ(static_cast<float>(h[2]), -2.5f);
}

TEST(Tensor, CastRoundTripIdentityForExactValues) {
  TensorH h(Shape{1, 1, 1, 4});
  h[0] = half(0.5f);
  h[1] = half(-8.0f);
  h[2] = half(0.0f);
  h[3] = half(1024.0f);
  const auto f = ncsw::tensor::tensor_cast<float>(h);
  const auto h2 = ncsw::tensor::tensor_cast<half>(f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(h2[i].bits(), h[i].bits());
}

TEST(Tensor, MaxAbsDiff) {
  TensorF a(Shape{1, 1, 1, 3});
  TensorF b(Shape{1, 1, 1, 3});
  a[0] = 1;
  b[0] = 1.5;
  a[2] = -2;
  b[2] = 2;
  EXPECT_DOUBLE_EQ(ncsw::tensor::max_abs_diff(a, b), 4.0);
}

TEST(Tensor, MaxAbsDiffShapeMismatchThrows) {
  TensorF a(Shape{1, 1, 1, 3});
  TensorF b(Shape{1, 1, 3, 1});
  EXPECT_THROW(ncsw::tensor::max_abs_diff(a, b), std::invalid_argument);
}

TEST(Tensor, MixedPrecisionDiff) {
  TensorF f(Shape{1, 1, 1, 2}, 1.0f);
  const TensorH h = ncsw::tensor::tensor_cast<half>(f);
  EXPECT_EQ(ncsw::tensor::max_abs_diff(f, h), 0.0);
}

}  // namespace
