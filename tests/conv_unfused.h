// Test helper: an unfused kernels::conv2d with the ConvOperand built for
// this one call (nn::Plan builds each conv's operand once, at load time).
#pragma once

#include "nn/kernels.h"

template <typename T>
void conv2d_unfused(const ncsw::tensor::Tensor<T>& in,
                    const ncsw::nn::kernels::LayerWeights& weights,
                    const ncsw::nn::ConvParams& p,
                    ncsw::tensor::Tensor<T>& out,
                    const ncsw::nn::kernels::ExecCtx& ctx = {}) {
  ncsw::nn::kernels::conv2d(
      in, weights, ncsw::nn::kernels::ConvOperand(in.shape(), p),
      /*fuse_relu=*/false, out, ctx);
}
