// Host-side pre-processing pipeline: resize -> crop -> CHW float tensor
// with per-channel mean subtraction -> optional FP16 conversion. Mirrors
// the paper's OpenCV + OpenEXR-half path feeding the NCS.
#pragma once

#include "imgproc/image.h"
#include "tensor/tensor.h"

namespace ncsw::imgproc {

/// Bilinear resize to (out_w, out_h).
Image resize_bilinear(const Image& src, int out_w, int out_h);

/// Centered crop of size (crop_w, crop_h); must fit inside the source.
Image center_crop(const Image& src, int crop_w, int crop_h);

/// Per-channel means (RGB order) in 0..255 pixel units. Defaults are the
/// ILSVRC-2012 training-set means the paper retrieves for GoogLeNet.
struct ChannelMeans {
  float r = 123.68f;
  float g = 116.78f;
  float b = 103.94f;
};

/// Convert to a 1 x 3 x H x W FP32 tensor: CHW layout, channel means
/// subtracted (pixel values stay in 0..255 scale, Caffe-style).
tensor::TensorF to_tensor_f32(const Image& image,
                              const ChannelMeans& means = {});

/// resize_bilinear to (out_w, out_h), then to_tensor_f32, in one pass:
/// the same bytes, without the intermediate image. The taps and weights
/// are computed once per output column and row.
tensor::TensorF resize_to_tensor_f32(const Image& src, int out_w, int out_h,
                                     const ChannelMeans& means = {});

/// Same pipeline but the result is rounded to FP16 (the NCS input format).
tensor::TensorH to_tensor_f16(const Image& image,
                              const ChannelMeans& means = {});

/// Mean absolute per-pixel difference between two images of equal size
/// (0..255 scale); throws on size mismatch.
double mean_abs_pixel_diff(const Image& a, const Image& b);

}  // namespace ncsw::imgproc
