#include "imgproc/image.h"
#include "imgproc/ops.h"
#include "imgproc/ppm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "core/application.h"
#include "dataset/synthetic.h"
#include "util/rng.h"

namespace {

using ncsw::imgproc::center_crop;
using ncsw::imgproc::ChannelMeans;
using ncsw::imgproc::decode_ppm;
using ncsw::imgproc::encode_ppm;
using ncsw::imgproc::Image;
using ncsw::imgproc::resize_bilinear;
using ncsw::imgproc::resize_to_tensor_f32;
using ncsw::imgproc::to_tensor_f16;
using ncsw::imgproc::to_tensor_f32;

Image random_image(int w, int h, std::uint64_t seed) {
  ncsw::util::Xoshiro256 rng(seed);
  Image img(w, h);
  for (auto& p : img.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_u64(256));
  }
  return img;
}

TEST(Image, ConstructionAndAccess) {
  Image img(4, 3);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.byte_size(), 36u);
  img.at(2, 1, 0) = 200;
  EXPECT_EQ(img.at(2, 1, 0), 200);
  EXPECT_EQ(img.pixels()[(1 * 4 + 2) * 3 + 0], 200);
}

TEST(Image, InvalidDimensionsThrow) {
  EXPECT_THROW(Image(0, 5), std::invalid_argument);
  EXPECT_THROW(Image(5, -1), std::invalid_argument);
}

TEST(Ppm, EncodeDecodeRoundTrip) {
  const Image img = random_image(13, 7, 42);
  const auto bytes = encode_ppm(img);
  const Image back = decode_ppm(bytes);
  EXPECT_EQ(back.width(), 13);
  EXPECT_EQ(back.height(), 7);
  EXPECT_EQ(back.pixels(), img.pixels());
}

TEST(Ppm, HeaderFormat) {
  const Image img(2, 1);
  const auto bytes = encode_ppm(img);
  const std::string head(bytes.begin(), bytes.begin() + 11);
  EXPECT_EQ(head, "P6\n2 1\n255\n");
}

TEST(Ppm, DecodeAcceptsCommentsAndWhitespace) {
  const std::string text = "P6 # a comment\n# another\n  2\t1 \n255\nabcdef";
  const std::vector<std::uint8_t> bytes(text.begin(), text.end());
  const Image img = decode_ppm(bytes);
  EXPECT_EQ(img.width(), 2);
  EXPECT_EQ(img.at(0, 0, 0), 'a');
  EXPECT_EQ(img.at(1, 0, 2), 'f');
}

TEST(Ppm, RejectsBadMagic) {
  const std::string text = "P5\n1 1\n255\nabc";
  EXPECT_THROW(decode_ppm({text.begin(), text.end()}), std::runtime_error);
}

TEST(Ppm, RejectsTruncatedRaster) {
  const std::string text = "P6\n2 2\n255\nabc";
  EXPECT_THROW(decode_ppm({text.begin(), text.end()}), std::runtime_error);
}

TEST(Ppm, RejectsNonsenseDimensions) {
  const std::string text = "P6\n-3 2\n255\nabcdef";
  EXPECT_THROW(decode_ppm({text.begin(), text.end()}), std::runtime_error);
}

TEST(Ppm, RejectsUnsupportedMaxval) {
  const std::string text = "P6\n1 1\n65535\nabcdef";
  EXPECT_THROW(decode_ppm({text.begin(), text.end()}), std::runtime_error);
}

TEST(Ppm, SaveLoadFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "ncsw_test.ppm").string();
  const Image img = random_image(5, 5, 7);
  ncsw::imgproc::save_ppm(img, path);
  const Image back = ncsw::imgproc::load_ppm(path);
  EXPECT_EQ(back.pixels(), img.pixels());
  std::filesystem::remove(path);
}

TEST(Resize, IdentityWhenSameSize) {
  const Image img = random_image(8, 6, 3);
  const Image out = resize_bilinear(img, 8, 6);
  EXPECT_EQ(out.pixels(), img.pixels());
}

TEST(Resize, ConstantImageStaysConstant) {
  Image img(10, 10);
  for (auto& p : img.pixels()) p = 77;
  const Image out = resize_bilinear(img, 4, 7);
  for (auto p : out.pixels()) EXPECT_EQ(p, 77);
}

TEST(Resize, DownThenUpPreservesSmoothGradient) {
  // A horizontal gradient survives resize round trips approximately.
  Image img(64, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 64; ++x) {
      for (int c = 0; c < 3; ++c) {
        img.at(x, y, c) = static_cast<std::uint8_t>(x * 4);
      }
    }
  }
  const Image small = resize_bilinear(img, 32, 8);
  const Image back = resize_bilinear(small, 64, 16);
  EXPECT_LT(ncsw::imgproc::mean_abs_pixel_diff(img, back), 4.0);
}

TEST(Resize, UpscaleDimensions) {
  const Image img = random_image(3, 3, 9);
  const Image out = resize_bilinear(img, 9, 5);
  EXPECT_EQ(out.width(), 9);
  EXPECT_EQ(out.height(), 5);
}

TEST(Resize, RejectsBadArguments) {
  const Image img = random_image(4, 4, 1);
  EXPECT_THROW(resize_bilinear(img, 0, 4), std::invalid_argument);
  EXPECT_THROW(resize_bilinear(Image{}, 4, 4), std::invalid_argument);
}

TEST(Crop, CenterCropTakesMiddle) {
  Image img(4, 4);
  img.at(1, 1, 0) = 11;
  img.at(2, 2, 1) = 22;
  const Image out = center_crop(img, 2, 2);
  EXPECT_EQ(out.width(), 2);
  EXPECT_EQ(out.at(0, 0, 0), 11);
  EXPECT_EQ(out.at(1, 1, 1), 22);
}

TEST(Crop, RejectsOversizedCrop) {
  const Image img = random_image(4, 4, 2);
  EXPECT_THROW(center_crop(img, 5, 2), std::invalid_argument);
}

TEST(ToTensor, ShapeAndMeanSubtraction) {
  Image img(2, 2);
  for (auto& p : img.pixels()) p = 100;
  const ChannelMeans means{10.0f, 20.0f, 30.0f};
  const auto t = to_tensor_f32(img, means);
  EXPECT_EQ(t.shape(), (ncsw::tensor::Shape{1, 3, 2, 2}));
  EXPECT_FLOAT_EQ(t.at(0, 0, 0, 0), 90.0f);
  EXPECT_FLOAT_EQ(t.at(0, 1, 0, 0), 80.0f);
  EXPECT_FLOAT_EQ(t.at(0, 2, 1, 1), 70.0f);
}

TEST(ToTensor, ChwLayoutOrder) {
  Image img(2, 1);
  img.at(0, 0, 0) = 1;  // R of pixel 0
  img.at(1, 0, 0) = 2;  // R of pixel 1
  img.at(0, 0, 2) = 9;  // B of pixel 0
  const auto t = to_tensor_f32(img, ChannelMeans{0, 0, 0});
  EXPECT_FLOAT_EQ(t[0], 1.0f);  // R plane first
  EXPECT_FLOAT_EQ(t[1], 2.0f);
  EXPECT_FLOAT_EQ(t[4], 9.0f);  // B plane last
}

TEST(ToTensor, Fp16MatchesRoundedFp32) {
  const Image img = random_image(4, 4, 11);
  const auto f = to_tensor_f32(img);
  const auto h = to_tensor_f16(img);
  for (std::int64_t i = 0; i < f.numel(); ++i) {
    EXPECT_FLOAT_EQ(static_cast<float>(h[i]),
                    ncsw::fp16::round_to_half(f[i]));
  }
}

// Source patterns for the fused resize: noise, the range ends, and
// pixel checkerboards (per pixel, and with the channels out of phase).
std::vector<Image> resize_sources(int w, int h) {
  std::vector<Image> out;
  out.push_back(random_image(w, h, static_cast<std::uint64_t>(w * 131 + h)));
  for (const int v : {0, 255}) {
    Image flat(w, h);
    for (auto& p : flat.pixels()) p = static_cast<std::uint8_t>(v);
    out.push_back(flat);
  }
  Image board(w, h), split(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < 3; ++c) {
        const bool even = (x + y) % 2 == 0;
        const bool even_c = (x + y + c) % 2 == 0;
        board.at(x, y, c) = even ? std::uint8_t{255} : std::uint8_t{0};
        split.at(x, y, c) = even_c ? std::uint8_t{0} : std::uint8_t{255};
      }
    }
  }
  out.push_back(board);
  out.push_back(split);
  return out;
}

// The one-pixel-at-a-time bilinear resize the fig7 goldens were
// recorded with: taps, weights, blends and quantisation recomputed for
// every output pixel and channel. resize_bilinear and the fused path
// must reproduce its bytes.
Image reference_resize(const Image& src, int out_w, int out_h) {
  Image dst(out_w, out_h);
  const float sx = static_cast<float>(src.width()) / static_cast<float>(out_w);
  const float sy =
      static_cast<float>(src.height()) / static_cast<float>(out_h);
  for (int y = 0; y < out_h; ++y) {
    const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
    const int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0,
                              src.height() - 1);
    const int y1 = std::min(y0 + 1, src.height() - 1);
    const float wy = std::clamp(fy - static_cast<float>(y0), 0.0f, 1.0f);
    for (int x = 0; x < out_w; ++x) {
      const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
      const int x0 =
          std::clamp(static_cast<int>(std::floor(fx)), 0, src.width() - 1);
      const int x1 = std::min(x0 + 1, src.width() - 1);
      const float wx = std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
      for (int c = 0; c < 3; ++c) {
        const float top = static_cast<float>(src.at(x0, y0, c)) * (1 - wx) +
                          static_cast<float>(src.at(x1, y0, c)) * wx;
        const float bot = static_cast<float>(src.at(x0, y1, c)) * (1 - wx) +
                          static_cast<float>(src.at(x1, y1, c)) * wx;
        const float v = top * (1 - wy) + bot * wy;
        dst.at(x, y, c) =
            static_cast<std::uint8_t>(std::clamp(v + 0.5f, 0.0f, 255.0f));
      }
    }
  }
  return dst;
}

TEST(ResizeToTensor, MatchesResizeThenConvertBitForBit) {
  struct Case {
    int src_w, src_h, out_w, out_h;
  };
  const ChannelMeans means{123.68f, 116.78f, 103.94f};
  for (const Case& k : {Case{48, 48, 32, 32}, Case{48, 48, 16, 16},
                        Case{40, 40, 32, 32}, Case{24, 24, 32, 32},
                        Case{32, 32, 32, 32}, Case{37, 29, 32, 32},
                        Case{37, 29, 16, 20}, Case{1, 1, 32, 32}}) {
    for (const Image& src : resize_sources(k.src_w, k.src_h)) {
      const Image resized = resize_bilinear(src, k.out_w, k.out_h);
      EXPECT_EQ(resized.pixels(),
                reference_resize(src, k.out_w, k.out_h).pixels())
          << k.src_w << "x" << k.src_h << " -> " << k.out_w << "x"
          << k.out_h;
      const auto want = to_tensor_f32(resized, means);
      const auto got = resize_to_tensor_f32(src, k.out_w, k.out_h, means);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<std::size_t>(want.numel()) *
                                sizeof(float)),
                0)
          << k.src_w << "x" << k.src_h << " -> " << k.out_w << "x"
          << k.out_h;
    }
  }
}

TEST(ResizeToTensor, EveryIsaVariantMatchesResizeThenConvert) {
  // The fused resize's blend loops at every level this host can run
  // (util/multiversion.h), on output rows of 32, 16, 20 and 7 values.
  using ncsw::util::IsaLevel;
  struct Case {
    int src_w, src_h, out_w, out_h;
  };
  const ChannelMeans means{123.68f, 116.78f, 103.94f};
  for (const IsaLevel isa : {IsaLevel::kBase, IsaLevel::kV3, IsaLevel::kV4}) {
    if (isa > ncsw::util::isa_level()) continue;
    for (const Case& k : {Case{48, 48, 32, 32}, Case{48, 48, 16, 16},
                          Case{37, 29, 16, 20}, Case{24, 24, 32, 32},
                          Case{29, 31, 7, 5}}) {
      for (const Image& src : resize_sources(k.src_w, k.src_h)) {
        const auto want =
            to_tensor_f32(reference_resize(src, k.out_w, k.out_h), means);
        const auto got = ncsw::imgproc::detail::resize_to_tensor_f32(
            src, k.out_w, k.out_h, means, isa);
        ASSERT_EQ(got.shape(), want.shape());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              static_cast<std::size_t>(want.numel()) *
                                  sizeof(float)),
                  0)
            << "isa " << static_cast<int>(isa) << " " << k.src_w << "x"
            << k.src_h << " -> " << k.out_w << "x" << k.out_h;
      }
    }
  }
}

TEST(ResizeToTensor, RejectsBadArguments) {
  const Image img = random_image(4, 4, 1);
  EXPECT_THROW(resize_to_tensor_f32(img, 0, 4), std::invalid_argument);
  EXPECT_THROW(resize_to_tensor_f32(Image{}, 4, 4), std::invalid_argument);
}

TEST(ResizeToTensor, PreprocessorAndDatasetAgree) {
  ncsw::dataset::DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.subsets = 1;
  cfg.images_per_subset = 4;
  const ncsw::dataset::SyntheticImageNet data(cfg);
  ncsw::core::Preprocessor prep;
  prep.means = data.means();
  for (const int edge : {16, 32, 48}) {
    prep.input_size = edge;
    for (int i = 0; i < cfg.images_per_subset; ++i) {
      const Image img = data.sample(0, i).image;
      const auto a = prep(img);
      const auto b = data.preprocess(img, edge);
      ASSERT_EQ(a.shape(), b.shape());
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            static_cast<std::size_t>(a.numel()) *
                                sizeof(float)),
                0)
          << "edge " << edge << " image " << i;
    }
  }
}

TEST(MeanAbsPixelDiff, ZeroForIdentical) {
  const Image img = random_image(6, 6, 5);
  EXPECT_EQ(ncsw::imgproc::mean_abs_pixel_diff(img, img), 0.0);
}

TEST(MeanAbsPixelDiff, SizeMismatchThrows) {
  EXPECT_THROW(ncsw::imgproc::mean_abs_pixel_diff(Image(2, 2), Image(3, 2)),
               std::invalid_argument);
}

}  // namespace
