#include "dataset/synthetic.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "util/rng.h"

namespace ncsw::dataset {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kMid = 127.5;
constexpr int kWaves = 4;          // sinusoids per channel
constexpr double kAmplitude = 80;  // prototype swing around mid-grey

// Low-frequency sinusoid mixture in [-1, 1] for (class, channel).
struct Wave {
  double fx, fy, phase, amp;
};

void class_waves(std::uint64_t seed, int c, int ch, Wave out[kWaves]) {
  util::Xoshiro256 rng(util::hash_mix(
      seed, 0x1000003ULL * static_cast<std::uint64_t>(c) + static_cast<std::uint64_t>(ch)));
  for (int k = 0; k < kWaves; ++k) {
    out[k].fx = static_cast<double>(rng.uniform_int(0, 3));
    out[k].fy = static_cast<double>(rng.uniform_int(0, 3));
    if (out[k].fx == 0 && out[k].fy == 0) out[k].fx = 1;
    out[k].phase = rng.uniform(0.0, 2.0 * kPi);
    out[k].amp = rng.uniform(0.5, 1.0);
  }
}

double wave_value(const Wave w[kWaves], double u, double v) {
  double s = 0.0, norm = 0.0;
  for (int k = 0; k < kWaves; ++k) {
    s += w[k].amp *
         std::sin(2.0 * kPi * (w[k].fx * u + w[k].fy * v) + w[k].phase);
    norm += w[k].amp;
  }
  return s / norm;  // in [-1, 1]
}

std::uint8_t clamp_pixel(double v) {
  return static_cast<std::uint8_t>(std::clamp(v + 0.5, 0.0, 255.0));
}
}  // namespace

BlendParams default_blend() noexcept { return BlendParams{}; }

SyntheticImageNet::SyntheticImageNet(const DatasetConfig& config)
    : config_(config) {
  if (config_.num_classes < 2 || config_.image_size < 8 ||
      config_.subsets < 1 || config_.images_per_subset < 1) {
    throw std::invalid_argument("SyntheticImageNet: bad config");
  }
  if (config_.blend.signal < 0 || config_.blend.distractor < 0 ||
      config_.blend.noise_sigma < 0) {
    throw std::invalid_argument("SyntheticImageNet: bad blend");
  }
  const int size = config_.image_size;
  auto values = std::make_shared<std::vector<double>>(
      static_cast<std::size_t>(config_.num_classes) * 3 * size * size);
  double* dst = values->data();
  for (int c = 0; c < config_.num_classes; ++c) {
    for (int ch = 0; ch < 3; ++ch) {
      Wave waves[kWaves];
      class_waves(config_.seed, c, ch, waves);
      for (int y = 0; y < size; ++y) {
        for (int x = 0; x < size; ++x) {
          const double u = static_cast<double>(x) / size;
          const double v = static_cast<double>(y) / size;
          *dst++ = wave_value(waves, u, v);
        }
      }
    }
  }
  planes_ = std::move(values);
}

const double* SyntheticImageNet::planes(int c) const {
  const auto size = static_cast<std::size_t>(config_.image_size);
  return planes_->data() + static_cast<std::size_t>(c) * 3 * size * size;
}

imgproc::Image SyntheticImageNet::prototype(int c) const {
  if (c < 0 || c >= config_.num_classes) {
    throw std::out_of_range("prototype: bad class");
  }
  const int size = config_.image_size;
  imgproc::Image img(size, size);
  const double* wave = planes(c);
  for (int ch = 0; ch < 3; ++ch) {
    for (int y = 0; y < size; ++y) {
      for (int x = 0; x < size; ++x) {
        img.at(x, y, ch) = clamp_pixel(kMid + kAmplitude * *wave++);
      }
    }
  }
  return img;
}

std::uint64_t SyntheticImageNet::sample_key(int subset,
                                            int index) const noexcept {
  return util::hash_mix(config_.seed ^ 0xda7a5e7ULL,
                        (static_cast<std::uint64_t>(subset) << 32) |
                            static_cast<std::uint64_t>(index));
}

void SyntheticImageNet::check_coords(int subset, int index) const {
  if (subset < 0 || subset >= config_.subsets || index < 0 ||
      index >= config_.images_per_subset) {
    throw std::out_of_range("SyntheticImageNet: bad (subset, index)");
  }
}

int SyntheticImageNet::label_of(int subset, int index) const {
  check_coords(subset, index);
  util::Xoshiro256 rng(sample_key(subset, index));
  return static_cast<int>(rng.uniform_u64(config_.num_classes));
}

LabeledImage SyntheticImageNet::sample(int subset, int index) const {
  check_coords(subset, index);
  util::Xoshiro256 rng(sample_key(subset, index));
  const int label = static_cast<int>(rng.uniform_u64(config_.num_classes));
  int distractor =
      static_cast<int>(rng.uniform_u64(config_.num_classes - 1));
  if (distractor >= label) ++distractor;

  const int size = config_.image_size;
  LabeledImage out;
  out.label = label;
  out.distractor = distractor;
  out.subset = subset;
  out.index = index;
  out.image = imgproc::Image(size, size);

  const BlendParams& bp = config_.blend;
  const double* wl = planes(label);
  const double* wd = planes(distractor);
  for (int ch = 0; ch < 3; ++ch) {
    for (int y = 0; y < size; ++y) {
      for (int x = 0; x < size; ++x) {
        const double sig = kAmplitude * *wl++;
        const double dis = kAmplitude * *wd++;
        const double noise = rng.normal(0.0, bp.noise_sigma);
        out.image.at(x, y, ch) = clamp_pixel(
            kMid + bp.signal * sig + bp.distractor * dis + noise);
      }
    }
  }
  return out;
}

tensor::TensorF SyntheticImageNet::preprocess(const imgproc::Image& image,
                                              int input_size) const {
  const imgproc::Image resized =
      imgproc::resize_bilinear(image, input_size, input_size);
  return imgproc::to_tensor_f32(resized, means());
}

std::vector<tensor::TensorF> SyntheticImageNet::prototype_tensors(
    int input_size) const {
  std::vector<tensor::TensorF> out;
  out.reserve(static_cast<std::size_t>(config_.num_classes));
  for (int c = 0; c < config_.num_classes; ++c) {
    out.push_back(preprocess(prototype(c), input_size));
  }
  return out;
}

std::string subset_name(int subset) {
  return "Set-" + std::to_string(subset + 1);
}

}  // namespace ncsw::dataset
