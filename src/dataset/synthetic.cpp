#include "dataset/synthetic.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/libm_span.h"
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

// A sample's label and distractor, the first draws of its stream.
std::pair<int, int> draw_classes(util::Xoshiro256& rng, int num_classes) {
  const int label = static_cast<int>(rng.uniform_u64(num_classes));
  int distractor = static_cast<int>(rng.uniform_u64(num_classes - 1));
  if (distractor >= label) ++distractor;
  return {label, distractor};
}

// n standard normal variates, drawn exactly as util::Xoshiro256::normal()
// would draw them one at a time (Marsaglia's polar method, each accepted
// pair used u first, then v), in three passes over this thread's scratch
// instead of one call per value, so no pass waits on the reject branch.
// Returns the scratch, valid until the thread's next call.
const double* draw_normals(util::Xoshiro256& rng, std::size_t n) {
  const std::size_t pairs = (n + 1) / 2;
  thread_local std::vector<double> scratch;
  // uv: the accepted pairs, interleaved; s and log_s: one per pair.
  scratch.resize(4 * pairs);
  double* uv = scratch.data();
  double* s = uv + 2 * pairs;
  double* log_s = s + pairs;

  // (a) Draw. Every candidate is stored; the write index only advances
  // past an accepted one (0 < s < 1), so the rejects are overwritten.
  for (std::size_t w = 0; w < pairs;) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double sq = u * u + v * v;
    uv[2 * w] = u;
    uv[2 * w + 1] = v;
    s[w] = sq;
    w += static_cast<std::size_t>(sq < 1.0) &
         static_cast<std::size_t>(sq != 0.0);
  }
  // (b) Factors: libm's log bits in one span (util/libm_span.h: glibc's
  // own algorithm at vector width where the host has it), then
  // sqrt(-2 log(s) / s) scales the pair.
  util::log_span(s, log_s, pairs);
  for (std::size_t k = 0; k < pairs; ++k) {
    const double factor = std::sqrt(-2.0 * log_s[k] / s[k]);
    uv[2 * k] *= factor;
    uv[2 * k + 1] *= factor;
  }
  return uv;
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
          *dst++ = kAmplitude * wave_value(waves, u, v);
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
        img.at(x, y, ch) = clamp_pixel(kMid + *wave++);
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
  const auto [label, distractor] = draw_classes(rng, config_.num_classes);

  const int size = config_.image_size;
  LabeledImage out;
  out.label = label;
  out.distractor = distractor;
  out.subset = subset;
  out.index = index;
  out.image = imgproc::Image(size, size);

  // Noise: one normal variate per channel value, in [channel][y][x]
  // order.
  const auto plane = static_cast<std::size_t>(size) * size;
  const double* uv = draw_normals(rng, 3 * plane);

  // Pixels: the blend in normal()'s term order (mean 0.0 plus sigma
  // times the variate), quantised and interleaved into RGB. The blend
  // weights are locals: the byte stores could alias config_.
  const double signal = config_.blend.signal;
  const double distractor_w = config_.blend.distractor;
  const double sigma = config_.blend.noise_sigma;
  const double* wl = planes(label);
  const double* wd = planes(distractor);
  std::uint8_t* px = out.image.pixels().data();
  for (std::size_t i = 0; i < plane; ++i) {
    for (std::size_t ch = 0; ch < 3; ++ch) {
      const std::size_t j = ch * plane + i;
      const double noise = 0.0 + sigma * uv[j];
      px[3 * i + ch] = clamp_pixel(kMid + signal * wl[j] +
                                   distractor_w * wd[j] + noise);
    }
  }
  return out;
}

std::vector<double> SyntheticImageNet::noise_variates(int subset,
                                                      int index) const {
  check_coords(subset, index);
  util::Xoshiro256 rng(sample_key(subset, index));
  draw_classes(rng, config_.num_classes);
  const auto n = 3 * static_cast<std::size_t>(config_.image_size) *
                 static_cast<std::size_t>(config_.image_size);
  const double* uv = draw_normals(rng, n);
  return std::vector<double>(uv, uv + n);
}

tensor::TensorF SyntheticImageNet::preprocess(const imgproc::Image& image,
                                              int input_size) const {
  return imgproc::resize_to_tensor_f32(image, input_size, input_size,
                                       means());
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
