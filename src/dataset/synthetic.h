// Synthetic ILSVRC-2012 Validation stand-in.
//
// The paper runs the 50 000-image ILSVRC-2012 Validation set, split into
// 5 subsets of 10 000, with ground truth from the Bounding Box
// Annotations. We cannot ship ImageNet, so this module generates a
// deterministic labelled dataset with a *controlled* difficulty:
//
//   image = mid-grey + a*(P_label - mid) + b*(P_distractor - mid) + noise
//
// where P_c is a per-class smooth prototype pattern (random low-frequency
// sinusoid mixture). The distractor is another class, so miss-predictions
// land on plausible alternatives; the blend coefficients are calibrated
// (see dataset::default_blend) so the template-matched TinyGoogLeNet
// classifier lands near the paper's ~32% top-1 error. Every image is a
// pure function of (seed, subset, index), so any image can be generated
// on any thread, in any order, with the same bytes.
//
// The prototype waves depend only on (seed, class, channel, x, y), so
// each class's wave values are computed once and cached as three planes
// of doubles (the per-pixel sinusoid sum times the prototype amplitude,
// the exact product the blend uses); only the Gaussian noise is drawn
// per image, in three passes (docs/performance.md, "The host image
// path"). The constructor builds every class's planes once; at the
// default 50 classes and 48x48 edge they take 50 x 3 x 48 x 48 doubles
// = 2.8 MB. Every classifier fit reads all class prototypes during setup
// anyway, so building them up front costs nothing extra.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "imgproc/image.h"
#include "imgproc/ops.h"
#include "tensor/tensor.h"

namespace ncsw::dataset {

/// Blend coefficients controlling dataset difficulty.
struct BlendParams {
  double signal = 0.715;     ///< weight of the true-class prototype
  double distractor = 0.285; ///< weight of the distractor-class prototype
  double noise_sigma = 15.0; ///< Gaussian pixel noise (0..255 scale)
};

/// Calibrated default: places the FP32 top-1 error of the template-matched
/// TinyGoogLeNet near the paper's 32% (see tests/dataset and the fig7a
/// bench, which record the measured value).
BlendParams default_blend() noexcept;

/// Dataset layout parameters.
struct DatasetConfig {
  int num_classes = 50;
  int image_size = 48;        ///< generated edge; the pipeline resizes down
  int subsets = 5;            ///< the paper's 5 groups
  int images_per_subset = 10000;
  std::uint64_t seed = 0x5eed5eedULL;
  BlendParams blend = default_blend();
};

/// A labelled sample.
struct LabeledImage {
  imgproc::Image image;
  int label = 0;       ///< ground-truth class (the "annotation")
  int distractor = 0;  ///< blended-in second class (for analysis)
  int subset = 0;
  int index = 0;       ///< index within the subset
};

/// Deterministic synthetic dataset. Thread-safe: the only state is the
/// wave-plane cache, which the constructor builds and nothing changes
/// afterwards. Copies share the cache along with the config it was built
/// from.
class SyntheticImageNet {
 public:
  explicit SyntheticImageNet(const DatasetConfig& config = {});

  const DatasetConfig& config() const noexcept { return config_; }

  /// Per-channel means of the generated distribution (mid-grey), for the
  /// preprocessing pipeline.
  imgproc::ChannelMeans means() const noexcept {
    return imgproc::ChannelMeans{127.5f, 127.5f, 127.5f};
  }

  /// Prototype pattern of class `c` (pure signal, no noise).
  imgproc::Image prototype(int c) const;

  /// Ground-truth label of (subset, index) — the annotations file.
  int label_of(int subset, int index) const;

  /// Generate sample (subset, index).
  LabeledImage sample(int subset, int index) const;

  /// The standard normal variates sample(subset, index) blends in
  /// (scaled by noise_sigma), [channel][y][x], before quantisation. A
  /// test seam: the 8-bit pixels hide a one-ulp slip in the draw or its
  /// log, these doubles do not.
  std::vector<double> noise_variates(int subset, int index) const;

  /// Preprocess an image for a network with square input `input_size`:
  /// bilinear resize + CHW float tensor with dataset means subtracted.
  tensor::TensorF preprocess(const imgproc::Image& image,
                             int input_size) const;

  /// Prototype tensors for all classes at `input_size` (classifier fit).
  std::vector<tensor::TensorF> prototype_tensors(int input_size) const;

  int num_classes() const noexcept { return config_.num_classes; }
  int subsets() const noexcept { return config_.subsets; }
  int images_per_subset() const noexcept { return config_.images_per_subset; }

 private:
  void check_coords(int subset, int index) const;
  std::uint64_t sample_key(int subset, int index) const noexcept;
  /// Class c's wave planes, [channel][y][x].
  const double* planes(int c) const;

  DatasetConfig config_;
  /// Wave values of every class, [class][channel][y][x].
  std::shared_ptr<const std::vector<double>> planes_;
};

/// Subset name as the benches print it ("Set-1".."Set-5").
std::string subset_name(int subset);

}  // namespace ncsw::dataset
