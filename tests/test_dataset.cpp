#include "dataset/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace ncsw::dataset;

DatasetConfig small_config() {
  DatasetConfig cfg;
  cfg.num_classes = 10;
  cfg.image_size = 24;
  cfg.subsets = 3;
  cfg.images_per_subset = 50;
  return cfg;
}

// FNV-1a over the generator's output. The expected digests below were
// recorded from the generator before its wave planes were cached, so any
// change to a single pixel, label or distractor fails them.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void word(int v) {
    const auto u = static_cast<std::uint32_t>(v);
    for (int s = 0; s < 32; s += 8) byte(static_cast<std::uint8_t>(u >> s));
  }
  void image(const ncsw::imgproc::Image& img) {
    word(img.width());
    word(img.height());
    for (const std::uint8_t p : img.pixels()) byte(p);
  }
  void sample(const LabeledImage& s) {
    word(s.label);
    word(s.distractor);
    image(s.image);
  }
};

/// (subset, index) pairs spread over the default 5 x 10000 layout,
/// including both ends of every subset.
std::vector<std::pair<int, int>> spread_coords() {
  std::vector<std::pair<int, int>> out;
  for (int s = 0; s < 5; ++s) {
    for (const int i : {0, 1, 2, 17, 400, 1234, 5000 + s, 9998, 9999}) {
      out.emplace_back(s, i);
    }
  }
  return out;
}

TEST(Dataset, SampleBytesMatchRecordedDigest) {
  const SyntheticImageNet data;
  Digest d;
  for (const auto& [s, i] : spread_coords()) d.sample(data.sample(s, i));
  EXPECT_EQ(d.h, 0xc27b18f86028e404ULL);
}

TEST(Dataset, NoiseVariatesMatchRecordedDigest) {
  // The pre-quantisation noise doubles, bit for bit. The digest was
  // recorded by drawing the same samples' values one at a time with
  // util::Xoshiro256::normal() (libm's log); the quantised pixels above
  // hide a one-ulp slip in the generator's log or its draw, this does
  // not. The last three samples each hold a draw whose log changes when
  // the fma of glibc's `lo + r2 * A[0]` is split in two, a slip that
  // moves about one log in 10^7.
  const SyntheticImageNet data;
  auto coords = spread_coords();
  coords.insert(coords.end(), {{0, 1091}, {1, 1351}, {2, 4621}});
  Digest d;
  for (const auto& [s, i] : coords) {
    const std::vector<double> noise = data.noise_variates(s, i);
    ASSERT_EQ(noise.size(), 3u * 48 * 48);
    for (const double x : noise) {
      std::uint64_t u;
      std::memcpy(&u, &x, sizeof(u));
      for (int b = 0; b < 64; b += 8) d.byte(static_cast<std::uint8_t>(u >> b));
    }
  }
  EXPECT_EQ(d.h, 0x7d1361bbbf3ed636ULL);
}

TEST(Dataset, NoiseVariatesAreWhatSampleBlends) {
  // The seam returns the values sample() quantises: with no signal and
  // no distractor, each pixel is mid-grey plus sigma times its variate.
  DatasetConfig cfg = small_config();
  cfg.blend.signal = 0.0;
  cfg.blend.distractor = 0.0;
  const SyntheticImageNet data(cfg);
  const auto plane = static_cast<std::size_t>(cfg.image_size) *
                     static_cast<std::size_t>(cfg.image_size);
  for (const int i : {0, 7, 49}) {
    const LabeledImage img = data.sample(2, i);
    const std::vector<double> noise = data.noise_variates(2, i);
    ASSERT_EQ(noise.size(), 3 * plane);
    const std::uint8_t* px = img.image.pixels().data();
    for (std::size_t p = 0; p < plane; ++p) {
      for (std::size_t ch = 0; ch < 3; ++ch) {
        const double v = 127.5 + cfg.blend.noise_sigma * noise[ch * plane + p];
        const auto want = static_cast<std::uint8_t>(
            std::clamp(v + 0.5, 0.0, 255.0));
        ASSERT_EQ(px[3 * p + ch], want) << "image " << i << " pixel " << p;
      }
    }
  }
}

TEST(Dataset, PrototypeBytesMatchRecordedDigest) {
  const SyntheticImageNet data;
  Digest d;
  for (int c = 0; c < data.num_classes(); ++c) d.image(data.prototype(c));
  EXPECT_EQ(d.h, 0xe726fa6ead970f29ULL);
}

TEST(Dataset, NonDefaultLayoutMatchesRecordedDigest) {
  // A plane cache indexed with the default 48-pixel / 50-class stride
  // cannot reproduce these bytes.
  DatasetConfig cfg;
  cfg.image_size = 40;
  cfg.num_classes = 7;
  cfg.subsets = 2;
  cfg.images_per_subset = 64;
  const SyntheticImageNet data(cfg);
  Digest d;
  for (int c = 0; c < cfg.num_classes; ++c) d.image(data.prototype(c));
  for (int s = 0; s < cfg.subsets; ++s) {
    for (int i = 0; i < cfg.images_per_subset; i += 3) {
      d.sample(data.sample(s, i));
    }
  }
  EXPECT_EQ(d.h, 0x3ff6bc6fb31defe6ULL);
}

TEST(Dataset, OddPixelCountMatchesRecordedDigest) {
  // 25 x 25 x 3 = 1875 noise values per image: the last polar pair's
  // second variate is drawn but never used. A generator that skips that
  // draw, or sums the blend terms in another order, changes these bytes.
  DatasetConfig cfg;
  cfg.image_size = 25;
  cfg.num_classes = 9;
  cfg.subsets = 2;
  cfg.images_per_subset = 40;
  const SyntheticImageNet data(cfg);
  Digest d;
  for (int s = 0; s < cfg.subsets; ++s) {
    for (int i = 0; i < cfg.images_per_subset; ++i) {
      d.sample(data.sample(s, i));
    }
  }
  EXPECT_EQ(d.h, 0xebea5be338220dbfULL);
}

TEST(Dataset, ConcurrentSamplesMatchSerial) {
  // Eight threads share one generator and its wave-plane cache, each
  // walking the images in a different order; every image must still
  // equal the serial run's bytes.
  constexpr std::size_t kThreads = 8;
  constexpr int kImages = 48;
  DatasetConfig cfg;
  cfg.num_classes = 12;
  cfg.subsets = 1;
  cfg.images_per_subset = kImages;
  std::vector<std::vector<std::uint8_t>> serial;
  {
    const SyntheticImageNet data(cfg);
    for (int i = 0; i < kImages; ++i) {
      serial.push_back(data.sample(0, i).image.pixels());
    }
  }
  const SyntheticImageNet shared(cfg);
  std::vector<std::vector<std::vector<std::uint8_t>>> got(
      kThreads, std::vector<std::vector<std::uint8_t>>(kImages));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int> order(kImages);
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(),
                   std::mt19937(static_cast<std::uint32_t>(t) + 1));
      for (const int i : order) {
        got[t][static_cast<std::size_t>(i)] =
            shared.sample(0, i).image.pixels();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], serial) << "thread " << t;
  }
}

TEST(Dataset, CopiesOutliveTheOriginal) {
  auto original = std::make_unique<SyntheticImageNet>(small_config());
  const auto sample = original->sample(2, 9).image.pixels();
  const auto proto = original->prototype(4).pixels();
  SyntheticImageNet copy = *original;
  DatasetConfig other = small_config();
  other.seed = 7;
  SyntheticImageNet assigned(other);
  assigned = copy;
  original.reset();
  EXPECT_EQ(copy.sample(2, 9).image.pixels(), sample);
  EXPECT_EQ(assigned.sample(2, 9).image.pixels(), sample);
  EXPECT_EQ(assigned.prototype(4).pixels(), proto);
}

TEST(Dataset, RejectsBadConfigs) {
  DatasetConfig cfg = small_config();
  cfg.num_classes = 1;
  EXPECT_THROW(SyntheticImageNet{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.image_size = 4;
  EXPECT_THROW(SyntheticImageNet{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.blend.noise_sigma = -1;
  EXPECT_THROW(SyntheticImageNet{cfg}, std::invalid_argument);
}

TEST(Dataset, SamplesAreDeterministic) {
  const SyntheticImageNet a(small_config());
  const SyntheticImageNet b(small_config());
  const auto s1 = a.sample(1, 7);
  const auto s2 = b.sample(1, 7);
  EXPECT_EQ(s1.label, s2.label);
  EXPECT_EQ(s1.distractor, s2.distractor);
  EXPECT_EQ(s1.image.pixels(), s2.image.pixels());
}

TEST(Dataset, DifferentSeedsProduceDifferentData) {
  DatasetConfig cfg2 = small_config();
  cfg2.seed = 999;
  const SyntheticImageNet a(small_config());
  const SyntheticImageNet b(cfg2);
  EXPECT_NE(a.sample(0, 0).image.pixels(), b.sample(0, 0).image.pixels());
}

TEST(Dataset, LabelOfMatchesSample) {
  const SyntheticImageNet data(small_config());
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(data.label_of(s, i), data.sample(s, i).label);
    }
  }
}

TEST(Dataset, LabelsInRangeAndDistractorDiffers) {
  const SyntheticImageNet data(small_config());
  for (int i = 0; i < 50; ++i) {
    const auto s = data.sample(0, i);
    EXPECT_GE(s.label, 0);
    EXPECT_LT(s.label, 10);
    EXPECT_GE(s.distractor, 0);
    EXPECT_LT(s.distractor, 10);
    EXPECT_NE(s.label, s.distractor);
  }
}

TEST(Dataset, LabelsRoughlyUniform) {
  DatasetConfig cfg = small_config();
  cfg.images_per_subset = 2000;
  const SyntheticImageNet data(cfg);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 2000; ++i) ++counts[data.label_of(0, i)];
  for (int c : counts) {
    EXPECT_GT(c, 120);
    EXPECT_LT(c, 280);
  }
}

TEST(Dataset, OutOfRangeCoordinatesThrow) {
  const SyntheticImageNet data(small_config());
  EXPECT_THROW(data.sample(3, 0), std::out_of_range);
  EXPECT_THROW(data.sample(-1, 0), std::out_of_range);
  EXPECT_THROW(data.sample(0, 50), std::out_of_range);
  EXPECT_THROW(data.label_of(0, -1), std::out_of_range);
  EXPECT_THROW(data.prototype(10), std::out_of_range);
  EXPECT_THROW(data.prototype(-1), std::out_of_range);
}

TEST(Dataset, PrototypesAreDistinctAcrossClasses) {
  const SyntheticImageNet data(small_config());
  std::set<std::string> seen;
  for (int c = 0; c < 10; ++c) {
    const ncsw::imgproc::Image proto = data.prototype(c);
    std::string key(proto.pixels().begin(), proto.pixels().end());
    EXPECT_TRUE(seen.insert(std::move(key)).second);
  }
}

TEST(Dataset, PrototypeIsSmoothAroundMidGrey) {
  const SyntheticImageNet data(small_config());
  const auto img = data.prototype(0);
  double sum = 0;
  for (auto p : img.pixels()) sum += p;
  const double mean = sum / static_cast<double>(img.byte_size());
  EXPECT_NEAR(mean, 127.5, 25.0);
}

TEST(Dataset, SampleCorrelatesWithItsPrototype) {
  // The blended image must be closer to its label's prototype than to an
  // unrelated class's prototype on average.
  const SyntheticImageNet data(small_config());
  int closer = 0, total = 0;
  for (int i = 0; i < 30; ++i) {
    const auto s = data.sample(0, i);
    int other = (s.label + 5) % 10;
    if (other == s.distractor) other = (other + 1) % 10;
    if (other == s.label) continue;
    const double d_label = ncsw::imgproc::mean_abs_pixel_diff(
        s.image, data.prototype(s.label));
    const double d_other = ncsw::imgproc::mean_abs_pixel_diff(
        s.image, data.prototype(other));
    closer += d_label < d_other ? 1 : 0;
    ++total;
  }
  EXPECT_GT(closer, total * 7 / 10);
}

TEST(Dataset, PreprocessShapesAndMeans) {
  const SyntheticImageNet data(small_config());
  const auto t = data.preprocess(data.prototype(0), 16);
  EXPECT_EQ(t.shape(), (ncsw::tensor::Shape{1, 3, 16, 16}));
  // Mean subtraction centres values near zero.
  double sum = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) sum += t[i];
  EXPECT_NEAR(sum / static_cast<double>(t.numel()), 0.0, 30.0);
}

TEST(Dataset, PrototypeTensorsOnePerClass) {
  const SyntheticImageNet data(small_config());
  const auto protos = data.prototype_tensors(16);
  ASSERT_EQ(protos.size(), 10u);
  for (const auto& p : protos) {
    EXPECT_EQ(p.shape(), (ncsw::tensor::Shape{1, 3, 16, 16}));
  }
}

TEST(Dataset, SubsetNamesMatchPaper) {
  EXPECT_EQ(subset_name(0), "Set-1");
  EXPECT_EQ(subset_name(4), "Set-5");
}

TEST(Dataset, DefaultConfigMatchesPaperLayout) {
  const DatasetConfig cfg;
  EXPECT_EQ(cfg.subsets, 5);
  EXPECT_EQ(cfg.images_per_subset, 10000);  // 50k images total
}

TEST(Dataset, MidGreyMeans) {
  const SyntheticImageNet data(small_config());
  const auto m = data.means();
  EXPECT_FLOAT_EQ(m.r, 127.5f);
  EXPECT_FLOAT_EQ(m.g, 127.5f);
  EXPECT_FLOAT_EQ(m.b, 127.5f);
}

}  // namespace
