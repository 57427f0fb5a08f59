// Cross-module integration tests: the full toolchain path (build ->
// compile -> graph file -> stick -> predictions) and the framework-level
// invariants that tie the subsystems together.
#include <gtest/gtest.h>

#include "core/application.h"
#include "core/host_target.h"
#include "core/vpu_target.h"
#include "mdk/mdk.h"
#include "util/table.h"

namespace {

using namespace ncsw;
using namespace ncsw::core;

TEST(Integration, CpuAndVpuAgreeOnMostPredictions) {
  // The same preprocessed inputs through the FP32 CPU engine and the FP16
  // stick (via the NCAPI, weights embedded in the graph file) must agree
  // on the overwhelming majority of labels.
  dataset::DatasetConfig dc;
  dc.num_classes = 12;
  auto data = std::make_shared<dataset::SyntheticImageNet>(dc);
  auto bundle = ModelBundle::tiny_functional(*data, {32, 0});

  Preprocessor prep;
  prep.input_size = 32;
  prep.means = data->means();
  Application app(prep);
  app.add_target(make_cpu_target(bundle));
  VpuTargetConfig vcfg;
  vcfg.devices = 3;
  app.add_target(std::make_shared<VpuTarget>(bundle, vcfg));

  ImageFolderSource source(data, 0, 60);
  const auto jobs = app.run_on_all_targets(source);
  int agree = 0;
  for (std::size_t i = 0; i < jobs[0].predictions.size(); ++i) {
    if (jobs[0].predictions[i].label == jobs[1].predictions[i].label) {
      ++agree;
    }
  }
  EXPECT_GE(agree, 57);  // >= 95% agreement
  // And the confidence difference is sub-percent, as in Fig. 7b.
  EXPECT_LT(confidence_difference(jobs[0], jobs[1]), 0.015);
}

TEST(Integration, VpuPredictionsIndependentOfStickCount) {
  // Round-robin across 1 vs 5 sticks must not change functional results.
  dataset::DatasetConfig dc;
  dc.num_classes = 8;
  auto data = std::make_shared<dataset::SyntheticImageNet>(dc);
  auto bundle = ModelBundle::tiny_functional(*data, {32, 0});
  Preprocessor prep;
  prep.input_size = 32;
  prep.means = data->means();

  std::vector<tensor::TensorF> inputs;
  for (int i = 0; i < 20; ++i) {
    inputs.push_back(prep(data->sample(0, i).image));
  }
  std::vector<Prediction> one, five;
  {
    VpuTargetConfig cfg;
    cfg.devices = 1;
    VpuTarget vpu(bundle, cfg);
    one = vpu.classify(inputs);
  }
  {
    VpuTargetConfig cfg;
    cfg.devices = 5;
    VpuTarget vpu(bundle, cfg);
    five = vpu.classify(inputs);
  }
  ASSERT_EQ(one.size(), five.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].label, five[i].label) << i;
    EXPECT_FLOAT_EQ(one[i].confidence, five[i].confidence) << i;
  }
}

TEST(Integration, StreamSourceFeedsVpuGroup) {
  // MPI-stream -> multi-VPU, end to end.
  dataset::DatasetConfig dc;
  dc.num_classes = 8;
  auto data = std::make_shared<dataset::SyntheticImageNet>(dc);
  auto bundle = ModelBundle::tiny_functional(*data, {32, 0});
  Preprocessor prep;
  prep.input_size = 32;
  prep.means = data->means();
  Application app(prep);
  VpuTargetConfig vcfg;
  vcfg.devices = 2;
  const auto idx = app.add_target(std::make_shared<VpuTarget>(bundle, vcfg));

  auto counter0 = std::make_shared<std::atomic<int>>(0);
  auto counter1 = std::make_shared<std::atomic<int>>(0);
  auto make_rank = [&](std::shared_ptr<std::atomic<int>> counter,
                       int subset) -> MpiStreamSource::Producer {
    return [counter, data, subset]() -> std::optional<SourceItem> {
      const int i = counter->fetch_add(1);
      if (i >= 15) return std::nullopt;
      auto s = data->sample(subset, i);
      SourceItem item;
      item.image = std::move(s.image);
      item.label = s.label;
      item.id = std::to_string(subset) + "/" + std::to_string(i);
      return item;
    };
  };
  MpiStreamSource stream({make_rank(counter0, 0), make_rank(counter1, 1)},
                         8);
  const auto job = app.run_classification(stream, idx);
  EXPECT_EQ(job.items.size(), 30u);
  EXPECT_LT(job.top1_error(), 0.9);
  EXPECT_GE(job.topk_error(1), job.topk_error(3));
}

TEST(Integration, MdkAndInferenceShareTheChipModel) {
  // The MDK context and the inference stack describe the same silicon:
  // identical peak throughput maths.
  mdk::MdkContext mdk_ctx;
  myriad::Myriad2 chip;
  EXPECT_DOUBLE_EQ(
      mdk_ctx.config().clock_hz * mdk_ctx.config().fp16_macs_per_cycle *
          mdk_ctx.config().num_shaves,
      chip.peak_macs_per_s(graphc::Precision::kFP16));
}

TEST(Integration, TableRendersExperimentRowsWithoutThrowing) {
  // The reporting path used by every bench binary.
  util::Table t("integration");
  t.set_header({"a", "b"});
  t.add_row({util::Table::num(77.2, 1), util::Table::pm(32.01, 0.5)});
  EXPECT_FALSE(t.to_string().empty());
  EXPECT_FALSE(t.to_csv().empty());
}

}  // namespace
