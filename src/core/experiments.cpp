#include "core/experiments.h"

#include <memory>

#include "core/application.h"
#include "core/host_target.h"

namespace ncsw::core::experiments {

namespace {

struct TimingRig {
  std::shared_ptr<const ModelBundle> bundle;
  std::unique_ptr<HostTarget> cpu;
  std::unique_ptr<HostTarget> gpu;
  std::unique_ptr<VpuTarget> vpu;

  explicit TimingRig(int devices) {
    bundle = ModelBundle::googlenet_reference();
    cpu = make_cpu_target(bundle);
    gpu = make_gpu_target(bundle);
    VpuTargetConfig cfg;
    cfg.devices = devices;
    vpu = std::make_unique<VpuTarget>(bundle, cfg);
  }
};

}  // namespace

std::vector<SubsetThroughput> fig6a(const TimingSettings& s) {
  TimingRig rig(s.devices);
  std::vector<SubsetThroughput> rows;
  rows.reserve(static_cast<std::size_t>(s.subsets));
  for (int subset = 0; subset < s.subsets; ++subset) {
    SubsetThroughput row;
    row.subset = dataset::subset_name(subset);
    const auto cpu = rig.cpu->run_timed(s.images_per_subset, s.batch);
    const auto gpu = rig.gpu->run_timed(s.images_per_subset, s.batch);
    const auto vpu = rig.vpu->run_timed(s.images_per_subset, s.batch);
    row.cpu = cpu.throughput();
    row.gpu = gpu.throughput();
    row.vpu = vpu.throughput();
    row.cpu_sd = cpu.per_image_ms.stddev();
    row.gpu_sd = gpu.per_image_ms.stddev();
    row.vpu_sd = vpu.per_image_ms.stddev();
    rows.push_back(row);
  }
  return rows;
}

ScalingResult fig6b(std::int64_t images, const std::vector<int>& batches,
                    int devices) {
  TimingRig rig(devices);
  ScalingResult result;
  auto per_image_ms = [images](Target& t, int batch) {
    const auto run = t.run_timed(images, batch);
    return run.seconds * 1e3 / static_cast<double>(run.images);
  };
  result.cpu_base_ms = per_image_ms(*rig.cpu, 1);
  result.gpu_base_ms = per_image_ms(*rig.gpu, 1);
  result.vpu_base_ms = per_image_ms(*rig.vpu, 1);
  for (int b : batches) {
    if (b > devices) continue;  // needs more sticks than are open
    ScalingRow row;
    row.batch = b;
    row.cpu = result.cpu_base_ms / per_image_ms(*rig.cpu, b);
    row.gpu = result.gpu_base_ms / per_image_ms(*rig.gpu, b);
    row.vpu = result.vpu_base_ms / per_image_ms(*rig.vpu, b);
    result.rows.push_back(row);
  }
  return result;
}

std::vector<ErrorRow> fig7(const ErrorSettings& s) {
  dataset::DatasetConfig data_cfg = s.data;
  data_cfg.images_per_subset =
      static_cast<int>(s.images_per_subset);
  auto data = std::make_shared<dataset::SyntheticImageNet>(data_cfg);

  nn::TinyGoogLeNetConfig net_cfg = s.net;
  net_cfg.num_classes = data->num_classes();
  auto bundle = ModelBundle::tiny_functional(*data, net_cfg, s.weight_seed);

  Preprocessor prep;
  prep.input_size = net_cfg.input_size;
  prep.means = data->means();
  Application app(prep);
  app.add_target(make_cpu_target(bundle));
  VpuTargetConfig vcfg;
  vcfg.devices = s.vpu_devices;
  app.add_target(std::make_shared<VpuTarget>(bundle, vcfg));

  std::vector<ErrorRow> rows;
  rows.reserve(static_cast<std::size_t>(data->subsets()));
  for (int subset = 0; subset < data->subsets(); ++subset) {
    ImageFolderSource source(data, subset, s.images_per_subset);
    auto jobs = app.run_on_all_targets(source);
    ErrorRow row;
    row.subset = dataset::subset_name(subset);
    row.images = static_cast<std::int64_t>(jobs[0].items.size());
    row.cpu_error = jobs[0].top1_error();
    row.vpu_error = jobs[1].top1_error();
    row.conf_diff = confidence_difference(jobs[0], jobs[1]);
    rows.push_back(row);
  }
  return rows;
}

std::vector<WattRow> fig8a(std::int64_t images, const std::vector<int>& batches,
                           int devices) {
  TimingRig rig(devices);
  std::vector<WattRow> rows;
  for (int b : batches) {
    if (b > devices) continue;  // needs more sticks than are open
    WattRow row;
    row.batch = b;
    row.cpu = rig.cpu->run_timed(images, b).throughput() / rig.cpu->tdp_w(b);
    row.gpu = rig.gpu->run_timed(images, b).throughput() / rig.gpu->tdp_w(b);
    row.vpu = rig.vpu->run_timed(images, b).throughput() / rig.vpu->tdp_w(b);
    rows.push_back(row);
  }
  return rows;
}

std::vector<ProjectionRow> fig8b(std::int64_t images,
                                 const std::vector<int>& batches,
                                 int devices_available) {
  int max_batch = devices_available;
  for (int b : batches) max_batch = std::max(max_batch, b);
  // Open enough sticks to *simulate* the projected region.
  TimingRig rig(max_batch);
  std::vector<ProjectionRow> rows;
  for (int b : batches) {
    ProjectionRow row;
    row.batch = b;
    row.cpu = rig.cpu->run_timed(images, b).throughput();
    row.gpu = rig.gpu->run_timed(images, b).throughput();
    row.vpu = rig.vpu->run_timed(images, b).throughput();
    row.vpu_projected = b > devices_available;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace ncsw::core::experiments
