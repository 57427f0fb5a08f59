// Experiment drivers: one function per figure of the paper's evaluation
// (Section IV/V). The bench binaries print these results; the integration
// tests assert the paper's qualitative shape on them (who wins, by what
// factor, where the crossovers are).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/vpu_target.h"
#include "dataset/synthetic.h"
#include "nn/googlenet.h"

namespace ncsw::core::experiments {

/// Common settings for the timing figures.
struct TimingSettings {
  std::int64_t images_per_subset = 10000;  ///< the paper's subset size
  int subsets = 5;                         ///< the paper's 5 groups
  int devices = 8;                         ///< sticks in the testbed
  int batch = 8;                           ///< batch size (Fig. 6a)
};

/// Fig. 6a — inference throughput (img/s) per validation subset at batch 8
/// on CPU, GPU and the 8-stick multi-VPU target.
struct SubsetThroughput {
  std::string subset;
  double cpu = 0, gpu = 0, vpu = 0;          ///< img/s
  double cpu_sd = 0, gpu_sd = 0, vpu_sd = 0; ///< stddev of per-image ms
};
std::vector<SubsetThroughput> fig6a(const TimingSettings& s = {});

/// Fig. 6b — normalised performance scaling per batch size (active VPU
/// chips are coupled to the batch size, so batches above `devices` are
/// skipped).
struct ScalingRow {
  int batch = 1;
  double cpu = 1, gpu = 1, vpu = 1;  ///< speedup vs the batch-1 baseline
};
struct ScalingResult {
  double cpu_base_ms = 0, gpu_base_ms = 0, vpu_base_ms = 0;  ///< batch-1 ms
  std::vector<ScalingRow> rows;
};
ScalingResult fig6b(std::int64_t images = 10000,
                    const std::vector<int>& batches = {1, 2, 4, 8},
                    int devices = 8);

/// Fig. 7 — functional error-rate experiment settings.
struct ErrorSettings {
  dataset::DatasetConfig data;       ///< defaults: 5 subsets
  nn::TinyGoogLeNetConfig net;       ///< functional network geometry
  std::int64_t images_per_subset = 400;  ///< functional runs are real work
  int vpu_devices = 8;
  std::uint64_t weight_seed = 0xbadcafeULL;
};
/// One row per subset: FP32 (CPU) and FP16 (VPU) top-1 error and the mean
/// absolute confidence difference after filtering miss-predictions.
struct ErrorRow {
  std::string subset;
  std::int64_t images = 0;
  double cpu_error = 0;   ///< Fig. 7a, FP32
  double vpu_error = 0;   ///< Fig. 7a, FP16
  double conf_diff = 0;   ///< Fig. 7b
};
std::vector<ErrorRow> fig7(const ErrorSettings& s = {});

/// Fig. 8a — throughput per Watt of TDP (Eq. 1) per batch size; batches
/// above `devices` are skipped.
struct WattRow {
  int batch = 1;
  double cpu = 0, gpu = 0, vpu = 0;  ///< img/s/W
};
std::vector<WattRow> fig8a(std::int64_t images = 10000,
                           const std::vector<int>& batches = {1, 2, 4, 8},
                           int devices = 8);

/// Fig. 8b — throughput per batch size with the VPU curve continued past
/// the 8 available sticks (batch 16 is the paper's projection; here it is
/// simulated with 16 sticks and flagged `vpu_projected`).
struct ProjectionRow {
  int batch = 1;
  double cpu = 0, gpu = 0, vpu = 0;  ///< img/s
  bool vpu_projected = false;
};
std::vector<ProjectionRow> fig8b(
    std::int64_t images = 10000,
    const std::vector<int>& batches = {1, 2, 4, 8, 16},
    int devices_available = 8);

}  // namespace ncsw::core::experiments
