// Analytic timing models for the host-side reference implementations the
// paper compares against (Caffe-MKL on the dual Xeon, Caffe-cuDNN on the
// Quadro K4000). Both follow a two-parameter batch hyperbola
//      t_per_image(b) = t_inf + overhead / b
// fitted to the paper's measured anchors (see devices/calibration.h).
// Work is priced per MAC, so running a smaller network scales the model
// linearly — the compiled graph supplies the MAC count.
#pragma once

#include <cstdint>
#include <string>

#include "graphc/compiler.h"

namespace ncsw::devices {

/// Batch-latency model for a host device (CPU or GPU).
class HostDeviceModel {
 public:
  /// `t_inf_ms` / `overhead_ms` are the hyperbola parameters for the
  /// reference network (GoogLeNet); `reference_macs` its MAC count;
  /// `tdp_w` the device TDP used by the paper's throughput/Watt metric.
  HostDeviceModel(std::string name, double t_inf_ms, double overhead_ms,
                  std::int64_t reference_macs, double tdp_w);

  const std::string& name() const noexcept { return name_; }
  double tdp_w() const noexcept { return tdp_w_; }

  /// Per-image latency (seconds) at batch size `b` for a network with
  /// `macs` multiply-accumulates. b >= 1.
  double per_image_s(int batch, std::int64_t macs) const;

  /// Per-image latency for the reference network.
  double per_image_s(int batch) const {
    return per_image_s(batch, reference_macs_);
  }

  /// Throughput (img/s) at batch `b` for the reference network.
  double throughput(int batch) const { return 1.0 / per_image_s(batch); }

 private:
  std::string name_;
  double t_inf_ms_;
  double overhead_ms_;
  std::int64_t reference_macs_;
  double tdp_w_;
};

/// The paper's CPU: 2x Intel Xeon E5-2609v2, Caffe-MKL, FP32.
HostDeviceModel make_cpu_model();

/// The paper's GPU: NVIDIA Quadro K4000, Caffe-cuDNN, FP32.
HostDeviceModel make_gpu_model();

/// MAC count of the reference network (BVLC GoogLeNet, batch 1); computed
/// once from the real graph.
std::int64_t googlenet_macs();

}  // namespace ncsw::devices
