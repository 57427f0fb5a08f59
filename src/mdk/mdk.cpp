#include "mdk/mdk.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/resource.h"
#include "tensor/gemm.h"

namespace ncsw::mdk {

MdkContext::MdkContext(const myriad::MyriadConfig& config)
    : config_(config) {
  if (config_.num_shaves < 1 || config_.clock_hz <= 0) {
    throw std::invalid_argument("MdkContext: invalid chip configuration");
  }
}

GemmPlan MdkContext::plan_gemm(std::int64_t m, std::int64_t n,
                               std::int64_t k,
                               graphc::Precision precision) const {
  if (m < 1 || n < 1 || k < 1) {
    throw std::invalid_argument("plan_gemm: non-positive dimensions");
  }
  GemmPlan plan;
  plan.m = m;
  plan.n = n;
  plan.k = k;
  plan.precision = precision;

  // One SHAVE works on one output tile at a time out of its 128 KB CMX
  // slice: tile_m x tile_n FP32 accumulators stay resident; A and B
  // panels of depth tile_k are double-buffered.
  const std::int64_t slice = 128 * 1024;
  const std::int64_t elt = graphc::bytes_per_scalar(precision);
  plan.tile_k = std::min<std::int64_t>(k, 128);
  // Square-ish output tile: acc (4B) + 2 double-buffered panels.
  std::int64_t t = 8;
  while (true) {
    const std::int64_t next = t + 8;
    const std::int64_t acc = next * next * 4;
    const std::int64_t panels = 2 * 2 * next * plan.tile_k * elt;
    if (acc + panels > slice || next > std::max(m, n)) break;
    t = next;
  }
  plan.tile_m = std::min<std::int64_t>(t, m);
  plan.tile_n = std::min<std::int64_t>(t, n);
  plan.cmx_bytes_per_task =
      plan.tile_m * plan.tile_n * 4 +
      2 * 2 * std::max(plan.tile_m, plan.tile_n) * plan.tile_k * elt;
  const std::int64_t tiles_m = (m + plan.tile_m - 1) / plan.tile_m;
  const std::int64_t tiles_n = (n + plan.tile_n - 1) / plan.tile_n;
  plan.tasks = tiles_m * tiles_n;

  // DDR traffic: every output tile streams its A row-panel and B
  // col-panel once (k long), and writes C once.
  plan.ddr_bytes = tiles_n * (m * k * elt)    // A re-read per column strip
                   + tiles_m * (k * n * elt)  // B re-read per row strip
                   + m * n * elt;             // C write-back
  return plan;
}

KernelStats MdkContext::simulate_gemm(const GemmPlan& plan) const {
  if (plan.tasks < 1) throw std::invalid_argument("simulate_gemm: bad plan");
  sim::Resource shaves(config_.num_shaves);
  sim::Resource ddr;

  const double peak_per_shave =
      config_.clock_hz * (plan.precision == graphc::Precision::kFP16
                              ? config_.fp16_macs_per_cycle
                              : config_.fp32_macs_per_cycle);
  const double eff = gemm_efficiency();
  const std::int64_t macs_per_task = plan.tile_m * plan.tile_n * plan.k;
  const double task_compute_s =
      static_cast<double>(macs_per_task) / (peak_per_shave * eff);
  const std::int64_t elt = graphc::bytes_per_scalar(plan.precision);
  const std::int64_t task_bytes =
      (plan.tile_m + plan.tile_n) * plan.k * elt +
      plan.tile_m * plan.tile_n * elt;
  const double task_dma_s =
      static_cast<double>(task_bytes) / config_.ddr_bandwidth;

  double makespan = 0.0;
  double busy = 0.0;
  for (std::int64_t task = 0; task < plan.tasks; ++task) {
    // DMA is double-buffered: a task occupies a SHAVE for
    // max(compute, dma) once the DDR interface granted its stream.
    const double dma_start = ddr.reserve(0.0, task_dma_s);
    const double duration = std::max(task_compute_s, task_dma_s);
    const double start = shaves.reserve(dma_start, duration);
    makespan = std::max(makespan, start + duration);
    busy += duration;
  }

  KernelStats stats;
  stats.sim_time_s = makespan;
  const double flops = 2.0 * static_cast<double>(plan.m) *
                       static_cast<double>(plan.n) *
                       static_cast<double>(plan.k);
  stats.gflops = flops / makespan / 1e9;
  const double shave_idle =
      makespan * config_.num_shaves - busy;
  stats.energy_j = busy * config_.p_shave_active +
                   std::max(0.0, shave_idle) * config_.p_shave_idle +
                   ddr.busy_time() * config_.p_ddr_active +
                   makespan * config_.p_base;
  stats.avg_power_w = makespan > 0 ? stats.energy_j / makespan : 0.0;
  stats.gflops_per_w =
      stats.avg_power_w > 0 ? stats.gflops / stats.avg_power_w : 0.0;
  stats.shave_utilization =
      makespan > 0 ? busy / (makespan * config_.num_shaves) : 0.0;
  return stats;
}

KernelStats MdkContext::gemm_f32(std::int64_t m, std::int64_t n,
                                 std::int64_t k, const float* a,
                                 const float* b, float* c) const {
  const auto plan = plan_gemm(m, n, k, graphc::Precision::kFP32);
  tensor::gemm_f32(m, n, k, 1.0f, a, b, 0.0f, c);
  return simulate_gemm(plan);
}

KernelStats MdkContext::gemm_f16(std::int64_t m, std::int64_t n,
                                 std::int64_t k, const ncsw::fp16::half* a,
                                 const ncsw::fp16::half* b,
                                 ncsw::fp16::half* c) const {
  const auto plan = plan_gemm(m, n, k, graphc::Precision::kFP16);
  tensor::gemm_f16(m, n, k, 1.0f, a, b, 0.0f, c);
  return simulate_gemm(plan);
}

KernelStats MdkContext::timed_vector_kernel(std::int64_t bytes_moved,
                                            std::int64_t flops) const {
  // Purely bandwidth-bound: the SHAVEs can issue far more vector ops than
  // the DDR interface can feed.
  const double dma_s =
      static_cast<double>(bytes_moved) / config_.ddr_bandwidth;
  const double compute_s =
      static_cast<double>(flops) /
      (config_.clock_hz * config_.fp32_macs_per_cycle * config_.num_shaves);
  KernelStats stats;
  stats.sim_time_s = std::max(dma_s, compute_s);
  stats.gflops = static_cast<double>(flops) / stats.sim_time_s / 1e9;
  stats.energy_j = stats.sim_time_s * (config_.p_base +
                                       config_.p_ddr_active) +
                   compute_s * config_.num_shaves * config_.p_shave_active;
  stats.avg_power_w = stats.energy_j / stats.sim_time_s;
  stats.gflops_per_w = stats.gflops / stats.avg_power_w;
  stats.shave_utilization = compute_s / stats.sim_time_s;
  return stats;
}

KernelStats MdkContext::axpy_f32(std::int64_t n, float alpha, const float* x,
                                 float* y) const {
  if (n < 1) throw std::invalid_argument("axpy_f32: n < 1");
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
  // Traffic: read x, read y, write y.
  return timed_vector_kernel(3 * n * 4, 2 * n);
}

KernelStats MdkContext::dot_f32(std::int64_t n, const float* x,
                                const float* y, double* out) const {
  if (n < 1) throw std::invalid_argument("dot_f32: n < 1");
  if (!out) throw std::invalid_argument("dot_f32: null out");
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  *out = acc;
  return timed_vector_kernel(2 * n * 4, 2 * n);
}

}  // namespace ncsw::mdk
