#include "myriad/myriad.h"

#include <algorithm>
#include <stdexcept>

#include "sim/resource.h"
#include "util/metrics.h"

namespace ncsw::myriad {

Myriad2::Myriad2(const MyriadConfig& config) : config_(config) {
  if (config_.num_shaves < 1 || config_.clock_hz <= 0 ||
      config_.ddr_bandwidth <= 0) {
    throw std::invalid_argument("Myriad2: invalid configuration");
  }
}

double Myriad2::peak_macs_per_s(graphc::Precision precision) const noexcept {
  const double per_shave = precision == graphc::Precision::kFP16
                               ? config_.fp16_macs_per_cycle
                               : config_.fp32_macs_per_cycle;
  return config_.clock_hz * per_shave * config_.num_shaves;
}

double Myriad2::efficiency(nn::LayerKind kind) const noexcept {
  switch (kind) {
    case nn::LayerKind::kConv:
      return config_.eff_conv;
    case nn::LayerKind::kFC:
      return config_.eff_fc;
    case nn::LayerKind::kMaxPool:
    case nn::LayerKind::kAvgPool:
      return config_.eff_pool;
    case nn::LayerKind::kLRN:
      return config_.eff_lrn;
    case nn::LayerKind::kReLU:
    case nn::LayerKind::kSoftmax:
      return config_.eff_elementwise;
    case nn::LayerKind::kConcat:
    case nn::LayerKind::kDropout:
    case nn::LayerKind::kInput:
      return 1.0;  // pure data movement; compute term is zero anyway
  }
  return 1.0;
}

InferenceProfile Myriad2::execute(const graphc::CompiledGraph& graph) const {
  if (graph.layers.empty()) {
    throw std::invalid_argument("Myriad2::execute: empty graph");
  }
  sim::Resource shaves(config_.num_shaves);
  sim::Resource ddr;

  const double peak = peak_macs_per_s(graph.precision) /
                      static_cast<double>(config_.num_shaves);

  InferenceProfile profile;
  profile.layers.reserve(graph.layers.size());

  double shave_busy_total = 0.0;
  // The LEON scheduler issues layers strictly in order; `cursor` is the
  // time at which the next layer may be dispatched.
  double cursor = 0.0;

  for (const auto& layer : graph.layers) {
    if (layer.kind == nn::LayerKind::kInput) {
      LayerProfile lp;
      lp.name = layer.name;
      lp.kind = layer.kind;
      lp.start_s = cursor;
      profile.layers.push_back(lp);
      continue;
    }
    // RISC dispatch.
    cursor += config_.risc_layer_overhead_s;
    const double layer_start = cursor;

    // Compute: split the layer's MACs into its compiled tiles and
    // reserve a SHAVE for each.
    double compute_end = layer_start;
    double busy_this_layer = 0.0;
    if (layer.macs > 0) {
      const double eff = efficiency(layer.kind);
      double tile_s = static_cast<double>(layer.macs) /
                      static_cast<double>(layer.tiles) / (peak * eff);
      if (!layer.fits_cmx) tile_s *= config_.cmx_miss_penalty;
      tile_s += config_.tile_dispatch_s;
      for (std::int32_t t = 0; t < layer.tiles; ++t) {
        const double start = shaves.reserve(layer_start, tile_s);
        compute_end = std::max(compute_end, start + tile_s);
        busy_this_layer += tile_s;
      }
    }

    // Data movement: weights always stream from DDR; activations stream
    // from DDR only when the working set misses CMX (otherwise they live
    // in the scratchpad and move at CMX speed).
    const double act_bw =
        layer.fits_cmx ? config_.cmx_bandwidth : config_.ddr_bandwidth;
    const double act_s =
        static_cast<double>(layer.in_bytes + layer.out_bytes) / act_bw;
    const double weight_s =
        static_cast<double>(layer.weight_bytes) / config_.ddr_bandwidth;
    double dma_end = layer_start;
    if (weight_s > 0.0 || !layer.fits_cmx) {
      const double ddr_dur = weight_s + (layer.fits_cmx ? 0.0 : act_s);
      const double start = ddr.reserve(layer_start, ddr_dur);
      dma_end = start + ddr_dur;
    }
    const double cmx_end = layer_start + (layer.fits_cmx ? act_s : 0.0);

    const double layer_end = std::max({compute_end, dma_end, cmx_end});

    LayerProfile lp;
    lp.name = layer.name;
    lp.kind = layer.kind;
    lp.start_s = layer_start;
    lp.time_s = layer_end - layer_start;
    lp.compute_s = compute_end - layer_start;
    lp.dma_s = std::max(dma_end, cmx_end) - layer_start;
    lp.tiles = layer.tiles;
    const double span = lp.time_s * static_cast<double>(config_.num_shaves);
    lp.shave_utilization = span > 0.0 ? busy_this_layer / span : 0.0;
    profile.layers.push_back(lp);

    shave_busy_total += busy_this_layer;
    cursor = layer_end;
  }

  profile.total_s = cursor;
  profile.sim_events = shaves.reservations() + ddr.reservations();

  // Energy: active SHAVE islands while busy, idle power otherwise; the
  // DDR island while streaming; the base island for the whole run.
  const double shave_idle_time =
      profile.total_s * static_cast<double>(config_.num_shaves) -
      shave_busy_total;
  profile.energy_j = shave_busy_total * config_.p_shave_active +
                     std::max(0.0, shave_idle_time) * config_.p_shave_idle +
                     ddr.busy_time() * config_.p_ddr_active +
                     profile.total_s * config_.p_base;
  profile.avg_power_w =
      profile.total_s > 0.0 ? profile.energy_j / profile.total_s : 0.0;

  // Chip-level occupancy aggregates: how busy the SHAVE array and the
  // DDR interface were over this execution, and the per-layer spread.
  auto& reg = util::metrics();
  static util::Counter& m_execs = reg.counter("myriad.executions");
  static util::Counter& m_layers = reg.counter("myriad.layers");
  static util::Histogram& m_layer_ms = reg.histogram("myriad.layer_ms");
  static util::Histogram& m_shave_util =
      reg.histogram("myriad.shave_util",
                    {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  m_execs.add(1);
  m_layers.add(profile.layers.size());
  for (const auto& lp : profile.layers) {
    if (lp.time_s <= 0.0) continue;
    m_layer_ms.record(lp.time_s * 1e3);
    m_shave_util.record(lp.shave_utilization);
  }
  reg.gauge("myriad.last.shave_busy_frac")
      .set(profile.total_s > 0.0
               ? shave_busy_total /
                     (profile.total_s * static_cast<double>(config_.num_shaves))
               : 0.0);
  reg.gauge("myriad.last.ddr_busy_frac")
      .set(profile.total_s > 0.0 ? ddr.busy_time() / profile.total_s : 0.0);
  return profile;
}

}  // namespace ncsw::myriad
