#include "core/host_target.h"

#include <stdexcept>

#include "devices/calibration.h"
#include "nn/executor.h"
#include "util/rng.h"

namespace ncsw::core {

Prediction make_prediction(std::vector<float> probs) {
  Prediction p;
  p.probs = std::move(probs);
  for (std::size_t i = 0; i < p.probs.size(); ++i) {
    if (p.label < 0 || p.probs[i] > p.confidence) {
      p.label = static_cast<int>(i);
      p.confidence = p.probs[i];
    }
  }
  return p;
}

HostTarget::HostTarget(std::shared_ptr<const ModelBundle> bundle,
                       devices::HostDeviceModel model, std::string short_name,
                       int max_batch, std::uint64_t jitter_seed)
    : bundle_(std::move(bundle)),
      model_(std::move(model)),
      short_name_(std::move(short_name)),
      max_batch_(max_batch),
      jitter_seed_(jitter_seed) {
  if (!bundle_) throw std::invalid_argument("HostTarget: null bundle");
  if (max_batch_ < 1) throw std::invalid_argument("HostTarget: max_batch < 1");
}

Target::BatchExec HostTarget::execute_batch(std::int64_t images, int batch,
                                            double submit_s) {
  TimedRun run;
  run.images = images;
  std::int64_t remaining = images;
  while (remaining > 0) {
    const std::int64_t n = std::min<std::int64_t>(batch, remaining);
    // Partial trailing batches still pay the full-batch latency profile of
    // their actual size.
    // The fast tier scales the whole batch profile by its calibrated
    // single-thread kernel speedup (devices/calibration.h).
    const double per_image =
        model_.per_image_s(static_cast<int>(n), bundle_->macs) /
        (fast_ ? devices::calibration::kHostFastSpeedupX : 1.0);
    // Deterministic run-to-run noise (the figures' error bars).
    const std::uint64_t h = util::hash_mix(jitter_seed_, batches_run_++);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    const double jitter =
        1.0 + devices::calibration::kHostJitterFrac * (2.0 * u - 1.0);
    const double batch_time = per_image * static_cast<double>(n) * jitter;
    run.seconds += batch_time;
    const double ms = batch_time / static_cast<double>(n) * 1e3;
    for (std::int64_t i = 0; i < n; ++i) run.per_image_ms.add(ms);
    remaining -= n;
  }
  // The host engine is one serial queue: this submission starts once the
  // previous one drains.
  BatchExec exec;
  exec.run = std::move(run);
  exec.start_s = std::max(submit_s, next_free_s_);
  exec.complete_s = exec.start_s + exec.run.seconds;
  next_free_s_ = exec.complete_s;
  return exec;
}

void HostTarget::set_fast(bool fast) {
  fast_ = fast;
  // Quantization is a graph-load-time pass: run it once per target, not
  // per classify() call (timing-only bundles carry no weights to
  // prepare).
  if (fast_ && bundle_->functional() && quant_.size() == 0) {
    quant_ = nn::quantize_weights(bundle_->graph, bundle_->weights_f32);
  }
}

std::vector<Prediction> HostTarget::classify(
    const std::vector<tensor::TensorF>& inputs) {
  if (!bundle_->functional()) {
    throw std::logic_error("HostTarget::classify: timing-only bundle");
  }
  // Caffe-style batch processing: the input blob is resized to the batch
  // and the whole batch runs through the network in one pass (paper
  // Section III: "the traditional Caffe batched execution ... resizes the
  // input blob layer").
  constexpr std::int64_t kBatch = 8;
  const tensor::Shape item_shape =
      bundle_->graph.layer(bundle_->graph.input_id()).out_shape;
  std::vector<Prediction> out;
  out.reserve(inputs.size());
  for (std::size_t start = 0; start < inputs.size();
       start += static_cast<std::size_t>(kBatch)) {
    const std::int64_t n = std::min<std::int64_t>(
        kBatch, static_cast<std::int64_t>(inputs.size() - start));
    tensor::TensorF blob(item_shape.with_batch(n));
    for (std::int64_t b = 0; b < n; ++b) {
      const auto& input = inputs[start + static_cast<std::size_t>(b)];
      if (input.shape() != item_shape) {
        throw std::invalid_argument("classify: input shape " +
                                    input.shape().to_string() +
                                    ", expected " + item_shape.to_string());
      }
      std::copy(input.data(), input.data() + input.numel(),
                blob.batch_ptr(b));
    }
    nn::ExecOptions opts;
    if (fast_) {
      opts.fast = true;
      opts.quant = &quant_;
    }
    auto probs =
        nn::run_probabilities(bundle_->graph, bundle_->weights_f32, blob, opts);
    for (auto& row : probs) out.push_back(make_prediction(std::move(row)));
  }
  return out;
}

std::unique_ptr<HostTarget> make_cpu_target(
    std::shared_ptr<const ModelBundle> bundle) {
  return std::make_unique<HostTarget>(std::move(bundle),
                                      devices::make_cpu_model(), "CPU",
                                      /*max_batch=*/64, 0xc0ffeeULL);
}

std::unique_ptr<HostTarget> make_gpu_target(
    std::shared_ptr<const ModelBundle> bundle) {
  return std::make_unique<HostTarget>(std::move(bundle),
                                      devices::make_gpu_model(), "GPU",
                                      /*max_batch=*/64, 0x6e0f0eULL);
}

}  // namespace ncsw::core
