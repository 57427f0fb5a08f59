#include "core/application.h"

#include <cmath>
#include <stdexcept>

#include "imgproc/ops.h"
#include "nn/executor.h"

namespace ncsw::core {

tensor::TensorF Preprocessor::operator()(const imgproc::Image& image) const {
  return imgproc::resize_to_tensor_f32(image, input_size, input_size, means);
}

double ClassificationJob::top1_error() const {
  std::int64_t n = 0, wrong = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].label < 0) continue;
    ++n;
    if (predictions.at(i).label != items[i].label) ++wrong;
  }
  return n > 0 ? static_cast<double>(wrong) / static_cast<double>(n) : 0.0;
}

double ClassificationJob::topk_error(int k) const {
  std::int64_t n = 0, wrong = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].label < 0) continue;
    ++n;
    const auto top = nn::top_k(predictions.at(i).probs, k);
    bool hit = false;
    for (const auto& [cls, p] : top) {
      if (cls == items[i].label) {
        hit = true;
        break;
      }
    }
    if (!hit) ++wrong;
  }
  return n > 0 ? static_cast<double>(wrong) / static_cast<double>(n) : 0.0;
}

std::int64_t ClassificationJob::labelled() const {
  std::int64_t n = 0;
  for (const auto& item : items) {
    if (item.label >= 0) ++n;
  }
  return n;
}

double confidence_difference(const ClassificationJob& a,
                             const ClassificationJob& b) {
  if (a.items.size() != b.items.size() ||
      a.predictions.size() != b.predictions.size()) {
    throw std::invalid_argument("confidence_difference: job size mismatch");
  }
  double sum = 0.0;
  std::int64_t n = 0;
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    const int label = a.items[i].label;
    if (label < 0 || a.items[i].id != b.items[i].id) {
      if (a.items[i].id != b.items[i].id) {
        throw std::invalid_argument("confidence_difference: item mismatch");
      }
      continue;
    }
    // Filter the top-1 miss-predictions of either implementation.
    if (a.predictions[i].label != label || b.predictions[i].label != label) {
      continue;
    }
    sum += std::abs(static_cast<double>(a.predictions[i].confidence) -
                    static_cast<double>(b.predictions[i].confidence));
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::size_t Application::add_target(std::shared_ptr<Target> target) {
  if (!target) throw std::invalid_argument("add_target: null target");
  targets_.push_back(std::move(target));
  return targets_.size() - 1;
}

std::vector<SourceItem> Application::drain(Source& source,
                                           std::int64_t limit) const {
  std::vector<SourceItem> items;
  while (limit < 0 || static_cast<std::int64_t>(items.size()) < limit) {
    auto item = source.next();
    if (!item) break;
    items.push_back(std::move(*item));
  }
  return items;
}

std::vector<tensor::TensorF> Application::preprocess_all(
    const std::vector<SourceItem>& items) const {
  std::vector<tensor::TensorF> inputs;
  inputs.reserve(items.size());
  for (const auto& item : items) inputs.push_back(preprocessor_(item.image));
  return inputs;
}

ClassificationJob Application::run_classification(Source& source,
                                                  std::size_t target_index,
                                                  std::int64_t limit) {
  Target& tgt = target(target_index);
  ClassificationJob job;
  job.target = tgt.short_name();
  job.items = drain(source, limit);
  job.predictions = tgt.classify(preprocess_all(job.items));
  return job;
}

std::vector<ClassificationJob> Application::run_on_all_targets(
    Source& source, std::int64_t limit) {
  const std::vector<SourceItem> items = drain(source, limit);
  const std::vector<tensor::TensorF> inputs = preprocess_all(items);
  std::vector<ClassificationJob> jobs;
  jobs.reserve(targets_.size());
  for (auto& tgt : targets_) {
    ClassificationJob job;
    job.target = tgt->short_name();
    job.items = items;
    job.predictions = tgt->classify(inputs);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace ncsw::core
