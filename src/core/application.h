// Application: wires Sources to Targets (the (1,N)-(1,N) association of
// the paper's Fig. 3) and runs classification jobs, collecting accuracy
// and confidence statistics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/source.h"
#include "core/target.h"

namespace ncsw::core {

/// Preprocessing settings shared by every target in a job (resize edge
/// plus channel means — the paper's OpenCV resize + mean subtraction).
struct Preprocessor {
  int input_size = 32;
  imgproc::ChannelMeans means;

  /// Apply the pipeline to one image.
  tensor::TensorF operator()(const imgproc::Image& image) const;
};

/// Output of a classification job on one target.
struct ClassificationJob {
  std::string target;                ///< target short name
  std::vector<SourceItem> items;     ///< the inputs (labels preserved)
  std::vector<Prediction> predictions;

  /// Top-1 error against the items' labels (items with label -1 are
  /// skipped). Returns 0 when no labelled items exist.
  double top1_error() const;

  /// Top-k error (the GoogLeNet paper's other headline metric): an item
  /// counts as correct when its label is among the k most probable
  /// classes. Requires predictions with full probability vectors.
  double topk_error(int k) const;

  /// Count of labelled items.
  std::int64_t labelled() const;
};

/// Mean absolute top-1 confidence difference between two jobs over the
/// same items, after filtering out images either implementation
/// miss-predicts (paper Fig. 7b). Throws on item mismatch.
double confidence_difference(const ClassificationJob& a,
                             const ClassificationJob& b);

/// The application object: owns groups of sources and targets.
class Application {
 public:
  explicit Application(Preprocessor preprocessor)
      : preprocessor_(preprocessor) {}

  /// Register a target group member; returns its index.
  std::size_t add_target(std::shared_ptr<Target> target);

  std::size_t target_count() const noexcept { return targets_.size(); }
  Target& target(std::size_t i) { return *targets_.at(i); }

  /// Drain `source` (up to `limit` items; -1 = all), classify every item
  /// on target `target_index`, and return the job.
  ClassificationJob run_classification(Source& source,
                                       std::size_t target_index,
                                       std::int64_t limit = -1);

  /// Classify the same drained items on every registered target (one
  /// pass over the source). Returns one job per target.
  std::vector<ClassificationJob> run_on_all_targets(Source& source,
                                                    std::int64_t limit = -1);

  const Preprocessor& preprocessor() const noexcept { return preprocessor_; }

 private:
  std::vector<SourceItem> drain(Source& source, std::int64_t limit) const;
  std::vector<tensor::TensorF> preprocess_all(
      const std::vector<SourceItem>& items) const;

  Preprocessor preprocessor_;
  std::vector<std::shared_ptr<Target>> targets_;
};

}  // namespace ncsw::core
