#include "core/source.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "imgproc/ppm.h"

namespace ncsw::core {

ImageFolderSource::ImageFolderSource(
    std::shared_ptr<const dataset::SyntheticImageNet> data, int subset,
    std::int64_t limit)
    : data_(std::move(data)), subset_(subset) {
  if (!data_) throw std::invalid_argument("ImageFolderSource: null dataset");
  if (subset_ < -1 || subset_ >= data_->subsets()) {
    throw std::invalid_argument("ImageFolderSource: bad subset");
  }
  const std::int64_t per = data_->images_per_subset();
  total_ = subset_ == -1 ? per * data_->subsets() : per;
  if (limit >= 0) total_ = std::min(total_, limit);
}

std::optional<SourceItem> ImageFolderSource::next() {
  if (cursor_ >= total_) return std::nullopt;
  const std::int64_t per = data_->images_per_subset();
  const int subset =
      subset_ == -1 ? static_cast<int>(cursor_ / per) : subset_;
  const int index = static_cast<int>(subset_ == -1 ? cursor_ % per : cursor_);
  ++cursor_;

  auto sample = data_->sample(subset, index);
  SourceItem item;
  item.image = std::move(sample.image);
  item.label = sample.label;
  item.id = dataset::subset_name(subset) + "/" + std::to_string(index);
  return item;
}

DirectorySource::DirectorySource(const std::string& path) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(path)) {
    throw std::invalid_argument("DirectorySource: not a directory: " + path);
  }
  for (const auto& entry : fs::directory_iterator(path)) {
    if (entry.is_regular_file() && entry.path().extension() == ".ppm") {
      files_.push_back(entry.path().string());
    }
  }
  std::sort(files_.begin(), files_.end());
}

std::optional<SourceItem> DirectorySource::next() {
  if (cursor_ >= files_.size()) return std::nullopt;
  const std::string& file = files_[cursor_++];
  SourceItem item;
  item.image = imgproc::load_ppm(file);
  item.id = file;
  return item;
}

MpiStreamSource::MpiStreamSource(std::vector<Producer> producers,
                                 std::size_t queue_capacity)
    : producers_(std::move(producers)),
      capacity_(std::max<std::size_t>(1, queue_capacity)) {
  if (producers_.empty()) {
    throw std::invalid_argument("MpiStreamSource: no producers");
  }
  for (const auto& p : producers_) {
    if (!p) throw std::invalid_argument("MpiStreamSource: null producer");
  }
  live_producers_ = producers_.size();
  threads_.reserve(producers_.size());
  for (std::size_t rank = 0; rank < producers_.size(); ++rank) {
    threads_.emplace_back([this, rank] { rank_loop(rank); });
  }
}

MpiStreamSource::~MpiStreamSource() {
  close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void MpiStreamSource::close() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
}

void MpiStreamSource::rank_loop(std::size_t rank) {
  for (;;) {
    std::optional<SourceItem> item = producers_[rank]();
    std::unique_lock lock(mutex_);
    // Every exit path must decrement live_producers_: the consumer
    // predicate counts on the last leaving rank to fire it at shutdown.
    if (!item || stop_) {
      --live_producers_;
      cv_.notify_all();
      return;
    }
    // Backpressure. A manual wait loop (not the predicate overload) so
    // stats_.producer_waits counts every re-wait: a rank that wakes but
    // loses the race for the freed slot to another rank goes back to
    // sleep, and that is a second wait the stats must show.
    while (!stop_ && queue_.size() >= capacity_) {
      ++stats_.producer_waits;
      cv_.wait(lock);
    }
    if (stop_) {
      --live_producers_;
      cv_.notify_all();
      return;
    }
    queue_.push_back(std::move(*item));
    ++stats_.produced;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    cv_.notify_all();
  }
}

std::optional<SourceItem> MpiStreamSource::next() {
  std::unique_lock lock(mutex_);
  // stop_ in the predicate keeps a consumer blocked here from hanging
  // when close() (or the destructor) shuts the stream down.
  cv_.wait(lock, [this] {
    return stop_ || live_producers_ == 0 || !queue_.empty();
  });
  if (stop_ || queue_.empty()) return std::nullopt;
  SourceItem item = std::move(queue_.front());
  queue_.pop_front();
  ++stats_.consumed;
  cv_.notify_all();
  return item;
}

void MpiStreamSource::reset() {
  throw std::logic_error("MpiStreamSource::reset: streams cannot rewind");
}

MpiStreamSource::Stats MpiStreamSource::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace ncsw::core
