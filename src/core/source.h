// Source abstraction — the left-hand side of the paper's Fig. 3: where
// input images come from. ImageFolder plays the role of the paper's
// OpenCV-decoded dataset directory; MpiStreamSource (and its one-rank
// form StreamSource) is the MPI-stream-style input the paper lists as a
// pluggable future source.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/synthetic.h"
#include "imgproc/image.h"

namespace ncsw::core {

/// One input item: an image plus its ground-truth label (-1 if unknown).
struct SourceItem {
  imgproc::Image image;
  int label = -1;
  std::string id;  ///< stable identifier ("set1/000042", file name, ...)
};

/// Pull-based input source. Implementations must be usable from a single
/// consumer thread.
class Source {
 public:
  virtual ~Source() = default;

  /// Next item, or nullopt when exhausted.
  virtual std::optional<SourceItem> next() = 0;

  /// Restart from the beginning (optional; throws if unsupported).
  virtual void reset() = 0;

  /// Total item count when known, -1 for unbounded streams.
  virtual std::int64_t size() const = 0;
};

/// Source over one subset of the synthetic ILSVRC dataset (or the whole
/// dataset when subset = -1). Items are generated lazily, so arbitrarily
/// large subsets cost no memory.
class ImageFolderSource : public Source {
 public:
  /// `limit` truncates the subset (-1 = all images).
  ImageFolderSource(std::shared_ptr<const dataset::SyntheticImageNet> data,
                    int subset, std::int64_t limit = -1);

  std::optional<SourceItem> next() override;
  void reset() override { cursor_ = 0; }
  std::int64_t size() const override { return total_; }

 private:
  std::shared_ptr<const dataset::SyntheticImageNet> data_;
  int subset_;
  std::int64_t total_;
  std::int64_t cursor_ = 0;
};

/// Source reading every .ppm file in a directory (sorted by name);
/// labels are -1 (no annotations). Mirrors running NCSw on a folder of
/// JPEGs in the paper.
class DirectorySource : public Source {
 public:
  explicit DirectorySource(const std::string& path);

  std::optional<SourceItem> next() override;
  void reset() override { cursor_ = 0; }
  std::int64_t size() const override {
    return static_cast<std::int64_t>(files_.size());
  }

 private:
  std::vector<std::string> files_;
  std::size_t cursor_ = 0;
};

/// The stream channel — the MPI-stream model of the paper's ref. [32]
/// (Peng et al., "A data streaming model in MPI"), the input the paper's
/// class diagram anticipates: one or more producer ranks push items into
/// one bounded channel; the consumer sees a single merged stream in
/// arrival order, with backpressure on the producers. Each rank's
/// producer function is called on its own thread until it returns
/// nullopt. StreamSource is this channel with one rank.
///
/// Shutdown semantics: close() stops the stream — it wakes a consumer
/// blocked in next() (which then returns nullopt, discarding anything
/// still queued) and every rank blocked on backpressure; ranks leaving
/// on close still decrement the live-producer count, so the consumer
/// predicate always fires. The destructor calls close() and joins all
/// rank threads; a consumer blocked in next() when close() is called is
/// guaranteed to return, but next() must not be entered concurrently
/// with destruction. The producer functions themselves must return for
/// the join to complete.
class MpiStreamSource : public Source {
 public:
  using Producer = std::function<std::optional<SourceItem>()>;

  /// Flow statistics for the stream (inspectable mid-run).
  struct Stats {
    std::int64_t produced = 0;        ///< items pushed by all ranks
    std::int64_t consumed = 0;        ///< items handed to the consumer
    std::int64_t producer_waits = 0;  ///< times a rank hit backpressure
    std::size_t max_queue_depth = 0;
  };

  /// One producer per rank; all start immediately.
  MpiStreamSource(std::vector<Producer> producers,
                  std::size_t queue_capacity = 32);
  ~MpiStreamSource() override;

  std::optional<SourceItem> next() override;
  /// Streams cannot rewind.
  void reset() override;
  std::int64_t size() const override { return -1; }

  /// Number of producer ranks.
  int ranks() const noexcept { return static_cast<int>(threads_.size()); }
  /// Current flow statistics (thread-safe snapshot).
  Stats stats() const;

  /// Stop the stream: subsequent (and blocked) next() calls return
  /// nullopt, each rank exits at its next queue interaction. Idempotent;
  /// does not join the rank threads (the destructor does).
  void close();

 private:
  void rank_loop(std::size_t rank);

  std::vector<Producer> producers_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<SourceItem> queue_;
  std::size_t live_producers_ = 0;
  bool stop_ = false;
  Stats stats_;
  std::vector<std::thread> threads_;
};

/// The stream channel with a single producer rank (a smaller default
/// queue); same shutdown semantics as MpiStreamSource.
class StreamSource : public MpiStreamSource {
 public:
  /// Starts the producer thread immediately.
  StreamSource(Producer producer, std::size_t queue_capacity = 16)
      : MpiStreamSource({std::move(producer)}, queue_capacity) {}
};

}  // namespace ncsw::core
