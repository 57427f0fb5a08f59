// Minimal fixed-size thread pool. NCSw uses one worker per NCS device
// (the paper used OpenMP threads for the same purpose); the pool is also
// used to parallelise dataset generation and functional inference.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ncsw::util {

/// Fixed-size pool of worker threads executing enqueued tasks FIFO.
/// Destruction drains the queue (all submitted tasks complete).
class ThreadPool {
 public:
  /// Create `threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task (any worker may run it); returns a future for its
  /// result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool::submit after shutdown");
      }
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const noexcept;

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  /// Safe to call from one of the pool's own workers: the shards would
  /// queue behind the (blocked) caller and deadlock a saturated pool, so
  /// a nested call runs every index inline on the calling thread instead.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace ncsw::util
