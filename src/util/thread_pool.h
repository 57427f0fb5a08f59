// Fixed-size thread pool behind the host engine (kernels::compute_pool():
// the kernels' chunks and VpuTarget's per-stick classify). Its one entry
// point, fan_out, splits a call into chunks: the caller runs chunk 0, the
// workers run the rest, and the caller returns once every chunk is done.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ncsw::util {

class ThreadPool {
 public:
  /// Create `threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t threads);
  /// Joins the workers once no fan-out has a chunk left to claim.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run `fn(t)` for every t in [0, chunks) and return once all have
  /// finished. The caller runs chunk 0 and waits on one countdown latch
  /// while the workers claim the others; no heap allocation. The first
  /// exception a chunk throws is rethrown once every chunk has finished.
  /// Zero or one chunk, or a call from one of this pool's own workers,
  /// runs the chunks in order on the caller (a worker's chunks could
  /// otherwise wait behind it on a saturated pool); an exception there
  /// ends the call.
  template <typename Fn>
  void fan_out(std::size_t chunks, const Fn& fn) {
    run(chunks, &fn, [](const void* f, std::size_t t) {
      (*static_cast<const Fn*>(f))(t);
    });
  }

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const noexcept;

 private:
  using ChunkFn = void (*)(const void* fn, std::size_t t);

  // One fan_out call, on its caller's stack. After construction every
  // field but call/fn/chunks is read and written under mutex_, and a
  // worker's last touch is counting its chunk done under mutex_, so the
  // job never outlives the caller's wait.
  struct Job {
    const void* fn;
    ChunkFn call;
    std::size_t chunks;
    std::size_t next = 1;      // next chunk to claim; 0 is the caller's
    std::size_t pending;       // the latch: chunks not yet finished
    std::exception_ptr error;  // first failure
    Job* link = nullptr;       // next job with chunks left to claim
  };

  void run(std::size_t chunks, const void* fn, ChunkFn call);
  void worker_loop();
  // Runs chunk t of `job` with `lock` (on mutex_) released, then counts
  // it done, keeping its failure.
  void run_chunk(Job& job, std::size_t t,
                 std::unique_lock<std::mutex>& lock) noexcept;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // a chunk to claim, or stopping
  std::condition_variable done_cv_;  // some job's latch reached zero
  Job* head_ = nullptr;              // FIFO of jobs with chunks to claim
  Job* tail_ = nullptr;
  bool stopping_ = false;
  std::vector<std::thread> workers_;  // last: they use the members above
};

}  // namespace ncsw::util
