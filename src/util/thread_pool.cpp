#include "util/thread_pool.h"

#include <algorithm>

namespace ncsw::util {

namespace {
// Which pool (if any) owns the current thread. Set once per worker; lets
// fan_out detect nested calls from its own workers.
thread_local const ThreadPool* t_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_current_pool == this;
}

void ThreadPool::run_chunk(Job& job, std::size_t t,
                           std::unique_lock<std::mutex>& lock) noexcept {
  lock.unlock();
  std::exception_ptr err;
  try {
    job.call(job.fn, t);
  } catch (...) {
    err = std::current_exception();
  }
  lock.lock();
  if (err && !job.error) job.error = std::move(err);
  if (--job.pending == 0) done_cv_.notify_all();
}

void ThreadPool::run(std::size_t chunks, const void* fn, ChunkFn call) {
  if (chunks <= 1 || on_worker_thread()) {
    for (std::size_t t = 0; t < chunks; ++t) call(fn, t);
    return;
  }
  Job job{fn, call, chunks, 1, chunks, nullptr, nullptr};
  std::unique_lock lock(mutex_);
  (tail_ ? tail_->link : head_) = &job;
  tail_ = &job;
  for (std::size_t t = 1; t < chunks; ++t) work_cv_.notify_one();
  run_chunk(job, 0, lock);
  done_cv_.wait(lock, [&] { return job.pending == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || head_ != nullptr; });
    // Stopping with no chunk left to claim: every fan-out has its chunks.
    if (!head_) return;
    Job& job = *head_;
    const std::size_t t = job.next++;
    if (job.next == job.chunks) {
      head_ = job.link;
      if (!head_) tail_ = nullptr;
    }
    run_chunk(job, t, lock);
  }
}

}  // namespace ncsw::util
