#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace ncsw::util {

namespace {
// Which pool (if any) owns the current thread. Set once per worker; lets
// parallel_for detect nested calls from its own workers.
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
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_current_pool == this;
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Stopping with an empty queue: every submitted task has run.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (on_worker_thread()) {
    // Nested call from one of our own workers: the shard tasks would sit
    // in the queue behind this caller, which blocks on their futures —
    // with every worker nesting, nobody is left to run a shard. Run the
    // whole range inline on this thread instead.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const std::size_t shards = std::min(n, size());
  std::vector<std::future<void>> futs;
  futs.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    futs.push_back(submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    }));
  }
  for (auto& f : futs) f.get();
}

}  // namespace ncsw::util
