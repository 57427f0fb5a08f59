#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using ncsw::util::ThreadPool;

// The ParallelFor* tests predate fan_out, which replaced parallel_for as
// the pool's one fan-out; they keep their names and now drive fan_out.

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  pool.fan_out(hits.size(), [&](std::size_t t) { hits[t].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.fan_out(5, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.fan_out(3, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ChunkZeroRunsOnTheCaller) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 50; ++round) {
    std::vector<std::thread::id> ran(4);
    pool.fan_out(ran.size(), [&](std::size_t t) {
      ran[t] = std::this_thread::get_id();
    });
    ASSERT_EQ(ran[0], caller) << "round " << round;
    for (std::size_t t = 1; t < ran.size(); ++t) {
      EXPECT_NE(ran[t], caller) << "round " << round << " chunk " << t;
    }
  }
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.fan_out(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// Zero or one chunk never reaches a worker: with the only worker held
// busy, both calls still return, and the one chunk ran on the caller.
TEST(ThreadPool, FanOutOfZeroOrOneChunkStaysOnCaller) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::atomic<bool> holding{false};
  std::thread holder([&] {
    pool.fan_out(2, [&](std::size_t t) {
      if (t == 0) return;
      holding = true;
      release.get_future().wait();
    });
  });
  while (!holding) std::this_thread::yield();
  bool called = false;
  pool.fan_out(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  std::thread::id ran;
  pool.fan_out(1, [&](std::size_t) { ran = std::this_thread::get_id(); });
  EXPECT_EQ(ran, std::this_thread::get_id());
  release.set_value();
  holder.join();
}

TEST(ThreadPool, OnWorkerThreadIdentifiesOwnWorkersOnly) {
  ThreadPool pool(2);
  ThreadPool other(1);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<bool> on_pool{false}, on_other{true};
  pool.fan_out(2, [&](std::size_t t) {
    if (t == 1) on_pool = pool.on_worker_thread();
  });
  other.fan_out(2, [&](std::size_t t) {
    if (t == 1) on_other = pool.on_worker_thread();
  });
  EXPECT_TRUE(on_pool.load());
  EXPECT_FALSE(on_other.load());
}

// Regression: a fan-out from a pool worker used to queue its chunks
// behind the (blocked) caller and deadlock a saturated pool.
TEST(ThreadPool, ParallelForFromWorkerRunsInline) {
  ThreadPool pool(1);  // the calling chunk saturates the pool by itself
  std::atomic<int> counter{0};
  std::atomic<bool> inline_on_worker{true};
  auto done = std::async(std::launch::async, [&] {
    pool.fan_out(2, [&](std::size_t t) {
      if (t == 0) return;
      const std::thread::id worker = std::this_thread::get_id();
      pool.fan_out(8, [&](std::size_t) {
        counter.fetch_add(1);
        if (std::this_thread::get_id() != worker) inline_on_worker = false;
      });
    });
  });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "nested fan_out deadlocked";
  done.get();
  EXPECT_EQ(counter.load(), 8);
  EXPECT_TRUE(inline_on_worker.load());
}

TEST(ThreadPool, ParallelForNestedInParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto done = std::async(std::launch::async, [&] {
    pool.fan_out(4, [&](std::size_t) {
      pool.fan_out(4, [&](std::size_t) { counter.fetch_add(1); });
    });
  });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "nested fan_out deadlocked";
  done.get();
  EXPECT_EQ(counter.load(), 16);
}

// A chunk k > 0 that throws surfaces on the caller only once every other
// chunk has finished: the slow chunks' writes are all visible when
// fan_out throws, so no chunk can outlive the caller's locals.
TEST(ThreadPool, FanOutRethrowsOnceEveryChunkFinished) {
  ThreadPool pool(3);
  for (const std::size_t bad : {std::size_t{1}, std::size_t{3}}) {
    std::vector<std::atomic<int>> finished(4);
    try {
      pool.fan_out(finished.size(), [&](std::size_t t) {
        if (t == bad) throw std::runtime_error("boom");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished[t] = 1;
      });
      ADD_FAILURE() << "no exception for chunk " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    for (std::size_t t = 0; t < finished.size(); ++t) {
      EXPECT_EQ(finished[t].load(), t == bad ? 0 : 1)
          << "bad " << bad << " chunk " << t;
    }
  }
  // The pool is still usable afterwards.
  std::atomic<int> counter{0};
  pool.fan_out(4, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 4);
}

// Fan-outs from several outside threads at once, then the destructor:
// every chunk has run and every worker joins.
TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c) {
      callers.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          pool.fan_out(3, [&](std::size_t) { counter.fetch_add(1); });
        }
      });
    }
    for (auto& th : callers) th.join();
  }  // destructor joins
  EXPECT_EQ(counter.load(), 4 * 50 * 3);
}

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers) {
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  pool.fan_out(20, [&](std::size_t) {
    const int now = in_flight.fetch_add(1) + 1;
    int prev = max_in_flight.load();
    while (now > prev && !max_in_flight.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    in_flight.fetch_sub(1);
  });
  // The caller runs only chunk 0, so the two workers run the rest.
  EXPECT_GE(max_in_flight.load(), 1);
  EXPECT_LE(max_in_flight.load(), 3);
}

}  // namespace
