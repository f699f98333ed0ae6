#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mwp {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsSequentiallyOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](int lane, std::size_t i) {
    EXPECT_EQ(lane, 0);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 4);
  constexpr std::size_t kCount = 1'000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](int lane, std::size_t i) {
    EXPECT_GE(lane, 0);
    EXPECT_LT(lane, 4);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(10, [&](int, std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPoolTest, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](int, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](int, std::size_t i) {
                                  if (i == 17) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](int, std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTrySubmitTest, TaskRunsOnAWorker) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  ASSERT_TRUE(pool.TrySubmit([&] { ran.store(true); }));
  while (!ran.load()) std::this_thread::yield();
}

TEST(ThreadPoolTrySubmitTest, FreeSlotIsAlwaysAccepted) {
  // Each submission follows the previous task's run, so the one-deep slot
  // is free every time, whatever the workers are doing with the pool lock.
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  int refused = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (!pool.TrySubmit([&] { runs.fetch_add(1); })) {
      ++refused;
      continue;
    }
    while (runs.load() < i + 1 - refused) std::this_thread::yield();
  }
  EXPECT_EQ(refused, 0);
}

TEST(ThreadPoolTrySubmitTest, ZeroWorkerPoolRefusesInsteadOfRunningInline) {
  // TrySubmit promises asynchrony; with no workers there is nobody to be
  // asynchronous on, so the caller must get a refusal (and solve inline
  // itself), not a hidden blocking call.
  ThreadPool pool(0);
  ASSERT_FALSE(pool.TrySubmit([] {}));
}

TEST(ThreadPoolTrySubmitTest, NullTaskIsRefused) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.TrySubmit(std::function<void()>()));
}

TEST(ThreadPoolTrySubmitTest, SaturatedPoolShedsInsteadOfBlocking) {
  // Fill every worker with a gated task, then keep submitting: once the
  // one-deep pending slot is also taken, TrySubmit must return false
  // immediately — the controller falls back to a synchronous solve rather
  // than stalling its event loop.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> completed{0};
  auto gated = [&] {
    while (!release.load()) std::this_thread::yield();
    completed.fetch_add(1);
  };

  int accepted = 0;
  bool saw_shed = false;
  for (int i = 0; i < 8 && !saw_shed; ++i) {
    if (pool.TrySubmit(gated)) {
      ++accepted;
    } else {
      saw_shed = true;
    }
    // Give workers a moment to pick up pending tasks so acceptance counts
    // stay bounded by workers + the one pending slot.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_shed);
  EXPECT_GE(accepted, 1);

  release.store(true);
  while (completed.load() < accepted) std::this_thread::yield();
  EXPECT_EQ(completed.load(), accepted);
}

TEST(ThreadPoolTrySubmitTest, PoolRemainsUsableForParallelForAfterTasks) {
  ThreadPool pool(2);
  std::atomic<int> task_runs{0};
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (pool.TrySubmit([&] { task_runs.fetch_add(1); })) {
      ++accepted;
      while (task_runs.load() < accepted) std::this_thread::yield();
    }
  }
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](int, std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTrySubmitTest, ThrowingTaskIsContainedAndPoolSurvives) {
  ThreadPool pool(1);
  ASSERT_TRUE(pool.TrySubmit([] { throw std::runtime_error("task boom"); }));
  // The exception is swallowed (logged) on the worker; subsequent work runs.
  std::atomic<bool> ran{false};
  // The slot stays taken until the worker claims the throwing task.
  while (!pool.TrySubmit([&] { ran.store(true); })) {
    std::this_thread::yield();
  }
  while (!ran.load()) std::this_thread::yield();
  std::atomic<int> count{0};
  pool.ParallelFor(4, [&](int, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

}  // namespace
}  // namespace mwp
