#include "sim/real_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace oaf::sim {
namespace {

TEST(RealExecutorTest, PostRunsOnExecutorThread) {
  RealExecutor ex;
  std::atomic<bool> ran{false};
  std::atomic<std::thread::id> tid{};
  ex.post([&] {
    tid = std::this_thread::get_id();
    ran = true;
  });
  ex.drain();
  EXPECT_TRUE(ran.load());
  EXPECT_NE(tid.load(), std::this_thread::get_id());
}

TEST(RealExecutorTest, PostsRunInOrder) {
  RealExecutor ex;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    ex.post([&order, i] { order.push_back(i); });
  }
  ex.drain();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(RealExecutorTest, TimerFiresAfterDelay) {
  RealExecutor ex;
  std::atomic<bool> fired{false};
  const TimeNs start = ex.now();
  std::atomic<TimeNs> fire_time{0};
  ex.schedule_after(2'000'000, [&] {  // 2 ms
    fire_time = ex.now();
    fired = true;
  });
  // drain() waits for due timers; poll until fired.
  while (!fired.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(fire_time.load() - start, 2'000'000);
}

TEST(RealExecutorTest, NowAdvances) {
  RealExecutor ex;
  const TimeNs a = ex.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(ex.now(), a);
}

TEST(RealExecutorTest, CrossThreadPostsSafe) {
  RealExecutor ex;
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ex, &count] {
      for (int i = 0; i < 250; ++i) {
        ex.post([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : threads) t.join();
  ex.drain();
  EXPECT_EQ(count.load(), 1000);
}

TEST(RealExecutorTest, DestructionRunsEveryPostedTask) {
  constexpr int kTasks = 64;
  std::atomic<int> runs{0};
  {
    RealExecutor ex;
    // The first task holds the reactor, so the rest are still queued when
    // the destructor sets the stop flag.
    ex.post([&runs] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      runs.fetch_add(1, std::memory_order_relaxed);
    });
    for (int i = 1; i < kTasks; ++i) {
      ex.post([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(runs.load(), kTasks);
}

}  // namespace
}  // namespace oaf::sim
