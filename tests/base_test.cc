// Unit tests for src/base: rng, hashing, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/base/stopwatch.h"
#include "src/base/thread_pool.h"

namespace percival {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.NextInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianHasRoughlyZeroMeanUnitVariance) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ForkIsIndependentOfParentFollowup) {
  Rng parent(42);
  Rng child = parent.Fork();
  const uint64_t child_first = child.NextU64();
  // Re-create the same sequence: forking at the same state gives the same
  // child stream.
  Rng parent2(42);
  Rng child2 = parent2.Fork();
  EXPECT_EQ(child2.NextU64(), child_first);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(5);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = values;
  rng.Shuffle(values);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(HashTest, StableAndSensitive) {
  EXPECT_EQ(HashString("percival"), HashString("percival"));
  EXPECT_NE(HashString("percival"), HashString("percivaL"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(HashTest, BytesMatchString) {
  const std::string text = "hello world";
  EXPECT_EQ(HashString(text), HashBytes(text.data(), text.size()));
}

TEST(HashTest, CombineNotCommutative) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

// The caller takes part, so a 4-item ParallelFor on 3 workers must run on 4
// distinct threads at once: each item waits until all 4 have arrived.
TEST(ThreadPoolTest, ParallelForUsesEveryWorker) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::condition_variable arrived;
  std::set<std::thread::id> threads;
  int timeouts = 0;
  pool.ParallelFor(4, [&](int) {
    std::unique_lock<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
    arrived.notify_all();
    if (!arrived.wait_for(lock, std::chrono::seconds(2), [&] { return threads.size() == 4; })) {
      ++timeouts;
    }
  });
  EXPECT_EQ(timeouts, 0) << "only " << threads.size() << " threads took part";
}

// A fan-out issued long after the spin window has closed finds every
// worker parked on the condvar and must still cover its range once.
TEST(ThreadPoolTest, ParallelForAfterIdleCoversRange) {
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<std::atomic<int>> hits(64);
    pool.ParallelFor(64, [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
    for (const auto& hit : hits) {
      ASSERT_EQ(hit.load(), 1) << "round " << round;
    }
  }
}

// Two external callers fan out back to back into one pool, so hot helpers
// of one call pick up the other's tasks; each range is covered exactly once
// per call. Counts 2..8 exercise fewer helpers than workers too.
TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirRange) {
  ThreadPool pool(3);
  std::atomic<int> bad_calls{0};
  auto caller = [&] {
    std::vector<std::atomic<int>> hits(8);
    for (int call = 0; call < 2000; ++call) {
      const int count = 2 + call % 7;
      for (auto& hit : hits) {
        hit.store(0);
      }
      pool.ParallelFor(count, [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
      for (int i = 0; i < 8; ++i) {
        if (hits[static_cast<size_t>(i)].load() != (i < count ? 1 : 0)) {
          bad_calls.fetch_add(1);
          break;
        }
      }
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(bad_calls.load(), 0);
}

// Destroying a pool right after a fan-out, while its helpers are still in
// their spin window, must join them promptly.
TEST(ThreadPoolTest, DestroyWhileWorkersSpinReturnsPromptly) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    pool.ParallelFor(8, [&ran](int) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 8);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

// From inside a worker a ParallelFor runs inline on that worker.
TEST(ThreadPoolTest, ParallelForFromWorkerRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<int> elsewhere{0};
  pool.Submit([&] {
    const std::thread::id self = std::this_thread::get_id();
    pool.ParallelFor(16, [&](int) {
      ran.fetch_add(1);
      if (std::this_thread::get_id() != self) {
        elsewhere.fetch_add(1);
      }
    });
  });
  pool.Wait();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPoolTest, NestedSubmissionCompletes) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    counter.fetch_add(1);
    pool.Submit([&] { counter.fetch_add(1); });
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(StopwatchTest, ElapsedIsMonotonic) {
  Stopwatch timer;
  const double first = timer.ElapsedUs();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + i;
  }
  EXPECT_GE(timer.ElapsedUs(), first);
}

}  // namespace
}  // namespace percival
