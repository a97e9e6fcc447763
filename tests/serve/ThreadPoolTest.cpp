//===- tests/serve/ThreadPoolTest.cpp - Worker pool tests -----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "serve/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>

using namespace edda;

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.threadCount(), 1u);
}

TEST(ThreadPool, RunsEverySubmittedJobExactlyOnce) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int Round = 0; Round < 3; ++Round) {
    for (int I = 0; I < 10; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Round + 1) * 10);
  }
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool Pool(2);
  Pool.wait();
  SUCCEED();
}

TEST(ThreadPool, JobsMaySubmitFurtherJobs) {
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  for (int I = 0; I < 8; ++I)
    Pool.submit([&Pool, &Count] {
      Count.fetch_add(1);
      Pool.submit([&Count] { Count.fetch_add(1); });
    });
  Pool.wait();
  EXPECT_EQ(Count.load(), 16);
}

TEST(ThreadPool, DestructorDrainsCleanly) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 50; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
    Pool.wait();
  }
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPool, HardwareThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}
