//===- serve/ThreadPool.h - Minimal worker thread pool ---------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool: edda-serve's request pool. Jobs are
/// plain std::function thunks; submit() enqueues, wait() blocks until
/// every submitted job has finished. The pool is deliberately minimal:
/// no futures, no work stealing — each job is a whole request, so a
/// single locked deque is not a bottleneck.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_SERVE_THREADPOOL_H
#define EDDA_SERVE_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace edda {

class ThreadPool {
public:
  /// Spawns \p NumThreads workers. 0 is clamped to 1.
  explicit ThreadPool(unsigned NumThreads);

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Enqueues \p Job. Jobs may themselves submit further jobs.
  void submit(std::function<void()> Job);

  /// Blocks until the queue is empty and no job is running. Jobs
  /// submitted while waiting are waited for too.
  void wait();

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned hardwareThreads();

private:
  void workerLoop();

  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Workers;
  size_t InFlight = 0; // queued + running
  bool Stopping = false;
};

} // namespace edda

#endif // EDDA_SERVE_THREADPOOL_H
