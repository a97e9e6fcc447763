//===- serve/ThreadPool.cpp - Minimal worker thread pool ------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "serve/ThreadPool.h"

#include <algorithm>

using namespace edda;

unsigned ThreadPool::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

ThreadPool::ThreadPool(unsigned NumThreads) {
  NumThreads = std::max(1u, NumThreads);
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Job) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Job));
    ++InFlight;
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return InFlight == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock,
                         [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Job = std::move(Queue.front());
      Queue.pop_front();
    }
    Job();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--InFlight == 0)
        AllDone.notify_all();
    }
  }
}
