//===- bench/ext_serve_throughput.cpp - Serving throughput study ----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Throughput of the edda-serve core (extension; docs/SERVING.md):
/// concurrent clients submit the synthetic PERFECT Club suite as
/// analyze requests through ServeCore's pool dispatch, cold (every
/// pair tested) and warm (every pair served from the shared memo
/// store). The warm/cold ratio is the serving restatement of the
/// paper's Table 2 claim: once the store has seen a compilation's
/// questions, answering them again costs parse-and-render, not
/// dependence testing. Requests go through the full request path
/// (JSON decode, dispatch, analysis, render, JSON encode), so
/// queries/sec here is an end-to-end number, not a cache microbench.
///
///   --scale S     generator scale (default 0.25; CI smoke size)
///   --clients N,M sweep list (default 1,2,4)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "serve/Protocol.h"
#include "serve/Server.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace edda;
using namespace edda::bench;

namespace {

using Clock = std::chrono::steady_clock;

/// Submits one request line and blocks until its response arrives —
/// what one synchronous client connection experiences.
std::string callServer(ServeCore &Core, const std::string &Line) {
  std::mutex Mutex;
  std::condition_variable Cv;
  std::string Response;
  bool Done = false;
  Core.submit(Line, [&](std::string Resp) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Response = std::move(Resp);
      Done = true;
    }
    Cv.notify_one();
  });
  std::unique_lock<std::mutex> Lock(Mutex);
  Cv.wait(Lock, [&] { return Done; });
  return Response;
}

struct Phase {
  uint64_t Micros = 0;
  uint64_t Requests = 0;
  uint64_t PairsTested = 0;
  uint64_t PairsCached = 0;

  double perSec() const {
    return Micros ? 1e6 * static_cast<double>(Requests) /
                        static_cast<double>(Micros)
                  : 0.0;
  }
  double hitPct() const {
    uint64_t Total = PairsTested + PairsCached;
    return Total ? 100.0 * static_cast<double>(PairsCached) /
                       static_cast<double>(Total)
                 : 0.0;
  }
};

/// Runs every request once, fanned across \p Clients synchronous
/// client threads (round-robin assignment, like independent compiler
/// processes sharing the daemon).
Phase runPhase(ServeCore &Core, const std::vector<std::string> &Lines,
               unsigned Clients) {
  ServeStats Before = Core.stats();
  auto T0 = Clock::now();
  std::vector<std::thread> Threads;
  Threads.reserve(Clients);
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      for (size_t I = C; I < Lines.size(); I += Clients)
        callServer(Core, Lines[I]);
    });
  for (std::thread &T : Threads)
    T.join();
  auto T1 = Clock::now();
  ServeStats After = Core.stats();

  Phase P;
  P.Micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(T1 - T0)
          .count());
  P.Requests = Lines.size();
  P.PairsTested = After.PairsTested - Before.PairsTested;
  P.PairsCached = After.PairsCached - Before.PairsCached;
  return P;
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = 0.25;
  std::vector<unsigned> ClientSweep = {1, 2, 4};
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--scale") == 0 && I + 1 < Argc)
      Scale = std::atof(Argv[++I]);
    else if (std::strcmp(Argv[I], "--clients") == 0 && I + 1 < Argc) {
      ClientSweep.clear();
      for (const char *P = Argv[++I]; *P;) {
        ClientSweep.push_back(
            static_cast<unsigned>(std::strtoul(P, nullptr, 10)));
        P = std::strchr(P, ',');
        if (!P)
          break;
        ++P;
      }
    }
  }

  GeneratorOptions GOpts;
  GOpts.Scale = Scale;
  std::vector<std::string> Lines;
  for (const auto &[Name, Source] : generatePerfectClubSuite(GOpts)) {
    ServeRequest R;
    R.Id = static_cast<int64_t>(Lines.size() + 1);
    R.Operation = ServeRequest::Op::Analyze;
    R.Payload = Source;
    R.Directions = true;
    Lines.push_back(R.toJson().str());
  }

  std::printf("edda-serve throughput: %zu analyze requests "
              "(suite scale %.2f), %u-core host\n\n",
              Lines.size(), Scale, std::thread::hardware_concurrency());
  std::printf("%8s %10s | %12s %8s | %12s %8s | %7s\n", "clients",
              "threads", "cold req/s", "hit%", "warm req/s", "hit%",
              "speedup");
  rule(78);

  for (unsigned Clients : ClientSweep) {
    // A fresh core per row: the cold phase must really be cold.
    ServeOptions SOpts;
    SOpts.NumThreads = Clients; // Pool sized to the offered load.
    ServeCore Core(SOpts);
    Phase Cold = runPhase(Core, Lines, Clients);
    Phase Warm = runPhase(Core, Lines, Clients);
    std::printf("%8u %10u | %12.1f %7.1f%% | %12.1f %7.1f%% | %6.2fx\n",
                Clients, Core.options().NumThreads, Cold.perSec(),
                Cold.hitPct(), Warm.perSec(), Warm.hitPct(),
                Cold.Micros
                    ? static_cast<double>(Cold.Micros) /
                          static_cast<double>(Warm.Micros ? Warm.Micros
                                                          : 1)
                    : 0.0);
  }
  std::printf(
      "\nWarm phases answer from the shared store: the hit rate is the\n"
      "fraction of reference pairs served without running any test\n"
      "(constant/unanalyzable pairs are excluded from the rate).\n");
  return 0;
}
