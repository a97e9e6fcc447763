//===- serve/Server.cpp - Persistent analysis daemon core -----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "analysis/Analyzer.h"
#include "analysis/Features.h"
#include "analysis/Incremental.h"
#include "deptest/Direction.h"
#include "deptest/ProblemIO.h"
#include "parser/Parser.h"
#include "serve/Render.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <set>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace edda;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char *shortAnswerName(DepAnswer Answer) {
  switch (Answer) {
  case DepAnswer::Independent:
    return "independent";
  case DepAnswer::Dependent:
    return "dependent";
  case DepAnswer::Unknown:
    return "unknown";
  }
  return "?";
}

/// A branch-and-bound-heavy calibration problem: two coupled equations
/// under triangular bounds, the shape Direction.h documents as driving
/// nearly every constrained query into Fourier-Motzkin branch & bound.
DependenceProblem calibrationProblem() {
  DependenceProblem P;
  P.NumLoopsA = P.NumLoopsB = P.NumCommon = 2;
  const unsigned NumX = 4;
  XAffine E1(NumX), E2(NumX);
  E1.Coeffs = {1, 1, -1, -1};
  E1.Const = 1;
  E2.Coeffs = {1, -2, 0, 1};
  E2.Const = 0;
  P.Equations = {E1, E2};
  XAffine Zero(NumX), Top(NumX);
  Top.Const = 100;
  XAffine AfterX0(NumX), AfterX2(NumX);
  AfterX0.Coeffs[0] = 1;
  AfterX2.Coeffs[2] = 1;
  P.Lo = {Zero, AfterX0, Zero, AfterX2};
  P.Hi = {Top, Top, Top, Top};
  return P;
}

/// Converts a wall-clock timeout into a Fourier-Motzkin work budget by
/// measuring this machine's combine rate on the calibration problem.
/// The budget is the enforceable stand-in for the deadline: FM work is
/// counted deterministically, so the same problem always degrades (or
/// not) at the same point regardless of machine load.
uint64_t calibrateFmBudget(unsigned TimeoutMs) {
  DependenceProblem P = calibrationProblem();
  DirectionOptions DirOpts;
  DirOpts.MaxRefineFmWork = 20000;
  uint64_t Start = nowNs();
  DirectionResult R = computeDirectionVectors(P, DirOpts);
  uint64_t Elapsed = nowNs() - Start;
  uint64_t Work = R.TestStats.FmWork;
  if (Elapsed == 0 || Work == 0)
    return 1u << 16; // Timer or problem misbehaved; a safe middle.
  // combines per millisecond, then scaled to the deadline.
  long double PerMs = static_cast<long double>(Work) * 1e6L /
                      static_cast<long double>(Elapsed);
  long double Budget = PerMs * static_cast<long double>(TimeoutMs);
  if (Budget < 4096)
    return 4096;
  if (Budget > static_cast<long double>(UINT64_MAX) / 2)
    return UINT64_MAX / 2;
  return static_cast<uint64_t>(Budget);
}

bool writeAllFd(int Fd, const char *Data, size_t Len) {
  while (Len) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

} // namespace

double ServeStats::hitRatePct() const {
  uint64_t Hits = PairsCached + ProblemsCached;
  uint64_t Total = Hits + PairsTested + ProblemsTested;
  return Total ? 100.0 * static_cast<double>(Hits) /
                     static_cast<double>(Total)
               : 0.0;
}

/// All counters are relaxed atomics: they are monotone accounting with
/// no ordering relationship to the answers themselves.
struct ServeCore::Counters {
  std::atomic<uint64_t> Requests{0}, AnalyzeRequests{0},
      FeaturesRequests{0}, ProblemRequests{0}, EditRequests{0},
      Errors{0}, PairsTested{0},
      PairsCached{0}, PairsConstant{0}, PairsUnanalyzable{0},
      ProblemsTested{0}, ProblemsCached{0}, TestsRun{0}, MemoHitsFull{0},
      MemoHitsNoBounds{0}, FmWork{0}, WidenedQueries{0},
      DegradedRequests{0}, WallNs{0}, Checkpoints{0}, Evicted{0},
      WarmLoadedEntries{0}, PairsReused{0}, PairsInvalidated{0};

  /// Adds one analysis run's decision work.
  void addWork(const DepStats &S) {
    TestsRun.fetch_add(S.totalDecided(), std::memory_order_relaxed);
    MemoHitsFull.fetch_add(S.MemoHitsFull, std::memory_order_relaxed);
    MemoHitsNoBounds.fetch_add(S.MemoHitsNoBounds,
                               std::memory_order_relaxed);
    FmWork.fetch_add(S.FmWork, std::memory_order_relaxed);
    WidenedQueries.fetch_add(S.WidenedQueries, std::memory_order_relaxed);
  }
};

/// One edit-loop program: the incremental analyzer state plus the lock
/// that serializes edits to it. The session owns its analyzer (and
/// that analyzer's private memo tables) rather than sharing the
/// server-wide store: fingerprint invalidation tracks this one
/// program's live pair keys, which must not evict entries other
/// requests still want.
struct ServeCore::EditSession {
  explicit EditSession(AnalyzerOptions AO) : Incr(std::move(AO)) {}

  std::mutex Mutex;
  IncrementalSession Incr;
  /// Logical touch time (ServeCore::SessionClock) for LRU eviction.
  uint64_t LastUsed = 0;
};

static MemoOptions servingMemoOptions(unsigned Threads) {
  MemoOptions M;
  M.TrackRecency = true;
  // A few shards per worker keeps the hot path on uncontended locks.
  M.Shards = 4 * std::max(1u, Threads);
  return M;
}

ServeCore::ServeCore(ServeOptions O, std::string *Error)
    : Opts(std::move(O)),
      Cache(servingMemoOptions(Opts.NumThreads
                                   ? Opts.NumThreads
                                   : ThreadPool::hardwareThreads())),
      C(std::make_unique<Counters>()) {
  if (Opts.NumThreads == 0)
    Opts.NumThreads = ThreadPool::hardwareThreads();
  if (Opts.BatchSize == 0)
    Opts.BatchSize = 1;

  DefaultBudget = Opts.RequestFmBudget;
  if (DefaultBudget == 0 && Opts.TimeoutMs != 0)
    DefaultBudget = calibrateFmBudget(Opts.TimeoutMs);

  if (!Opts.CachePath.empty()) {
    struct stat St;
    if (::stat(Opts.CachePath.c_str(), &St) == 0) {
      CacheLoadStats LoadStats;
      if (Cache.loadFromFile(Opts.CachePath, &LoadStats)) {
        C->WarmLoadedEntries.store(Cache.uniqueFull() +
                                   Cache.uniqueDirections() +
                                   Cache.uniqueNoBounds());
      } else if (Error) {
        // Say why instead of silently cold-starting.
        *Error = "warm-start file '" + Opts.CachePath + "' ";
        if (LoadStats.FileVersion != 0 &&
            LoadStats.FileVersion != DependenceCache::FileVersion)
          *Error += "declares stale format version " +
                    std::to_string(LoadStats.FileVersion) +
                    "; cold-starting";
        else
          *Error += "is unreadable or has a bad format; cold-starting";
      }
    }
  }

  if (!Opts.StatsLogPath.empty()) {
    LogStream.open(Opts.StatsLogPath, std::ios::app);
    if (!LogStream && Error) {
      if (!Error->empty())
        *Error += "; ";
      *Error += "cannot open stats log '" + Opts.StatsLogPath + "'";
    }
  }

  Pool = std::make_unique<ThreadPool>(Opts.NumThreads);

  if (Opts.CheckpointIntervalSec != 0 && !Opts.CachePath.empty())
    CheckpointThread = std::thread([this] { checkpointLoop(); });
}

ServeCore::~ServeCore() {
  Pool->wait();
  if (CheckpointThread.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(CheckpointCvMutex);
      StopCheckpointThread = true;
    }
    CheckpointCv.notify_all();
    CheckpointThread.join();
  }
  if (!Opts.CachePath.empty())
    checkpoint();
}

void ServeCore::checkpointLoop() {
  std::unique_lock<std::mutex> Lock(CheckpointCvMutex);
  while (!StopCheckpointThread) {
    CheckpointCv.wait_for(
        Lock, std::chrono::seconds(Opts.CheckpointIntervalSec),
        [this] { return StopCheckpointThread; });
    if (StopCheckpointThread)
      return;
    Lock.unlock();
    checkpoint();
    Lock.lock();
  }
}

bool ServeCore::checkpoint() {
  if (Opts.CachePath.empty())
    return false;
  std::lock_guard<std::mutex> Lock(CheckpointMutex);
  if (Opts.MaxCacheEntries != 0)
    C->Evicted.fetch_add(Cache.evictOldest(Opts.MaxCacheEntries),
                         std::memory_order_relaxed);
  std::string Tmp =
      Opts.CachePath + ".tmp." + std::to_string(::getpid());
  if (!Cache.saveToFile(Tmp)) {
    ::unlink(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Opts.CachePath.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  C->Checkpoints.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<const TestPipeline>
ServeCore::pipelineFor(const std::string &Spec, std::string *Error) {
  const std::string &Effective =
      Spec.empty() ? Opts.PipelineSpec : Spec;
  if (Effective.empty() || Effective == "default")
    return nullptr; // CascadeOptions null = the paper's cascade.
  std::lock_guard<std::mutex> Lock(PipelineMutex);
  auto It = Pipelines.find(Effective);
  if (It != Pipelines.end())
    return It->second;
  std::shared_ptr<const TestPipeline> P = makePipeline(Effective, Error);
  if (P)
    Pipelines.emplace(Effective, P);
  return P;
}

void ServeCore::logRequest(const JsonValue &Entry) {
  if (!LogStream.is_open())
    return;
  std::lock_guard<std::mutex> Lock(LogMutex);
  LogStream << Entry.str() << '\n';
  LogStream.flush();
}

static ServeResponse errorResponse(int64_t Id, std::string Error) {
  ServeResponse R;
  R.Id = Id;
  R.Ok = false;
  R.Error = std::move(Error);
  JsonValue O = JsonValue::object();
  O.set("id", Id);
  O.set("ok", false);
  O.set("error", R.Error);
  R.Body = std::move(O);
  return R;
}

ServeResponse ServeCore::handleAnalyze(const ServeRequest &R) {
  uint64_t Start = nowNs();

  ParseResult Parsed = parseProgram(R.Payload);
  if (!Parsed.succeeded()) {
    std::string Msg = "parse error";
    for (const Diagnostic &D : Parsed.Diags) {
      Msg += "; ";
      Msg += D.str();
    }
    return errorResponse(R.Id, Msg);
  }
  Program Prog = std::move(*Parsed.Prog);

  std::string PipeError;
  std::shared_ptr<const TestPipeline> Pipe =
      pipelineFor(R.PipelineSpec, &PipeError);
  if (!Pipe && !PipeError.empty())
    return errorResponse(R.Id, "bad pipeline: " + PipeError);

  uint64_t Budget = R.FmBudget ? R.FmBudget : DefaultBudget;

  AnalyzerOptions AO;
  AO.RunPrepass = R.Prepass;
  // A per-request budget override bypasses the shared store entirely:
  // its possibly-degraded answers must never be served to an
  // unbudgeted request (the server-wide default budget is uniform
  // across requests, so those results stay mutually consistent).
  AO.UseMemoization = R.FmBudget == 0;
  AO.ComputeDirections = R.Directions;
  AO.Trace = R.Explain;
  AO.Cascade.Pipeline = Pipe;
  AO.Cascade.Widen = R.Widen;
  AO.Direction.Cascade.Pipeline = Pipe;
  AO.Direction.Cascade.Widen = R.Widen;
  if (Budget) {
    AO.Direction.MaxRefineFmWork = Budget;
    AO.Cascade.Fm.MaxCombines = Budget;
    AO.Direction.Cascade.Fm.MaxCombines = Budget;
  }

  DependenceAnalyzer Analyzer(AO, Cache);
  AnalysisResult Result = Analyzer.analyze(Prog);
  uint64_t WallNs = nowNs() - Start;

  ReportOptions Report;
  Report.Directions = R.Directions;
  Report.Explain = R.Explain;
  Report.CacheMarkers = R.CacheMarkers;

  uint64_t Tested = 0, Cached = 0, Constant = 0, Unanalyzable = 0;
  bool Degraded = false;
  JsonValue Pairs = JsonValue::array();
  for (const DependencePair &Pair : Result.Pairs) {
    if (Pair.DecidedBy == TestKind::Unanalyzable)
      ++Unanalyzable;
    else if (Pair.FromCache)
      ++Cached;
    else if (Pair.DecidedBy == TestKind::ArrayConstant)
      ++Constant; // Decided structurally; never enters the store.
    else
      ++Tested;
    if (Pair.Directions && !Pair.Directions->Exact)
      Degraded = true;
    if (Pair.Answer == DepAnswer::Unknown && !Pair.Exact &&
        Pair.DecidedBy == TestKind::FourierMotzkin)
      Degraded = true;

    JsonValue PJ = JsonValue::object();
    PJ.set("a", Pair.RefA);
    PJ.set("b", Pair.RefB);
    PJ.set("answer", shortAnswerName(Pair.Answer));
    PJ.set("decided_by", testKindName(Pair.DecidedBy));
    PJ.set("exact", Pair.Exact);
    PJ.set("from_cache", Pair.FromCache);
    if (Pair.Directions) {
      JsonValue Dirs = JsonValue::array();
      for (const DirVector &V : Pair.Directions->Vectors)
        Dirs.push(dirVectorStr(V));
      PJ.set("directions", std::move(Dirs));
      JsonValue Dists = JsonValue::array();
      for (const std::optional<int64_t> &D : Pair.Directions->Distances)
        Dists.push(D ? JsonValue(*D) : JsonValue());
      PJ.set("distances", std::move(Dists));
    }
    Pairs.push(std::move(PJ));
  }

  JsonValue Stats = JsonValue::object();
  Stats.set("wall_ns", WallNs);
  Stats.set("pairs", Result.PairsConsidered);
  Stats.set("pairs_cached", Cached);
  Stats.set("pairs_tested", Tested);
  Stats.set("unanalyzable", Result.UnanalyzablePairs);
  Stats.set("tests_run", Result.Stats.totalDecided());
  Stats.set("cache_hits_full", Result.Stats.MemoHitsFull);
  Stats.set("cache_hits_nobounds", Result.Stats.MemoHitsNoBounds);
  Stats.set("fm_work", Result.Stats.FmWork);
  Stats.set("widened", Result.Stats.WidenedQueries);
  Stats.set("degraded", Degraded);

  ServeResponse Out;
  Out.Id = R.Id;
  Out.Ok = true;
  Out.Text = renderAnalysisReport(Prog, Result, Report);
  JsonValue O = JsonValue::object();
  O.set("id", R.Id);
  O.set("ok", true);
  O.set("text", Out.Text);
  O.set("pairs", std::move(Pairs));
  O.set("stats", Stats);
  Out.Body = std::move(O);

  C->AnalyzeRequests.fetch_add(1, std::memory_order_relaxed);
  C->PairsTested.fetch_add(Tested, std::memory_order_relaxed);
  C->PairsCached.fetch_add(Cached, std::memory_order_relaxed);
  C->PairsConstant.fetch_add(Constant, std::memory_order_relaxed);
  C->PairsUnanalyzable.fetch_add(Unanalyzable,
                                 std::memory_order_relaxed);
  C->addWork(Result.Stats);
  if (Degraded)
    C->DegradedRequests.fetch_add(1, std::memory_order_relaxed);
  C->WallNs.fetch_add(WallNs, std::memory_order_relaxed);

  Stats.set("op", "analyze");
  Stats.set("id", R.Id);
  logRequest(Stats);
  return Out;
}

ServeResponse ServeCore::handleFeatures(const ServeRequest &R) {
  uint64_t Start = nowNs();

  ParseResult Parsed = parseProgram(R.Payload);
  if (!Parsed.succeeded()) {
    std::string Msg = "parse error";
    for (const Diagnostic &D : Parsed.Diags) {
      Msg += "; ";
      Msg += D.str();
    }
    return errorResponse(R.Id, Msg);
  }
  Program Prog = std::move(*Parsed.Prog);

  std::string PipeError;
  std::shared_ptr<const TestPipeline> Pipe =
      pipelineFor(R.PipelineSpec, &PipeError);
  if (!Pipe && !PipeError.empty())
    return errorResponse(R.Id, "bad pipeline: " + PipeError);

  uint64_t Budget = R.FmBudget ? R.FmBudget : DefaultBudget;

  AnalyzerOptions AO;
  AO.RunPrepass = R.Prepass;
  AO.UseMemoization = R.FmBudget == 0;
  // The direction summaries and distance histograms are the point of
  // the op, so directions are always computed.
  AO.ComputeDirections = true;
  AO.Cascade.Pipeline = Pipe;
  AO.Cascade.Widen = R.Widen;
  AO.Direction.Cascade.Pipeline = Pipe;
  AO.Direction.Cascade.Widen = R.Widen;
  if (Budget) {
    AO.Direction.MaxRefineFmWork = Budget;
    AO.Cascade.Fm.MaxCombines = Budget;
    AO.Direction.Cascade.Fm.MaxCombines = Budget;
  }

  DependenceAnalyzer Analyzer(AO, Cache);
  AnalysisResult Result = Analyzer.analyze(Prog);
  JsonValue Features = extractFeatures(Prog, Result);
  uint64_t WallNs = nowNs() - Start;

  uint64_t Tested = 0, Cached = 0, Constant = 0, Unanalyzable = 0;
  for (const DependencePair &Pair : Result.Pairs) {
    if (Pair.DecidedBy == TestKind::Unanalyzable)
      ++Unanalyzable;
    else if (Pair.FromCache)
      ++Cached;
    else if (Pair.DecidedBy == TestKind::ArrayConstant)
      ++Constant;
    else
      ++Tested;
  }

  JsonValue Stats = JsonValue::object();
  Stats.set("wall_ns", WallNs);
  Stats.set("pairs", Result.PairsConsidered);
  Stats.set("pairs_cached", Cached);
  Stats.set("pairs_tested", Tested);
  Stats.set("unanalyzable", Result.UnanalyzablePairs);
  Stats.set("fm_work", Result.Stats.FmWork);

  ServeResponse Out;
  Out.Id = R.Id;
  Out.Ok = true;
  Out.Text = Features.str();
  JsonValue O = JsonValue::object();
  O.set("id", R.Id);
  O.set("ok", true);
  O.set("text", Out.Text);
  O.set("features", std::move(Features));
  O.set("stats", Stats);
  Out.Body = std::move(O);

  C->FeaturesRequests.fetch_add(1, std::memory_order_relaxed);
  C->PairsTested.fetch_add(Tested, std::memory_order_relaxed);
  C->PairsCached.fetch_add(Cached, std::memory_order_relaxed);
  C->PairsConstant.fetch_add(Constant, std::memory_order_relaxed);
  C->PairsUnanalyzable.fetch_add(Unanalyzable,
                                 std::memory_order_relaxed);
  C->addWork(Result.Stats);
  C->WallNs.fetch_add(WallNs, std::memory_order_relaxed);

  Stats.set("op", "features");
  Stats.set("id", R.Id);
  logRequest(Stats);
  return Out;
}

ServeResponse ServeCore::handleProblem(const ServeRequest &R) {
  uint64_t Start = nowNs();

  ProblemParseResult Parsed = parseProblemText(R.Payload);
  if (!Parsed.succeeded())
    return errorResponse(R.Id, "problem parse error: " + Parsed.Error);
  const DependenceProblem &P = *Parsed.Problem;

  std::string PipeError;
  std::shared_ptr<const TestPipeline> Pipe =
      pipelineFor(R.PipelineSpec, &PipeError);
  if (!Pipe && !PipeError.empty())
    return errorResponse(R.Id, "bad pipeline: " + PipeError);

  uint64_t Budget = R.FmBudget ? R.FmBudget : DefaultBudget;
  bool UseMemo = R.FmBudget == 0; // Same bypass rule as analyze.

  CascadeOptions CO;
  CO.Pipeline = Pipe;
  CO.Widen = R.Widen;
  if (Budget)
    CO.Fm.MaxCombines = Budget;

  DepStats Stats;
  bool FromCache = false;
  CascadeResult Result;
  if (UseMemo) {
    if (std::optional<CascadeResult> Hit = Cache.lookupFull(P)) {
      Result = *Hit;
      FromCache = true;
    }
  }
  if (!FromCache) {
    Result = testDependence(P, CO, &Stats);
    if (UseMemo)
      Cache.insertFull(P, Result);
  }

  std::optional<PipelineTrace> Trace;
  if (R.Explain) {
    // Observational re-run, exactly as edda-cli --explain does: no
    // stats, no memoization, so the trace cannot perturb the answer.
    const TestPipeline &Pipeline =
        Pipe ? *Pipe : TestPipeline::defaultPipeline();
    Trace.emplace();
    Pipeline.run(P, {}, CO, /*Stats=*/nullptr, &*Trace);
  }

  std::optional<DirectionResult> Dirs;
  bool DirsFromCache = false;
  if (R.Directions && Result.Answer != DepAnswer::Independent) {
    if (UseMemo) {
      if (std::optional<DirectionResult> Hit =
              Cache.lookupDirections(P)) {
        Dirs = *Hit;
        DirsFromCache = true;
      }
    }
    if (!Dirs) {
      DirectionOptions DirOpts;
      DirOpts.Cascade = CO;
      if (Budget)
        DirOpts.MaxRefineFmWork = Budget;
      Dirs = computeDirectionVectors(P, DirOpts);
      Stats += Dirs->TestStats;
      if (UseMemo)
        Cache.insertDirections(P, *Dirs);
    }
  }
  uint64_t WallNs = nowNs() - Start;

  bool Degraded =
      (Result.Answer == DepAnswer::Unknown && !Result.Exact &&
       Result.DecidedBy == TestKind::FourierMotzkin) ||
      (Dirs && !Dirs->Exact);

  ServeResponse Out;
  Out.Id = R.Id;
  Out.Ok = true;
  Out.Text = renderProblemReport(P, Result, Dirs ? &*Dirs : nullptr,
                                 Trace ? &*Trace : nullptr);

  JsonValue Stat = JsonValue::object();
  Stat.set("wall_ns", WallNs);
  Stat.set("from_cache", FromCache && (!Dirs || DirsFromCache));
  Stat.set("tests_run", Stats.totalDecided());
  Stat.set("fm_work", Stats.FmWork);
  Stat.set("widened", Stats.WidenedQueries);
  Stat.set("degraded", Degraded);

  JsonValue O = JsonValue::object();
  O.set("id", R.Id);
  O.set("ok", true);
  O.set("text", Out.Text);
  O.set("answer", shortAnswerName(Result.Answer));
  O.set("decided_by", testKindName(Result.DecidedBy));
  O.set("exact", Result.Exact);
  if (Dirs) {
    JsonValue DV = JsonValue::array();
    for (const DirVector &V : Dirs->Vectors)
      DV.push(dirVectorStr(V));
    O.set("directions", std::move(DV));
  }
  O.set("stats", Stat);
  Out.Body = std::move(O);

  C->ProblemRequests.fetch_add(1, std::memory_order_relaxed);
  bool CountedCached = FromCache && (!Dirs || DirsFromCache);
  (CountedCached ? C->ProblemsCached : C->ProblemsTested)
      .fetch_add(1, std::memory_order_relaxed);
  C->TestsRun.fetch_add(Stats.totalDecided(),
                        std::memory_order_relaxed);
  C->FmWork.fetch_add(Stats.FmWork, std::memory_order_relaxed);
  C->WidenedQueries.fetch_add(Stats.WidenedQueries,
                              std::memory_order_relaxed);
  if (Degraded)
    C->DegradedRequests.fetch_add(1, std::memory_order_relaxed);
  C->WallNs.fetch_add(WallNs, std::memory_order_relaxed);

  Stat.set("op", "problem");
  Stat.set("id", R.Id);
  logRequest(Stat);
  return Out;
}

ServeResponse ServeCore::handleEdit(const ServeRequest &R,
                                    uint64_t ConnId) {
  uint64_t Start = nowNs();

  ParseResult Parsed = parseProgram(R.Payload);
  if (!Parsed.succeeded()) {
    std::string Msg = "parse error";
    for (const Diagnostic &D : Parsed.Diags) {
      Msg += "; ";
      Msg += D.str();
    }
    return errorResponse(R.Id, Msg);
  }
  Program Prog = std::move(*Parsed.Prog);

  std::string PipeError;
  std::shared_ptr<const TestPipeline> Pipe =
      pipelineFor(R.PipelineSpec, &PipeError);
  if (!Pipe && !PipeError.empty())
    return errorResponse(R.Id, "bad pipeline: " + PipeError);

  const std::string Key = R.Session.empty()
                              ? "conn:" + std::to_string(ConnId)
                              : "user:" + R.Session;

  std::shared_ptr<EditSession> Session;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    auto It = Sessions.find(Key);
    if (It == Sessions.end()) {
      // A session's analyzer options are fixed by its first request:
      // reanalysis is bit-identical to from-scratch only under
      // unchanged options, so later flags must not re-steer a live
      // session. The server default budget applies uniformly, exactly
      // as it does to every analyze request.
      AnalyzerOptions AO;
      AO.RunPrepass = R.Prepass;
          AO.Cascade.Pipeline = Pipe;
      AO.Cascade.Widen = R.Widen;
      AO.Direction.Cascade.Pipeline = Pipe;
      AO.Direction.Cascade.Widen = R.Widen;
      if (DefaultBudget) {
        AO.Direction.MaxRefineFmWork = DefaultBudget;
        AO.Cascade.Fm.MaxCombines = DefaultBudget;
        AO.Direction.Cascade.Fm.MaxCombines = DefaultBudget;
      }
      It = Sessions
               .emplace(Key, std::make_shared<EditSession>(std::move(AO)))
               .first;
    }
    Session = It->second;
    Session->LastUsed = ++SessionClock;

    // Bound abandoned sessions. Erasing only drops the registry's
    // reference; a request already holding the shared_ptr finishes
    // against its own copy.
    constexpr size_t MaxSessions = 64;
    while (Sessions.size() > MaxSessions) {
      auto Oldest = Sessions.end();
      for (auto I = Sessions.begin(); I != Sessions.end(); ++I)
        if (I->second != Session &&
            (Oldest == Sessions.end() ||
             I->second->LastUsed < Oldest->second->LastUsed))
          Oldest = I;
      if (Oldest == Sessions.end())
        break;
      Sessions.erase(Oldest);
    }
  }

  ReanalyzeStats RS;
  DepStats Work; // decisions of the re-run pairs only
  std::string Text, GraphText;
  {
    // Edits to one session serialize here; other sessions (and all
    // analyze/problem traffic) keep running on their own state.
    std::lock_guard<std::mutex> Lock(Session->Mutex);
    RS = Session->Incr.update(std::move(Prog));
    Work = Session->Incr.result().Stats;

    ReportOptions Report;
    Report.Directions = R.Directions;
    // Explain is ignored: spliced pairs have no fresh pipeline trace,
    // and a half-traced report would be misleading.
    Report.CacheMarkers = R.CacheMarkers;
    Text = renderAnalysisReport(Session->Incr.program(),
                                Session->Incr.result(), Report);
    GraphText = Session->Incr.graph().str(Session->Incr.program());
  }
  uint64_t WallNs = nowNs() - Start;

  JsonValue Stats = JsonValue::object();
  Stats.set("wall_ns", WallNs);
  Stats.set("pairs", RS.PairsTotal);
  Stats.set("pairs_reused", RS.PairsReused);
  Stats.set("pairs_invalidated", RS.PairsInvalidated);
  Stats.set("pairs_cached", RS.PairsCached);
  Stats.set("pairs_tested", RS.PairsTested);
  Stats.set("tests_run", Work.totalDecided());
  Stats.set("cache_hits_full", Work.MemoHitsFull);
  Stats.set("cache_hits_nobounds", Work.MemoHitsNoBounds);
  Stats.set("fm_work", Work.FmWork);
  Stats.set("widened", Work.WidenedQueries);

  ServeResponse Out;
  Out.Id = R.Id;
  Out.Ok = true;
  Out.Text = Text;
  JsonValue O = JsonValue::object();
  O.set("id", R.Id);
  O.set("ok", true);
  O.set("text", Out.Text);
  O.set("graph", GraphText);
  O.set("session", Key);
  O.set("stats", Stats);
  Out.Body = std::move(O);

  C->EditRequests.fetch_add(1, std::memory_order_relaxed);
  C->PairsReused.fetch_add(RS.PairsReused, std::memory_order_relaxed);
  C->PairsInvalidated.fetch_add(RS.PairsInvalidated,
                                std::memory_order_relaxed);
  C->PairsCached.fetch_add(RS.PairsCached, std::memory_order_relaxed);
  C->PairsTested.fetch_add(RS.PairsTested, std::memory_order_relaxed);
  C->addWork(Work);
  C->WallNs.fetch_add(WallNs, std::memory_order_relaxed);

  Stats.set("op", "edit");
  Stats.set("id", R.Id);
  Stats.set("session", Key);
  logRequest(Stats);
  return Out;
}

JsonValue ServeCore::statsJson() const {
  ServeStats S = stats();
  JsonValue O = JsonValue::object();
  O.set("requests", S.Requests);
  O.set("analyze_requests", S.AnalyzeRequests);
  O.set("features_requests", S.FeaturesRequests);
  O.set("problem_requests", S.ProblemRequests);
  O.set("edit_requests", S.EditRequests);
  O.set("errors", S.Errors);
  O.set("pairs_tested", S.PairsTested);
  O.set("pairs_cached", S.PairsCached);
  O.set("pairs_constant", S.PairsConstant);
  O.set("pairs_unanalyzable", S.PairsUnanalyzable);
  O.set("problems_tested", S.ProblemsTested);
  O.set("problems_cached", S.ProblemsCached);
  O.set("hit_rate_pct", S.hitRatePct());
  O.set("tests_run", S.TestsRun);
  O.set("cache_hits_full", S.MemoHitsFull);
  O.set("cache_hits_nobounds", S.MemoHitsNoBounds);
  O.set("cache_queries_dir", Cache.dirQueries());
  O.set("cache_hits_dir", Cache.dirHits());
  O.set("fm_work", S.FmWork);
  O.set("widened", S.WidenedQueries);
  O.set("degraded_requests", S.DegradedRequests);
  O.set("pairs_reused", S.PairsReused);
  O.set("pairs_invalidated", S.PairsInvalidated);
  O.set("wall_ns", S.WallNs);
  O.set("checkpoints", S.Checkpoints);
  O.set("evicted", S.Evicted);
  O.set("warm_loaded_entries", S.WarmLoadedEntries);
  O.set("unique_full", Cache.uniqueFull());
  O.set("unique_directions", Cache.uniqueDirections());
  O.set("unique_nobounds", Cache.uniqueNoBounds());
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    O.set("edit_sessions", static_cast<uint64_t>(Sessions.size()));
  }
  O.set("threads", Opts.NumThreads);
  O.set("default_fm_budget", DefaultBudget);
  return O;
}

ServeStats ServeCore::stats() const {
  ServeStats S;
  S.Requests = C->Requests.load();
  S.AnalyzeRequests = C->AnalyzeRequests.load();
  S.FeaturesRequests = C->FeaturesRequests.load();
  S.ProblemRequests = C->ProblemRequests.load();
  S.EditRequests = C->EditRequests.load();
  S.Errors = C->Errors.load();
  S.PairsTested = C->PairsTested.load();
  S.PairsCached = C->PairsCached.load();
  S.PairsConstant = C->PairsConstant.load();
  S.PairsUnanalyzable = C->PairsUnanalyzable.load();
  S.ProblemsTested = C->ProblemsTested.load();
  S.ProblemsCached = C->ProblemsCached.load();
  S.TestsRun = C->TestsRun.load();
  S.MemoHitsFull = C->MemoHitsFull.load();
  S.MemoHitsNoBounds = C->MemoHitsNoBounds.load();
  S.FmWork = C->FmWork.load();
  S.WidenedQueries = C->WidenedQueries.load();
  S.DegradedRequests = C->DegradedRequests.load();
  S.WallNs = C->WallNs.load();
  S.Checkpoints = C->Checkpoints.load();
  S.Evicted = C->Evicted.load();
  S.WarmLoadedEntries = C->WarmLoadedEntries.load();
  S.PairsReused = C->PairsReused.load();
  S.PairsInvalidated = C->PairsInvalidated.load();
  return S;
}

ServeResponse ServeCore::handle(const ServeRequest &R, uint64_t ConnId) {
  C->Requests.fetch_add(1, std::memory_order_relaxed);
  switch (R.Operation) {
  case ServeRequest::Op::Analyze:
    return handleAnalyze(R);
  case ServeRequest::Op::Features:
    return handleFeatures(R);
  case ServeRequest::Op::Problem:
    return handleProblem(R);
  case ServeRequest::Op::Edit:
    return handleEdit(R, ConnId);
  case ServeRequest::Op::Stats: {
    ServeResponse Out;
    Out.Id = R.Id;
    Out.Ok = true;
    JsonValue O = JsonValue::object();
    O.set("id", R.Id);
    O.set("ok", true);
    O.set("server", statsJson());
    Out.Body = std::move(O);
    return Out;
  }
  case ServeRequest::Op::Ping: {
    ServeResponse Out;
    Out.Id = R.Id;
    Out.Ok = true;
    JsonValue O = JsonValue::object();
    O.set("id", R.Id);
    O.set("ok", true);
    O.set("op", "ping");
    Out.Body = std::move(O);
    return Out;
  }
  case ServeRequest::Op::Checkpoint: {
    bool Saved = checkpoint();
    ServeResponse Out;
    Out.Id = R.Id;
    Out.Ok = Saved;
    if (!Saved)
      Out.Error = Opts.CachePath.empty()
                      ? "no --cache path configured"
                      : "checkpoint write failed";
    JsonValue O = JsonValue::object();
    O.set("id", R.Id);
    O.set("ok", Saved);
    if (!Saved)
      O.set("error", Out.Error);
    O.set("entries", Cache.uniqueFull() + Cache.uniqueDirections() +
                         Cache.uniqueNoBounds());
    Out.Body = std::move(O);
    return Out;
  }
  case ServeRequest::Op::Shutdown: {
    ShutdownFlag.store(true, std::memory_order_release);
    ServeResponse Out;
    Out.Id = R.Id;
    Out.Ok = true;
    JsonValue O = JsonValue::object();
    O.set("id", R.Id);
    O.set("ok", true);
    O.set("op", "shutdown");
    Out.Body = std::move(O);
    return Out;
  }
  }
  return errorResponse(R.Id, "unhandled op");
}

std::string ServeCore::handleLine(const std::string &Line,
                                  uint64_t ConnId) {
  std::string Error;
  int64_t Id = 0;
  std::optional<ServeRequest> R = parseServeRequest(Line, &Error, &Id);
  if (!R) {
    C->Requests.fetch_add(1, std::memory_order_relaxed);
    C->Errors.fetch_add(1, std::memory_order_relaxed);
    return errorResponse(Id, Error).Body.str();
  }
  ServeResponse Out = handle(*R, ConnId);
  if (!Out.Ok)
    C->Errors.fetch_add(1, std::memory_order_relaxed);
  return Out.Body.str();
}

void ServeCore::submit(std::string Line,
                       std::function<void(std::string)> Done,
                       uint64_t ConnId) {
  Pool->submit([this, Line = std::move(Line), Done = std::move(Done),
                ConnId] { Done(handleLine(Line, ConnId)); });
}

void ServeCore::drain() { Pool->wait(); }

//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

namespace {

/// Shared between a transport reader and the response callbacks it has
/// in flight; enforces the 2*BatchSize backpressure window.
struct FlightControl {
  std::mutex Mutex;
  std::condition_variable Cv;
  uint64_t InFlight = 0;

  void acquire(uint64_t Limit) {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return InFlight < Limit; });
    ++InFlight;
  }
  void release() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --InFlight;
    }
    Cv.notify_all();
  }
  void waitEmpty() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return InFlight == 0; });
  }
};

} // namespace

int edda::runStdioServer(ServeCore &Core) {
  auto Flight = std::make_shared<FlightControl>();
  auto OutMutex = std::make_shared<std::mutex>();
  const uint64_t Limit = 2 * Core.options().BatchSize;

  std::string Line;
  while (!Core.shutdownRequested() && std::getline(std::cin, Line)) {
    if (Line.empty())
      continue;
    Flight->acquire(Limit);
    Core.submit(Line, [Flight, OutMutex](std::string Resp) {
      {
        std::lock_guard<std::mutex> Lock(*OutMutex);
        Resp += '\n';
        std::fwrite(Resp.data(), 1, Resp.size(), stdout);
        std::fflush(stdout);
      }
      Flight->release();
    });
  }
  Flight->waitEmpty();
  Core.drain();
  return 0;
}

namespace {

void serveConnection(ServeCore &Core, int Fd, uint64_t ConnId) {
  auto Flight = std::make_shared<FlightControl>();
  auto WriteMutex = std::make_shared<std::mutex>();
  const uint64_t Limit = 2 * Core.options().BatchSize;

  std::string Buf;
  char Chunk[4096];
  for (;;) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      break; // EOF (or shutdown(SHUT_RD) from the accept loop).
    Buf.append(Chunk, static_cast<size_t>(N));
    size_t Start = 0;
    for (size_t Nl; (Nl = Buf.find('\n', Start)) != std::string::npos;
         Start = Nl + 1) {
      std::string Line = Buf.substr(Start, Nl - Start);
      if (Line.empty())
        continue;
      Flight->acquire(Limit);
      Core.submit(std::move(Line),
                  [Flight, WriteMutex, Fd](std::string Resp) {
                    Resp += '\n';
                    {
                      std::lock_guard<std::mutex> Lock(*WriteMutex);
                      // A hung-up client only loses its own replies.
                      (void)writeAllFd(Fd, Resp.data(), Resp.size());
                    }
                    Flight->release();
                  },
                  ConnId);
    }
    Buf.erase(0, Start);
  }
  Flight->waitEmpty();
  ::close(Fd);
}

} // namespace

int edda::runUnixServer(ServeCore &Core, const std::string &SocketPath,
                        const std::atomic<bool> &Stop,
                        std::string *Error) {
  int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + SocketPath;
    ::close(ListenFd);
    return 1;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  ::unlink(SocketPath.c_str()); // Stale socket from a crashed server.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0 ||
      ::listen(ListenFd, 64) < 0) {
    if (Error)
      *Error = std::string("bind/listen on '") + SocketPath +
               "': " + std::strerror(errno);
    ::close(ListenFd);
    return 1;
  }

  std::mutex ConnMutex;
  std::set<int> OpenFds;
  std::vector<std::thread> Connections;
  // Connection ids scope anonymous edit sessions; 0 is reserved for
  // the stdio transport's single implicit connection.
  uint64_t NextConnId = 1;

  while (!Stop.load(std::memory_order_acquire) &&
         !Core.shutdownRequested()) {
    pollfd Pfd{ListenFd, POLLIN, 0};
    int Ready = ::poll(&Pfd, 1, 200);
    if (Ready <= 0)
      continue; // Timeout or EINTR: re-check the stop conditions.
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      OpenFds.insert(Fd);
    }
    uint64_t ConnId = NextConnId++;
    Connections.emplace_back([&Core, &ConnMutex, &OpenFds, Fd, ConnId] {
      serveConnection(Core, Fd, ConnId);
      std::lock_guard<std::mutex> Lock(ConnMutex);
      OpenFds.erase(Fd);
    });
  }
  ::close(ListenFd);

  // Half-close lingering connections so their readers see EOF, then
  // let them drain their in-flight responses.
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (int Fd : OpenFds)
      ::shutdown(Fd, SHUT_RD);
  }
  for (std::thread &T : Connections)
    T.join();
  Core.drain();
  ::unlink(SocketPath.c_str());
  return 0;
}
