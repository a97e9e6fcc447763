//===- tests/serve/ServeTest.cpp - edda-serve core tests ------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the serving layer (docs/SERVING.md): the NDJSON
/// protocol round-trips, ServeCore answers match a direct analyzer
/// run byte-for-byte (modulo cache markers), the shared store turns
/// repeat requests into hits, warm-start checkpoints reload, and
/// per-request budget overrides bypass the store.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "analysis/Analyzer.h"
#include "analysis/DependenceGraph.h"
#include "analysis/Features.h"
#include "parser/Parser.h"
#include "serve/Protocol.h"
#include "serve/Render.h"
#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

using namespace edda;

namespace {

/// A nest with a carried dependence, a wavefront pair, and a
/// duplicated statement so one analyze request already exercises the
/// intra-run memo path.
const char *demoSource() {
  return "program served\n"
         "  array a[100]\n"
         "  array w[40][40]\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 1] = a[i] + 3\n"
         "  end\n"
         "  for i = 2 to 20 do\n"
         "    for j = 1 to 19 do\n"
         "      w[i][j] = w[i - 1][j + 1] + 1\n"
         "    end\n"
         "  end\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 1] = a[i] + 3\n"
         "  end\n"
         "end\n";
}

/// The coupled-subscript problem the Fourier-Motzkin stage decides
/// (tests/inputs/coupled.dep).
const char *coupledProblem() {
  return "problem\n"
         "  loops 2 2 common 2 symbolic 0\n"
         "  eq 1 1 -1 -1 = -5\n"
         "  lo 0 : 1\n"
         "  hi 0 : 10\n"
         "  lo 1 : 1\n"
         "  hi 1 : 10\n"
         "  lo 2 : 1\n"
         "  hi 2 : 10\n"
         "  lo 3 : 1\n"
         "  hi 3 : 10\n"
         "end\n";
}

/// The serve-smoke normalization: cache-hit markers depend on store
/// temperature, the answers must not.
std::string stripCached(std::string Text) {
  const std::string Marker = " (cached)";
  for (size_t Pos; (Pos = Text.find(Marker)) != std::string::npos;)
    Text.erase(Pos, Marker.size());
  return Text;
}

ServeRequest analyzeRequest(int64_t Id, bool Directions = true) {
  ServeRequest R;
  R.Id = Id;
  R.Operation = ServeRequest::Op::Analyze;
  R.Payload = demoSource();
  R.Directions = Directions;
  return R;
}

/// demoSource() after one subscript edit in the first nest; the other
/// two nests are untouched, so an incremental re-analysis reuses
/// their pairs.
const char *demoSourceEdited() {
  return "program served\n"
         "  array a[100]\n"
         "  array w[40][40]\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 2] = a[i] + 3\n"
         "  end\n"
         "  for i = 2 to 20 do\n"
         "    for j = 1 to 19 do\n"
         "      w[i][j] = w[i - 1][j + 1] + 1\n"
         "    end\n"
         "  end\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 1] = a[i] + 3\n"
         "  end\n"
         "end\n";
}

ServeRequest editRequest(int64_t Id, const char *Source,
                         const std::string &Session = "") {
  ServeRequest R;
  R.Id = Id;
  R.Operation = ServeRequest::Op::Edit;
  R.Payload = Source;
  R.Directions = true;
  R.CacheMarkers = false;
  R.Session = Session;
  return R;
}

/// Two copies of one nest whose coupled subscripts need
/// Fourier-Motzkin; the offsets make edit-by-edit versions.
std::string coupledSource(int BOffset, int AOffset) {
  std::string Nest = "  for i = 1 to 10 do\n"
                     "    for j = 1 to 10 do\n"
                     "      a[i + j] = a[i + j + " +
                     std::to_string(AOffset) +
                     "] + 1\n"
                     "      b[i + 2 * j] = b[2 * i + j + " +
                     std::to_string(BOffset) +
                     "] + 1\n"
                     "    end\n"
                     "  end\n";
  return "program coupled\n  array a[100]\n  array b[100]\n" + Nest +
         Nest + "end\n";
}

} // namespace

TEST(ServeProtocol, RequestRoundTrip) {
  ServeRequest R;
  R.Id = 42;
  R.Operation = ServeRequest::Op::Analyze;
  R.Payload = "program p\nend\n";
  R.Directions = true;
  R.Explain = true;
  R.Widen = false;
  R.Prepass = false;
  R.CacheMarkers = false;
  R.PipelineSpec = "gcd,fm";
  R.FmBudget = 123;

  std::string Error;
  std::optional<ServeRequest> Back =
      parseServeRequest(R.toJson().str(), &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Id, 42);
  EXPECT_EQ(Back->Operation, ServeRequest::Op::Analyze);
  EXPECT_EQ(Back->Payload, R.Payload);
  EXPECT_TRUE(Back->Directions);
  EXPECT_TRUE(Back->Explain);
  EXPECT_FALSE(Back->Widen);
  EXPECT_FALSE(Back->Prepass);
  EXPECT_FALSE(Back->CacheMarkers);
  EXPECT_EQ(Back->PipelineSpec, "gcd,fm");
  EXPECT_EQ(Back->FmBudget, 123u);
}

TEST(ServeProtocol, EveryOpRoundTrips) {
  using Op = ServeRequest::Op;
  for (Op Operation : {Op::Analyze, Op::Problem, Op::Edit, Op::Stats,
                       Op::Ping, Op::Checkpoint, Op::Shutdown}) {
    ServeRequest R;
    R.Id = 7;
    R.Operation = Operation;
    std::string Error;
    std::optional<ServeRequest> Back =
        parseServeRequest(R.toJson().str(), &Error);
    ASSERT_TRUE(Back.has_value())
        << serveOpName(Operation) << ": " << Error;
    EXPECT_EQ(Back->Operation, Operation);
  }
}

TEST(ServeProtocol, MalformedLinesRejectedWithIdEcho) {
  std::string Error;
  int64_t Id = -1;
  EXPECT_FALSE(parseServeRequest("not json", &Error, &Id).has_value());
  EXPECT_FALSE(Error.empty());

  // A decodable id in an otherwise-bad request still comes back, so
  // the server can address its error response.
  Error.clear();
  EXPECT_FALSE(
      parseServeRequest("{\"id\":9,\"op\":\"bogus\"}", &Error, &Id)
          .has_value());
  EXPECT_EQ(Id, 9);
  EXPECT_FALSE(Error.empty());
}

TEST(Serve, PingAndShutdownOps) {
  ServeCore Core(ServeOptions{});
  ServeRequest Ping;
  Ping.Id = 1;
  Ping.Operation = ServeRequest::Op::Ping;
  ServeResponse R = Core.handle(Ping);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Id, 1);

  EXPECT_FALSE(Core.shutdownRequested());
  ServeRequest Down;
  Down.Id = 2;
  Down.Operation = ServeRequest::Op::Shutdown;
  EXPECT_TRUE(Core.handle(Down).Ok);
  EXPECT_TRUE(Core.shutdownRequested());
}

TEST(Serve, AnalyzeMatchesDirectAnalyzerRender) {
  ServeCore Core(ServeOptions{});
  ServeResponse Served = Core.handle(analyzeRequest(1));
  ASSERT_TRUE(Served.Ok) << Served.Error;

  // The reference: what edda-cli computes for the same input — a
  // fresh single-threaded analyzer through the shared renderer.
  ParseResult Parsed = parseProgram(demoSource());
  ASSERT_TRUE(Parsed.succeeded());
  AnalyzerOptions AO;
  AO.ComputeDirections = true;
  DependenceAnalyzer Direct(AO);
  AnalysisResult Result = Direct.analyze(*Parsed.Prog);
  ReportOptions Report;
  Report.Directions = true;
  std::string Want = renderAnalysisReport(*Parsed.Prog, Result, Report);

  EXPECT_EQ(stripCached(Served.Text), stripCached(Want));
}

TEST(Serve, RepeatRequestServedFromSharedStore) {
  ServeCore Core(ServeOptions{});
  ServeResponse Cold = Core.handle(analyzeRequest(1));
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  ServeStats AfterCold = Core.stats();
  EXPECT_GT(AfterCold.PairsTested, 0u);

  ServeResponse Warm = Core.handle(analyzeRequest(2));
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  ServeStats AfterWarm = Core.stats();
  // Every memoizable pair of the repeat request hits the store, and
  // the answers are bit-identical modulo the hit markers.
  EXPECT_EQ(AfterWarm.PairsTested, AfterCold.PairsTested);
  EXPECT_GT(AfterWarm.PairsCached, AfterCold.PairsCached);
  EXPECT_EQ(stripCached(Warm.Text), stripCached(Cold.Text));
  // The repeat round at least doubles the cached share.
  EXPECT_GE(AfterWarm.hitRatePct(), 50.0);
}

TEST(Serve, CacheMarkersSuppressedOnRequest) {
  ServeCore Core(ServeOptions{});
  ASSERT_TRUE(Core.handle(analyzeRequest(1)).Ok);
  ServeRequest R = analyzeRequest(2);
  R.CacheMarkers = false;
  ServeResponse Warm = Core.handle(R);
  ASSERT_TRUE(Warm.Ok);
  EXPECT_EQ(Warm.Text.find(" (cached)"), std::string::npos);
}

TEST(Serve, ProblemOpDecidesAndMemoizes) {
  ServeCore Core(ServeOptions{});
  ServeRequest R;
  R.Id = 1;
  R.Operation = ServeRequest::Op::Problem;
  R.Payload = coupledProblem();
  R.Directions = true;
  ServeResponse Cold = Core.handle(R);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_NE(Cold.Text.find("answer: dependent"), std::string::npos)
      << Cold.Text;
  EXPECT_EQ(Core.stats().ProblemsTested, 1u);

  R.Id = 2;
  ServeResponse Warm = Core.handle(R);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_EQ(Core.stats().ProblemsCached, 1u);
  // The store drops witnesses, so compare answer lines, not bytes.
  EXPECT_NE(Warm.Text.find("answer: dependent"), std::string::npos)
      << Warm.Text;
}

TEST(Serve, HandleLineReportsErrorsInBand) {
  ServeCore Core(ServeOptions{});
  std::string Error;

  std::optional<ServeResponse> R =
      parseServeResponse(Core.handleLine("not json"), &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_FALSE(R->Ok);
  EXPECT_FALSE(R->Error.empty());

  // A parse error in the payload is an ok:false response that still
  // echoes the request id.
  R = parseServeResponse(
      Core.handleLine(
          "{\"id\":5,\"op\":\"analyze\",\"program\":\"for for\"}"),
      &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_EQ(R->Id, 5);
  EXPECT_FALSE(R->Ok);
  EXPECT_NE(R->Error.find("parse error"), std::string::npos);
  EXPECT_EQ(Core.stats().Errors, 2u);
}

TEST(Serve, StatsOpSnapshotsCounters) {
  ServeCore Core(ServeOptions{});
  ASSERT_TRUE(Core.handle(analyzeRequest(1)).Ok);
  ServeRequest R;
  R.Id = 2;
  R.Operation = ServeRequest::Op::Stats;
  ServeResponse S = Core.handle(R);
  ASSERT_TRUE(S.Ok) << S.Error;
  const JsonValue &Stats = S.Body.get("server");
  ASSERT_TRUE(Stats.isObject()) << S.Body.str();
  EXPECT_EQ(Stats.getInt("analyze_requests"), 1);
  EXPECT_TRUE(Stats.get("hit_rate_pct").isNumber());
}

TEST(Serve, CheckpointThenWarmReload) {
  std::string Path = ::testing::TempDir() + "/edda_serve_warm.txt";
  std::remove(Path.c_str());
  std::string ColdText;
  {
    ServeOptions Opts;
    Opts.CachePath = Path;
    std::string Error;
    ServeCore Core(Opts, &Error);
    ASSERT_TRUE(Error.empty()) << Error;
    EXPECT_EQ(Core.stats().WarmLoadedEntries, 0u);
    ServeResponse Cold = Core.handle(analyzeRequest(1));
    ASSERT_TRUE(Cold.Ok) << Cold.Error;
    ColdText = stripCached(Cold.Text);
    ASSERT_TRUE(Core.checkpoint());
    EXPECT_GE(Core.stats().Checkpoints, 1u);
  }

  ServeOptions Opts;
  Opts.CachePath = Path;
  std::string Error;
  ServeCore Warm(Opts, &Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_GT(Warm.stats().WarmLoadedEntries, 0u);
  ServeResponse R = Warm.handle(analyzeRequest(1));
  ASSERT_TRUE(R.Ok) << R.Error;
  // The whole repeat round is answered from the reloaded store, and
  // the report matches the cold run byte-for-byte modulo markers.
  EXPECT_EQ(Warm.stats().PairsTested, 0u);
  EXPECT_GT(Warm.stats().PairsCached, 0u);
  EXPECT_EQ(stripCached(R.Text), ColdText);
  std::remove(Path.c_str());
}

TEST(Serve, BudgetedRequestBypassesSharedStore) {
  ServeCore Core(ServeOptions{});
  ServeRequest R = analyzeRequest(1);
  R.FmBudget = 1; // Degrades FM decisions; must not enter the store.
  ASSERT_TRUE(Core.handle(R).Ok);
  EXPECT_EQ(Core.cache().uniqueFull(), 0u);

  // The unbudgeted retry computes and memoizes the real answers.
  ASSERT_TRUE(Core.handle(analyzeRequest(2)).Ok);
  EXPECT_GT(Core.cache().uniqueFull(), 0u);
}

TEST(Serve, SubmitDispatchesConcurrently) {
  ServeOptions Opts;
  Opts.NumThreads = 4;
  ServeCore Core(Opts);

  std::mutex Mutex;
  std::vector<std::string> Responses;
  const unsigned N = 32;
  for (unsigned I = 0; I < N; ++I) {
    ServeRequest R = analyzeRequest(static_cast<int64_t>(I + 1));
    Core.submit(R.toJson().str(), [&](std::string Resp) {
      std::lock_guard<std::mutex> Lock(Mutex);
      Responses.push_back(std::move(Resp));
    });
  }
  Core.drain();

  ASSERT_EQ(Responses.size(), N);
  std::string WantText;
  for (const std::string &Line : Responses) {
    std::string Error;
    std::optional<ServeResponse> R = parseServeResponse(Line, &Error);
    ASSERT_TRUE(R.has_value()) << Error;
    EXPECT_TRUE(R->Ok) << R->Error;
    EXPECT_GE(R->Id, 1);
    EXPECT_LE(R->Id, static_cast<int64_t>(N));
    // First-insert-wins store: every interleaving renders the same
    // report (only the hit markers differ).
    std::string Text = stripCached(R->Text);
    if (WantText.empty())
      WantText = Text;
    else
      EXPECT_EQ(Text, WantText);
  }
  EXPECT_EQ(Core.stats().Requests, N);
}

TEST(ServeProtocol, EditRequestCarriesSessionAndProgram) {
  ServeRequest R;
  R.Id = 3;
  R.Operation = ServeRequest::Op::Edit;
  R.Payload = "program p\nend\n";
  R.Session = "alice";
  R.Directions = true;

  std::string Error;
  std::optional<ServeRequest> Back =
      parseServeRequest(R.toJson().str(), &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Operation, ServeRequest::Op::Edit);
  EXPECT_EQ(Back->Payload, R.Payload);
  EXPECT_EQ(Back->Session, "alice");
  EXPECT_TRUE(Back->Directions);
}

TEST(ServeProtocol, FmBudgetRejectedOnEditRequests) {
  // A one-off budget would splice degraded answers into the session's
  // later re-analyses, so the protocol layer rejects the combination.
  ServeRequest R;
  R.Id = 4;
  R.Operation = ServeRequest::Op::Edit;
  R.Payload = "program p\nend\n";
  R.FmBudget = 9;
  std::string Error;
  EXPECT_FALSE(parseServeRequest(R.toJson().str(), &Error).has_value());
  EXPECT_NE(Error.find("fm_budget"), std::string::npos) << Error;
}

TEST(Serve, EditOpIncrementalMatchesAnalyze) {
  ServeCore Core(ServeOptions{});

  // The opening edit has no previous version: every pair is fresh.
  ServeResponse First = Core.handle(editRequest(1, demoSource()));
  ASSERT_TRUE(First.Ok) << First.Error;
  const JsonValue &S1 = First.Body.get("stats");
  ASSERT_TRUE(S1.isObject()) << First.Body.str();
  EXPECT_GT(S1.getInt("pairs"), 0);
  EXPECT_EQ(S1.getInt("pairs_reused"), 0);
  EXPECT_EQ(S1.getInt("pairs_invalidated"), S1.getInt("pairs"));
  EXPECT_EQ(First.Body.getString("session"), "conn:0");

  // One subscript edit: the untouched nests splice through.
  ServeResponse Second = Core.handle(editRequest(2, demoSourceEdited()));
  ASSERT_TRUE(Second.Ok) << Second.Error;
  const JsonValue &S2 = Second.Body.get("stats");
  EXPECT_GT(S2.getInt("pairs_reused"), 0);
  EXPECT_LT(S2.getInt("pairs_invalidated"), S2.getInt("pairs"));

  // The spliced report and graph are bit-identical to a from-scratch
  // run on the edited program.
  ParseResult Parsed = parseProgram(demoSourceEdited());
  ASSERT_TRUE(Parsed.succeeded());
  AnalyzerOptions AO;
  AO.ComputeDirections = true;
  DependenceAnalyzer Direct(AO);
  AnalysisResult Result = Direct.analyze(*Parsed.Prog);
  ReportOptions Report;
  Report.Directions = true;
  std::string Want = renderAnalysisReport(*Parsed.Prog, Result, Report);
  EXPECT_EQ(stripCached(Second.Text), stripCached(Want));
  DependenceGraph WantGraph = DependenceGraph::buildFromResult(Result);
  EXPECT_EQ(Second.Body.getString("graph"), WantGraph.str(*Parsed.Prog));
}

TEST(Serve, EditSessionsIsolatedByConnAndName) {
  ServeCore Core(ServeOptions{});

  // Anonymous sessions are connection-scoped: the same program on a
  // different connection starts cold.
  ServeResponse A = Core.handle(editRequest(1, demoSource()), /*ConnId=*/1);
  ASSERT_TRUE(A.Ok) << A.Error;
  EXPECT_EQ(A.Body.getString("session"), "conn:1");
  ServeResponse B = Core.handle(editRequest(2, demoSource()), /*ConnId=*/2);
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(B.Body.getString("session"), "conn:2");
  EXPECT_EQ(B.Body.get("stats").getInt("pairs_reused"), 0);

  // Re-sending the unchanged program on the original connection
  // reuses every pair.
  ServeResponse C = Core.handle(editRequest(3, demoSource()), 1);
  ASSERT_TRUE(C.Ok) << C.Error;
  const JsonValue &SC = C.Body.get("stats");
  EXPECT_EQ(SC.getInt("pairs_reused"), SC.getInt("pairs"));
  EXPECT_EQ(SC.getInt("pairs_invalidated"), 0);

  // A named session is shared across connections.
  ServeResponse N1 =
      Core.handle(editRequest(4, demoSource(), "shared"), 1);
  ASSERT_TRUE(N1.Ok) << N1.Error;
  EXPECT_EQ(N1.Body.getString("session"), "user:shared");
  ServeResponse N2 =
      Core.handle(editRequest(5, demoSource(), "shared"), 2);
  ASSERT_TRUE(N2.Ok) << N2.Error;
  const JsonValue &SN = N2.Body.get("stats");
  EXPECT_EQ(SN.getInt("pairs_reused"), SN.getInt("pairs"));
}

TEST(Serve, StatsOpReportsEditCounters) {
  ServeCore Core(ServeOptions{});
  ASSERT_TRUE(Core.handle(editRequest(1, demoSource())).Ok);
  ASSERT_TRUE(Core.handle(editRequest(2, demoSourceEdited())).Ok);

  ServeRequest R;
  R.Id = 3;
  R.Operation = ServeRequest::Op::Stats;
  ServeResponse S = Core.handle(R);
  ASSERT_TRUE(S.Ok) << S.Error;
  const JsonValue &Stats = S.Body.get("server");
  ASSERT_TRUE(Stats.isObject()) << S.Body.str();
  EXPECT_EQ(Stats.getInt("edit_requests"), 2);
  EXPECT_GT(Stats.getInt("pairs_reused"), 0);
  EXPECT_GT(Stats.getInt("pairs_invalidated"), 0);
  EXPECT_EQ(Stats.getInt("edit_sessions"), 1);
  EXPECT_EQ(Stats.find("warm_rejected_entries"), nullptr);
  ServeStats Snapshot = Core.stats();
  EXPECT_EQ(Snapshot.EditRequests, 2u);
  EXPECT_GT(Snapshot.PairsReused, 0u);
}

TEST(Serve, StatsOpSumsEditWork) {
  // An edit-only session whose coupled subscripts need Fourier-Motzkin;
  // the repeated nest makes the session's memo hit. The server-lifetime
  // work counters must equal the sum over the edit responses.
  const std::vector<std::string> Versions = {
      coupledSource(3, 5), coupledSource(4, 5), coupledSource(4, 6),
      coupledSource(3, 5)};
  const char *Fields[] = {"tests_run", "cache_hits_full",
                          "cache_hits_nobounds", "fm_work", "widened",
                          "pairs_cached", "pairs_tested"};
  std::vector<int64_t> Sums(std::size(Fields), 0);

  ServeCore Core(ServeOptions{});
  for (size_t V = 0; V < Versions.size(); ++V) {
    ServeResponse E = Core.handle(
        editRequest(static_cast<int64_t>(V + 1), Versions[V].c_str()));
    ASSERT_TRUE(E.Ok) << E.Error;
    const JsonValue &S = E.Body.get("stats");
    for (size_t F = 0; F < Sums.size(); ++F) {
      ASSERT_TRUE(S.get(Fields[F]).isNumber())
          << Fields[F] << " missing from " << S.str();
      Sums[F] += S.getInt(Fields[F]);
    }
    if (V > 0) {
      EXPECT_GT(S.getInt("pairs_reused"), 0) << "edit " << V;
    }
  }
  EXPECT_GT(Sums[3], 0) << "no edit needed Fourier-Motzkin";
  EXPECT_GT(Sums[1], 0) << "the repeated nest never hit the memo";

  ServeRequest R;
  R.Id = 99;
  R.Operation = ServeRequest::Op::Stats;
  ServeResponse Stats = Core.handle(R);
  ASSERT_TRUE(Stats.Ok) << Stats.Error;
  const JsonValue &Server = Stats.Body.get("server");
  for (size_t F = 0; F < Sums.size(); ++F)
    EXPECT_EQ(Server.getInt(Fields[F]), Sums[F]) << Fields[F];
  EXPECT_EQ(Server.getInt("edit_requests"),
            static_cast<int64_t>(Versions.size()));
  EXPECT_EQ(Server.getInt("analyze_requests"), 0);
}

TEST(Serve, EditOnlyTrafficReportsHitRate) {
  // Replaying a prior version re-runs pairs the session's memo already
  // answered, so an edit-only mix must show a nonzero hit rate, and
  // only re-run pairs may count as cached or tested.
  ServeCore Core(ServeOptions{});
  const std::vector<std::string> Versions = {
      coupledSource(3, 5), coupledSource(4, 5), coupledSource(3, 5)};
  for (size_t V = 0; V < Versions.size(); ++V)
    ASSERT_TRUE(Core
                    .handle(editRequest(static_cast<int64_t>(V + 1),
                                        Versions[V].c_str()))
                    .Ok);

  ServeRequest R;
  R.Id = 99;
  R.Operation = ServeRequest::Op::Stats;
  ServeResponse Stats = Core.handle(R);
  ASSERT_TRUE(Stats.Ok) << Stats.Error;
  const JsonValue &Server = Stats.Body.get("server");
  EXPECT_GT(Server.get("hit_rate_pct").doubleValue(), 0.0)
      << Server.str();
  EXPECT_GT(Server.getInt("pairs_cached"), 0);
  EXPECT_LE(Server.getInt("pairs_cached") + Server.getInt("pairs_tested"),
            Server.getInt("pairs_invalidated"));
  EXPECT_EQ(Server.getInt("analyze_requests"), 0);
}

TEST(Serve, WarmStartRejectsStaleFormatVersion) {
  // A v5 cache file (the pre-fingerprint format) must be rejected
  // loudly on its header: the boot diagnostic names the stale version
  // instead of a silent cold start.
  std::string Path = ::testing::TempDir() + "/edda_serve_v5.txt";
  {
    std::ofstream Out(Path);
    Out << "edda-depcache 5\n2\n3 1 2 3\n1 5 1 0\n3 4 5 6\n0 7 1 0\n"
           "1\n2 9 9\n1 5 1 0 0 1 1\n1 0\nd 1\n3\n";
  }
  ServeOptions Opts;
  Opts.CachePath = Path;
  std::string Error;
  ServeCore Core(Opts, &Error);
  EXPECT_NE(Error.find("declares stale format version 5; cold-starting"),
            std::string::npos)
      << Error;
  EXPECT_EQ(Core.stats().WarmLoadedEntries, 0u);
  EXPECT_EQ(Core.cache().uniqueFull() + Core.cache().uniqueDirections() +
                Core.cache().uniqueNoBounds(),
            0u);
  // The server still comes up and serves cold.
  EXPECT_TRUE(Core.handle(analyzeRequest(1)).Ok);
  std::remove(Path.c_str());
}

TEST(Serve, BadPipelineSpecIsAnError) {
  ServeCore Core(ServeOptions{});
  ServeRequest R = analyzeRequest(1);
  R.PipelineSpec = "definitely-not-a-test";
  ServeResponse Resp = Core.handle(R);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Error.find("pipeline"), std::string::npos);
}

TEST(ServeProtocol, FeaturesRequestRoundTrips) {
  ServeRequest R;
  R.Id = 9;
  R.Operation = ServeRequest::Op::Features;
  R.Payload = demoSource();
  std::string Error;
  int64_t Id = 0;
  std::optional<ServeRequest> Back =
      parseServeRequest(R.toJson().str(), &Error, &Id);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Operation, ServeRequest::Op::Features);
  EXPECT_EQ(Back->Payload, demoSource());
}

TEST(Serve, FeaturesOpMatchesDirectExtractor) {
  ServeCore Core(ServeOptions{});
  ServeRequest R;
  R.Id = 1;
  R.Operation = ServeRequest::Op::Features;
  R.Payload = demoSource();
  ServeResponse Served = Core.handle(R);
  ASSERT_TRUE(Served.Ok) << Served.Error;

  // The reference: a fresh directions analysis through the extractor.
  // The served Text must be the byte-identical NDJSON object, and the
  // structured body must carry it under "features".
  ParseResult Parsed = parseProgram(demoSource());
  ASSERT_TRUE(Parsed.succeeded());
  AnalyzerOptions AO;
  AO.ComputeDirections = true;
  DependenceAnalyzer Direct(AO);
  AnalysisResult Result = Direct.analyze(*Parsed.Prog);
  std::string Want = extractFeatures(*Parsed.Prog, Result).str();

  EXPECT_EQ(Served.Text, Want);
  EXPECT_EQ(Served.Text.find('\n'), std::string::npos);
  const JsonValue *Body = Served.Body.find("features");
  ASSERT_NE(Body, nullptr);
  EXPECT_EQ(Body->str(), Want);
  EXPECT_EQ(Body->getString("schema"), "edda-features-v1");

  // The op is counted in the stats snapshot.
  ServeStats Stats = Core.stats();
  EXPECT_EQ(Stats.FeaturesRequests, 1u);
}

TEST(Serve, FeaturesOpReportsParseErrorsInBand) {
  ServeCore Core(ServeOptions{});
  ServeRequest R;
  R.Id = 2;
  R.Operation = ServeRequest::Op::Features;
  R.Payload = "program broken\n  for i = 1 to do\nend\n";
  ServeResponse Served = Core.handle(R);
  EXPECT_FALSE(Served.Ok);
  EXPECT_FALSE(Served.Error.empty());
  EXPECT_EQ(Served.Id, 2);
}
