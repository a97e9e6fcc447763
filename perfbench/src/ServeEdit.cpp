//===- perfbench/src/ServeEdit.cpp - the serve-edit workload --------------===//
//
// An editor in the loop against an in-process edda-serve: 13 named
// sessions hold the PERFECT programs at scale 1, and a seeded sequence
// of random edits runs round-robin over them. Each edit is one `edit`
// request carrying the full program text, with directions on and
// cache markers off, through ServeCore::handleLine.
//
//===----------------------------------------------------------------------===//

#include "Compile.h"

#include "analysis/Incremental.h"
#include "parser/Parser.h"
#include "serve/Protocol.h"
#include "serve/Render.h"
#include "serve/Server.h"
#include "workload/Generator.h"

#include <cstdio>
#include <memory>

using namespace edda;

namespace perfbench {

namespace {

std::string editLine(int64_t Id, const std::string &Session,
                     const std::string &Text) {
  ServeRequest R;
  R.Id = Id;
  R.Operation = ServeRequest::Op::Edit;
  R.Session = Session;
  R.Payload = Text;
  R.Directions = true;
  R.CacheMarkers = false;
  return R.toJson().str();
}

ReportOptions servedReport() {
  ReportOptions RO;
  RO.Directions = true;
  RO.CacheMarkers = false;
  return RO;
}

struct Daemon {
  std::unique_ptr<ServeCore> Core;
  std::vector<std::string> Names;
  std::vector<std::string> Texts;
  /// Traced run only: a session per name fed the same programs, on
  /// which update and render are re-driven.
  std::vector<std::unique_ptr<IncrementalSession>> Mirrors;
};

/// The splice contract: a served report equals the report of a
/// from-scratch analysis of the same text.
std::optional<std::string> checkServed(const std::string &Response,
                                       const Compiled &Scratch) {
  std::string Error;
  std::optional<ServeResponse> R = parseServeResponse(Response, &Error);
  if (!R)
    return "unparsable response: " + Error;
  if (!R->Ok)
    return "error response: " + R->Error;
  if (R->Text != renderAnalysisReport(*Scratch.Prog, Scratch.Result,
                                      servedReport()))
    return std::string("served report differs from a from-scratch analysis");
  return std::nullopt;
}

} // namespace

WorkloadResult runServeEdit(const RunConfig &Cfg) {
  WorkloadResult WR;
  const unsigned SetupReps = Cfg.Trace ? 1 : 3;
  std::vector<double> SetupS;
  Daemon D;
  // Untraced runs interleave the calibration kernel with every request
  // and report calibrated times (see Calibration).
  Calibration Cal;
  const bool Calibrate = !Cfg.Trace;
  uint64_t RepStart = Cfg.StartNs;
  int64_t NextId = 1;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    D = Daemon();
    size_t CalFrom = Cal.count();
    double KernelMs = 0;
    GeneratorOptions G;
    G.Seed = deriveSeed(Cfg.Seed, 0);
    for (auto &[Name, Src] : generatePerfectClubSuite(G)) {
      if (Cfg.MaxOps && D.Names.size() >= Cfg.MaxOps)
        break;
      D.Names.push_back(Name);
      D.Texts.push_back(std::move(Src));
    }

    ServeOptions SO;
    SO.NumThreads = 1;
    std::string Error;
    D.Core = std::make_unique<ServeCore>(SO, &Error);
    if (!Error.empty()) {
      reportMismatch("serve-edit", "ServeCore boot: " + Error);
      WR.Consistent = false;
    }
    for (size_t S = 0; S < D.Names.size(); ++S) {
      std::string Resp =
          D.Core->handleLine(editLine(NextId++, D.Names[S], D.Texts[S]));
      std::optional<ServeResponse> R = parseServeResponse(Resp, &Error);
      if (!R || !R->Ok) {
        reportMismatch(D.Names[S], "opening the session failed");
        WR.Consistent = false;
      }
      if (Cfg.Trace) {
        ParseResult PR = parseProgram(D.Texts[S]);
        // Default options are what ServeCore gives an edit session under
        // default request flags (it pins the serial analyzer, which is
        // also the default).
        D.Mirrors.push_back(std::make_unique<IncrementalSession>());
        if (PR.succeeded())
          D.Mirrors.back()->update(std::move(*PR.Prog));
      }
      if (Calibrate)
        KernelMs += Cal.run();
    }
    uint64_t Now = nowNs();
    double Seconds = static_cast<double>(Now - RepStart) / 1e9 - KernelMs / 1e3;
    SetupS.push_back(Calibrate ? Seconds * Cal.factorOver(CalFrom, Cal.count())
                               : Seconds);
    RepStart = Now;
  }
  for (const std::string &T : D.Texts)
    WR.OpsDigest = mix(WR.OpsDigest, fnv1a(T));

  const size_t NumSessions = D.Names.size();
  SplitRng EditRng(deriveSeed(Cfg.Seed, 1));
  std::vector<double> Latencies;
  // Traced run: per-session latencies of traced and untraced rounds.
  std::vector<std::vector<double>> TracedLat(NumSessions),
      UntracedLat(NumSessions);
  std::vector<size_t> LatencyKernel;
  uint64_t Rounds = 0, TracedRounds = 0;
  Tracer T(Cfg.Trace);
  LayerTable Layers(NumSessions);
  double RequestBytes = 0, ResponseBytes = 0, Reused = 0, PairsTotal = 0;
  double StatsMs = 0;
  JsonValue LastStats;
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Cfg.Seconds * 1e9);
  // Whole rounds until the time is up (or, when the op list is capped,
  // until that many edits ran), so every session sees the same count.
  auto Done = [&] {
    if (Cfg.MaxOps)
      return WR.Attempted >= Cfg.MaxOps;
    return Rounds > 0 && nowNs() >= Deadline;
  };
  while (!Done()) {
    // The traced run alternates traced and untraced rounds, so the
    // tracing overhead is measured in place.
    bool TraceRound = Cfg.Trace && Rounds % 2 == 0;
    Tracer *RT = TraceRound ? &T : nullptr;
    for (size_t S = 0; S < NumSessions; ++S) {
      uint64_t G0 = nowNs();
      std::string NewText;
      {
        ParseResult PR = parseProgram(D.Texts[S]);
        if (!PR.succeeded()) {
          reportMismatch(D.Names[S], "edited text no longer parses");
          WR.Consistent = false;
          break;
        }
        applyRandomEdit(*PR.Prog, EditRng);
        NewText = PR.Prog->print();
      }
      std::string Line = editLine(NextId++, D.Names[S], NewText);
      double GenMs = static_cast<double>(nowNs() - G0) / 1e6;
      WR.OpsDigest = mix(WR.OpsDigest, fnv1a(NewText));

      size_t Mark = T.mark();
      std::string Response;
      uint64_t T0 = nowNs();
      {
        Tracer::Scope Span(RT, "serve.handle", static_cast<uint32_t>(S));
        Response = D.Core->handleLine(Line);
      }
      double Ms = static_cast<double>(nowNs() - T0) / 1e6;
      Latencies.push_back(Ms);
      (TraceRound ? TracedLat : UntracedLat)[S].push_back(Ms);
      if (Calibrate) {
        LatencyKernel.push_back(Cal.count());
        Cal.run();
      }
      ++WR.Attempted;

      // Untimed: the from-scratch reference, traced and decomposed in
      // traced rounds.
      Compiled Scratch;
      bool Parsed = compileSource(NewText, Scratch, RT, static_cast<uint32_t>(S));
      std::optional<std::string> Bad =
          Parsed ? checkServed(Response, Scratch)
                 : std::optional<std::string>("edited text does not parse");
      if (Bad) {
        reportMismatch(D.Names[S] + " edit " + std::to_string(WR.Attempted), *Bad);
        ++WR.Failed;
      } else {
        WR.AnswersDigest = mix(WR.AnswersDigest, Scratch.digest());
      }

      if (Cfg.Trace) {
        std::map<std::string, double> Row;
        if (TraceRound && Parsed) {
          std::string Why;
          Row = redriveLayers(NewText, Scratch, T, static_cast<uint32_t>(S), &Why);
          if (!Why.empty()) {
            reportMismatch(D.Names[S], Why);
            WR.Consistent = false;
          }
        }
        // The mirror session sees every edit; its calls are timed only
        // in traced rounds.
        std::string Error;
        {
          Tracer::Scope Span(RT, "serve.decode", static_cast<uint32_t>(S));
          if (!parseServeRequest(Line, &Error))
            reportMismatch(D.Names[S], "request does not decode: " + Error);
        }
        std::optional<Program> Prog;
        {
          Tracer::Scope Span(RT, "edit.parse", static_cast<uint32_t>(S));
          ParseResult PR = parseProgram(NewText);
          if (PR.succeeded())
            Prog.emplace(std::move(*PR.Prog));
        }
        ReanalyzeStats RS;
        if (Prog) {
          Tracer::Scope Span(RT, "analysis.update", static_cast<uint32_t>(S));
          RS = D.Mirrors[S]->update(std::move(*Prog));
        }
        std::string Rendered;
        {
          Tracer::Scope Span(RT, "serve.render", static_cast<uint32_t>(S));
          Rendered = renderAnalysisReport(D.Mirrors[S]->program(),
                                          D.Mirrors[S]->result(), servedReport());
        }
        std::optional<ServeResponse> R = parseServeResponse(Response, &Error);
        if (!R || R->Text != Rendered) {
          reportMismatch(D.Names[S], "re-driven update/render differs from "
                                     "the served report");
          WR.Consistent = false;
        }
        if (TraceRound) {
          std::map<std::string, double> Spans = T.totalsSince(Mark);
          Row.insert(Spans.begin(), Spans.end());
          Row["#source_bytes"] = static_cast<double>(NewText.size());
          Row["generate"] = GenMs * 1e6;
          Layers.add(S, Row);
          RequestBytes += static_cast<double>(Line.size());
          ResponseBytes += static_cast<double>(Response.size());
          Reused += static_cast<double>(RS.PairsReused);
          PairsTotal += static_cast<double>(RS.PairsTotal);
        }
      }
      D.Texts[S] = std::move(NewText);
    }
    ++Rounds;
    if (TraceRound) {
      ++TracedRounds;
      std::string Line = "{\"id\":" + std::to_string(NextId++) +
                         ",\"op\":\"stats\"}";
      std::string Resp;
      uint64_t S0 = nowNs();
      {
        Tracer::Scope Span(&T, "serve.stats", 0);
        Resp = D.Core->handleLine(Line);
      }
      StatsMs += static_cast<double>(nowNs() - S0) / 1e6;
      std::string Error;
      if (std::optional<JsonValue> V = parseJson(Resp, &Error))
        LastStats = V->get("server");
    }
  }
  // The from-scratch references ran in the loop too; they are about
  // the size of the session they check.
  WR.PeakRssMb = peakRssMb();
  std::printf("serve-edit: %zu sessions, %llu rounds, %zu edit samples "
              "(percentiles over raw samples)\n",
              NumSessions, static_cast<unsigned long long>(Rounds),
              Latencies.size());

  if (!Cfg.Trace) {
    std::vector<double> Reported = Latencies;
    double SumMs = 0, RawSumMs = 0;
    for (size_t J = 0; J < Latencies.size(); ++J) {
      Reported[J] = Latencies[J] * Cal.factorAt(LatencyKernel[J]);
      SumMs += Reported[J];
      RawSumMs += Latencies[J];
    }
    const double PerRound = 1e3 * static_cast<double>(Rounds);
    std::printf("serve-edit: uncalibrated work_s=%.4f latency_p50_ms=%.4f "
                "latency_p90_ms=%.4f\n",
                RawSumMs / PerRound, quantile(Latencies, 0.5),
                quantile(Latencies, 0.9));
    WR.Metrics = {
        {"setup_s", median(SetupS), "s"},
        {"work_s", SumMs / PerRound, "s"},
        {"latency_p50_ms", quantile(Reported, 0.5), "ms"},
        {"latency_p90_ms", quantile(Reported, 0.9), "ms"},
    };
    return WR;
  }

  WR.Metrics = compileLayerMetrics(Layers, Layers.sumOfMedians("generate") / 1e6);
  auto Ms = [&](const char *Name) { return Layers.sumOfMedians(Name) / 1e6; };
  double HandleMs = Ms("serve.handle");
  double UpdateMs = Ms("analysis.update");
  double ScratchMs =
      Ms("opt.prepass") + Ms("analysis.analyze") + Ms("analysis.graph");
  double Edits = static_cast<double>(TracedRounds * NumSessions);
  double EditRequests =
      static_cast<double>(std::max<int64_t>(1, LastStats.getInt("edit_requests", 1)));
  // Edits differ between rounds, so compare per-session medians.
  double TracedSum = 0, UntracedSum = 0;
  for (size_t S = 0; S < NumSessions; ++S) {
    TracedSum += median(TracedLat[S]);
    UntracedSum += median(UntracedLat[S]);
  }
  std::vector<Metric> Serve = {
      {"analysis.update_ms", UpdateMs, "ms"},
      {"analysis.pairs_reused_pct",
       PairsTotal > 0 ? 100.0 * Reused / PairsTotal : 0, "%"},
      {"analysis.edit_over_scratch_pct",
       ScratchMs > 0 ? 100.0 * UpdateMs / ScratchMs : 0, "%"},
      {"serve.handle_ms", HandleMs, "ms"},
      {"serve.decode_ms", Ms("serve.decode"), "ms"},
      {"serve.render_ms", Ms("serve.render"), "ms"},
      {"serve.handle_self_ms",
       HandleMs - Ms("serve.decode") - Ms("edit.parse") - UpdateMs -
           Ms("serve.render"),
       "ms"},
      {"serve.request_kb", Edits > 0 ? RequestBytes / Edits / 1024 : 0, "KB"},
      {"serve.response_kb", Edits > 0 ? ResponseBytes / Edits / 1024 : 0, "KB"},
      {"serve.stats_ms",
       TracedRounds ? StatsMs / static_cast<double>(TracedRounds) : 0, "ms"},
      {"serve.hit_pct", LastStats.get("hit_rate_pct").doubleValue(), "%"},
      {"serve.pairs_reused",
       static_cast<double>(LastStats.getInt("pairs_reused")) / EditRequests,
       "count/edit"},
      {"serve.pairs_invalidated",
       static_cast<double>(LastStats.getInt("pairs_invalidated")) / EditRequests,
       "count/edit"},
      {"serve.fm_work", static_cast<double>(LastStats.getInt("fm_work")),
       "count"},
      {"trace.overhead_pct",
       UntracedSum > 0 ? 100.0 * (TracedSum - UntracedSum) / UntracedSum : 0,
       "%"},
  };
  WR.Metrics.insert(WR.Metrics.end(), Serve.begin(), Serve.end());
  if (!T.writeJsonl(Cfg.TracePath))
    std::fprintf(stderr, "warning: could not write %s\n", Cfg.TracePath.c_str());
  return WR;
}

} // namespace perfbench
