//===- perfbench/src/Compile.cpp - perfect-batch and random-exact ---------===//
//
// Both workloads time one op: compile one program from source with
// edda-cli --directions semantics (parse, prepass, analyze, graph,
// report). perfect-batch feeds the synthetic PERFECT suite at scale 2;
// random-exact feeds small random programs whose answers the
// enumeration oracle can check in full.
//
//===----------------------------------------------------------------------===//

#include "Compile.h"

#include "analysis/Builder.h"
#include "analysis/DependenceGraph.h"
#include "opt/Fold.h"
#include "opt/Induction.h"
#include "opt/Normalize.h"
#include "opt/Pipeline.h"
#include "opt/ScalarPropagation.h"
#include "oracle/Oracle.h"
#include "parser/Parser.h"
#include "serve/Render.h"
#include "workload/Generator.h"

#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>

using namespace edda;

namespace perfbench {

namespace {

AnalyzerOptions analyzerOptions() {
  AnalyzerOptions AO;
  // runPrepass is called explicitly (and traced) before analyze();
  // analyze() would otherwise run the same pass list first thing.
  AO.RunPrepass = false;
  AO.ComputeDirections = true;
  return AO;
}

/// Nanoseconds summed over many short calls inside one layer phase.
struct Accum {
  uint64_t Ns = 0;
  uint64_t Calls = 0;
  template <typename F> auto time(F &&Fn) {
    uint64_t T0 = nowNs();
    if constexpr (std::is_void_v<decltype(Fn())>) {
      Fn();
      Ns += nowNs() - T0;
      ++Calls;
    } else {
      auto R = Fn();
      Ns += nowNs() - T0;
      ++Calls;
      return R;
    }
  }
};

const char *decidedName(TestKind K) {
  switch (K) {
  case TestKind::ArrayConstant:
    return "#decided.constant";
  case TestKind::GcdTest:
    return "#decided.gcd";
  case TestKind::Svpc:
    return "#decided.svpc";
  case TestKind::Acyclic:
    return "#decided.acyclic";
  case TestKind::LoopResidue:
    return "#decided.residue";
  case TestKind::FourierMotzkin:
    return "#decided.fm";
  case TestKind::Banerjee:
    return "#decided.banerjee";
  case TestKind::Unanalyzable:
    return "#decided.unanalyzable";
  }
  return "#decided.unanalyzable";
}

} // namespace

bool compileSource(const std::string &Src, Compiled &Out, Tracer *T,
                   uint32_t Op) {
  Tracer::Scope OpSpan(T, "op", Op);
  std::optional<Program> Prog;
  {
    Tracer::Scope S(T, "parser.parse", Op);
    ParseResult PR = parseProgram(Src);
    if (!PR.succeeded())
      return false;
    Prog.emplace(std::move(*PR.Prog));
  }
  {
    Tracer::Scope S(T, "opt.prepass", Op);
    runPrepass(*Prog);
  }
  {
    Tracer::Scope S(T, "analysis.analyze", Op);
    DependenceAnalyzer Analyzer(analyzerOptions());
    Out.Result = Analyzer.analyze(*Prog);
  }
  {
    Tracer::Scope S(T, "analysis.graph", Op);
    DependenceGraph G = DependenceGraph::buildFromResult(Out.Result);
    Out.GraphEdges = G.edges().size();
  }
  {
    Tracer::Scope S(T, "analysis.render", Op);
    ReportOptions RO;
    RO.Directions = true;
    Out.Report = renderAnalysisReport(*Prog, Out.Result, RO);
  }
  Out.Prog = std::move(Prog);
  return true;
}

uint64_t Compiled::digest() const {
  return mix(fnv1a(Report), GraphEdges);
}

std::map<std::string, double> redriveLayers(const std::string &Src,
                                            const Compiled &C, Tracer &T,
                                            uint32_t Op,
                                            std::string *Mismatch) {
  std::map<std::string, double> Counts;
  auto Fail = [&](const std::string &Why) {
    if (Mismatch && Mismatch->empty())
      *Mismatch = Why;
  };

  // The prepass, pass by pass in runPrepass order, on a fresh parse.
  ParseResult PR = parseProgram(Src);
  if (!PR.succeeded()) {
    Fail("re-parse failed");
    return Counts;
  }
  Program P = std::move(*PR.Prog);
  {
    Tracer::Scope S(&T, "opt.passes", Op);
    auto Pass = [&](const char *Name, void (*Fn)(Program &)) {
      Tracer::Scope PS(&T, Name, Op);
      Fn(P);
    };
    Pass("opt.fold", foldConstants);
    Pass("opt.scalar_prop", propagateScalars);
    Pass("opt.normalize", normalizeLoops);
    Pass("opt.scalar_prop", propagateScalars);
    Pass("opt.induction", substituteInductionVariables);
    Pass("opt.scalar_prop", propagateScalars);
    Pass("opt.fold", foldConstants);
  }
  if (P.print() != C.Prog->print())
    Fail("re-driven prepass printed a different program than runPrepass");

  std::vector<ArrayReference> Refs;
  {
    Tracer::Scope S(&T, "analysis.refs", Op);
    Refs = collectReferences(P);
  }
  Counts["#refs"] = static_cast<double>(Refs.size());

  // Candidate pairs as the analyzer enumerates them: a write and a
  // shared array, in (I, J) order. The scan itself is not timed here;
  // it is part of analyze's self time.
  std::vector<std::pair<unsigned, unsigned>> Cands;
  for (unsigned I = 0; I < Refs.size(); ++I)
    for (unsigned J = I; J < Refs.size(); ++J)
      if ((Refs[I].IsWrite || Refs[J].IsWrite) &&
          Refs[I].ArrayId == Refs[J].ArrayId)
        Cands.emplace_back(I, J);
  Counts["#pairs"] = static_cast<double>(C.Result.PairsConsidered);
  if (Cands.size() != C.Result.PairsConsidered ||
      Cands.size() != C.Result.Pairs.size())
    Fail("re-driven candidate count " + std::to_string(Cands.size()) +
         " != analysis.pairs " + std::to_string(C.Result.PairsConsidered));

  std::vector<std::optional<BuiltProblem>> Built(Cands.size());
  {
    Tracer::Scope S(&T, "analysis.build", Op);
    for (size_t K = 0; K < Cands.size(); ++K)
      Built[K] = buildProblem(P, Refs[Cands[K].first], Refs[Cands[K].second]);
  }

  // Memo, cascade and directions, re-driven in pair order against a
  // fresh cache with the analyzer's own call sequence: look up; on a
  // miss compute directions and insert them plus the root answer.
  const AnalyzerOptions AO = analyzerOptions();
  DependenceCache Cache;
  Accum Memo, Cascade, CascadeConst, Dirs, DirsIndep;
  uint64_t Lookups = 0, Hits = 0, AnalyzerCached = 0;
  uint64_t StartNs = nowNs();
  for (size_t K = 0; K < Cands.size() && K < C.Result.Pairs.size(); ++K) {
    const DependencePair &Want = C.Result.Pairs[K];
    if (!Built[K])
      continue;
    const DependenceProblem &Prob = Built[K]->Problem;
    bool AllConstant = true;
    for (const XAffine &Eq : Prob.Equations)
      AllConstant = AllConstant && Eq.isConstant();
    DepAnswer Got;
    TestKind By;
    if (AllConstant) {
      CascadeResult R =
          CascadeConst.time([&] { return testDependence(Prob, AO.Cascade); });
      Got = R.Answer;
      By = R.DecidedBy;
    } else {
      AnalyzerCached += Want.FromCache;
      ++Lookups;
      std::optional<DirectionResult> Hit =
          Memo.time([&] { return Cache.lookupDirections(Prob); });
      if (Hit) {
        ++Hits;
        Got = Hit->RootAnswer;
        By = Hit->RootDecidedBy;
      } else {
        CascadeResult R =
            Cascade.time([&] { return testDependence(Prob, AO.Cascade); });
        uint64_t T0 = nowNs();
        DirectionResult D = computeDirectionVectors(Prob, AO.Direction);
        Accum &Into = D.RootAnswer == DepAnswer::Independent ? DirsIndep : Dirs;
        Into.Ns += nowNs() - T0;
        ++Into.Calls;
        Got = D.RootAnswer;
        By = D.RootDecidedBy;
        if (R.Answer != DepAnswer::Unknown && D.RootAnswer != DepAnswer::Unknown &&
            R.Answer != D.RootAnswer)
          Fail("cascade and direction root disagree on pair " +
               std::to_string(K));
        Memo.time([&] {
          CascadeResult Root;
          Root.Answer = D.RootAnswer;
          Root.DecidedBy = D.RootDecidedBy;
          Root.Exact = D.Exact;
          Root.Widened = D.RootWidened;
          Cache.insertDirections(Prob, D);
          Cache.insertFull(Prob, Root);
        });
      }
    }
    if (Got != Want.Answer || By != Want.DecidedBy)
      Fail("re-driven answer differs from the analyzer's on pair " +
           std::to_string(K));
  }
  if (Hits != AnalyzerCached)
    Fail("re-driven memo hits " + std::to_string(Hits) +
         " != analyzer cache hits " + std::to_string(AnalyzerCached));
  T.addAggregate("deptest.memo", StartNs, Memo.Ns, Memo.Calls, Op);
  T.addAggregate("deptest.cascade", StartNs, Cascade.Ns, Cascade.Calls, Op);
  T.addAggregate("deptest.cascade.const", StartNs, CascadeConst.Ns,
                 CascadeConst.Calls, Op);
  T.addAggregate("deptest.directions", StartNs, Dirs.Ns, Dirs.Calls, Op);
  T.addAggregate("deptest.directions.indep", StartNs, DirsIndep.Ns,
                 DirsIndep.Calls, Op);
  Counts["#memo_lookups"] = static_cast<double>(Lookups);
  Counts["#memo_hits"] = static_cast<double>(Hits);
  Counts["#cascade_calls"] =
      static_cast<double>(Cascade.Calls + CascadeConst.Calls);
  Counts["#direction_calls"] = static_cast<double>(Dirs.Calls);

  for (const DependencePair &Pair : C.Result.Pairs) {
    Counts[decidedName(Pair.DecidedBy)] += 1;
    Counts["#exact"] += Pair.Exact;
  }
  return Counts;
}

namespace {

/// Direction claims of one pair against the enumeration oracle, as the
/// fuzzer's dirs axis checks them: every realised pattern is covered,
/// an exact result reports no unrealised vector, and pinned distances
/// hold.
std::optional<std::string> checkDirections(const DirectionResult &R,
                                           const oracle::DirectionOracle &Truth) {
  for (const DirVector &Concrete : Truth.Patterns) {
    bool Covered = false;
    for (const DirVector &V : R.Vectors)
      Covered |= oracle::dirMatches(V, Concrete);
    if (!Covered)
      return "realised direction " + dirVectorStr(Concrete) +
             " is covered by no reported vector";
  }
  if (R.Exact)
    for (const DirVector &V : R.Vectors) {
      bool Matches = false;
      for (const DirVector &Concrete : Truth.Patterns)
        Matches |= oracle::dirMatches(V, Concrete);
      if (!Matches)
        return "exact result reports " + dirVectorStr(V) +
               " which no iteration pair realises";
    }
  if (!Truth.Patterns.empty())
    for (size_t K = 0; K < R.Distances.size() && K < Truth.PinnedDistances.size();
         ++K)
      if (R.Distances[K] && (!Truth.PinnedDistances[K] ||
                             *Truth.PinnedDistances[K] != *R.Distances[K]))
        return "reported distance[" + std::to_string(K) +
               "] = " + std::to_string(*R.Distances[K]) +
               " is not the realised one";
  return std::nullopt;
}

} // namespace

std::optional<std::string> oracleCheckPair(const Compiled &C, size_t K,
                                           bool *Conclusive,
                                           bool *AssumedNonEmpty) {
  *Conclusive = false;
  *AssumedNonEmpty = false;
  const DependencePair &Pair = C.Result.Pairs[K];
  std::optional<BuiltProblem> B =
      buildProblem(*C.Prog, C.Result.Refs[Pair.RefA], C.Result.Refs[Pair.RefB]);
  if (!B)
    return std::nullopt;
  const DependenceProblem &P = B->Problem;
  // Small caps keep enumeration cheap; the fuzzer uses the same one.
  oracle::OracleOptions OOpts;
  OOpts.MaxPoints = 1u << 18;
  if (P.NumSymbolic != 0) {
    oracle::SymbolicOracleOptions SOpts;
    SOpts.Base = OOpts;
    std::optional<bool> Sampled = oracle::oracleDependentSampled(P, {}, SOpts);
    *Conclusive = Sampled.has_value();
    if (Sampled && *Sampled && Pair.Answer == DepAnswer::Independent)
      return std::string("independent, but a sampled symbolic valuation "
                         "depends");
    return std::nullopt;
  }
  std::optional<bool> Truth = oracle::oracleDependent(P, {}, OOpts);
  if (!Truth)
    return std::nullopt;
  *Conclusive = true;
  if (*Truth && Pair.Answer == DepAnswer::Independent)
    return std::string("independent, but enumeration finds a dependence");
  // The paper's convention (CascadeOptions::AssumeNonEmptyLoops): a
  // constant-subscript pair is dependent unless a constant-bound loop
  // is empty; loops whose emptiness depends on outer loops or
  // symbolics are assumed to execute. The enumeration has no such
  // assumption, so it finds no point there.
  if (!*Truth && Pair.DecidedBy == TestKind::ArrayConstant) {
    *AssumedNonEmpty = true;
    return std::nullopt;
  }
  if (!*Truth && Pair.Exact && Pair.Answer == DepAnswer::Dependent)
    return std::string("exact dependent, but enumeration finds no point");
  if (Pair.Directions && Pair.Exact) {
    std::optional<oracle::DirectionOracle> Dirs =
        oracle::oracleDirectionInfo(P, OOpts);
    if (Dirs)
      return checkDirections(*Pair.Directions, *Dirs);
  }
  return std::nullopt;
}

namespace {

struct Inputs {
  std::vector<std::string> Names;
  std::vector<std::string> Sources;
  uint64_t Digest = 0;
};

Inputs perfectInputs(uint64_t Seed, unsigned MaxOps) {
  // 13 profiles x 8 generator seeds derived from the workload seed. The
  // PERFECT emitter does not read GeneratorOptions::Seed, so the eight
  // copies of a profile are identical today; the workload seed also
  // sets the compile order, which is where the op list varies.
  constexpr unsigned NumSeeds = 8;
  Inputs In;
  for (unsigned K = 0; K < NumSeeds; ++K) {
    if (MaxOps && In.Sources.size() >= MaxOps)
      break;
    GeneratorOptions G;
    G.Seed = deriveSeed(Seed, K);
    G.Scale = 2.0;
    for (auto &[Name, Src] : generatePerfectClubSuite(G)) {
      In.Names.push_back(Name + "#" + std::to_string(K));
      In.Sources.push_back(std::move(Src));
    }
  }
  if (MaxOps && In.Sources.size() > MaxOps) {
    In.Names.resize(MaxOps);
    In.Sources.resize(MaxOps);
  }
  SplitRng Order(deriveSeed(Seed, NumSeeds));
  for (size_t I = In.Sources.size(); I > 1; --I) {
    size_t J = Order.below(I);
    std::swap(In.Names[I - 1], In.Names[J]);
    std::swap(In.Sources[I - 1], In.Sources[J]);
  }
  for (size_t I = 0; I < In.Sources.size(); ++I)
    In.Digest = mix(In.Digest, fnv1a(In.Names[I] + In.Sources[I]));
  return In;
}

Inputs randomInputs(uint64_t Seed, unsigned MaxOps) {
  // Program costs spread over two decades around the median (p45 to p55
  // is a factor of 2), so the median of 400 draws moved 15-25% from
  // seed to seed on content alone. The first half of the list is a
  // common core, drawn from a fixed seed; the second half is drawn from
  // the workload seed. The core halves the content variance of the
  // percentiles across seeds (common random numbers) while every seed
  // still brings 400 programs of its own.
  constexpr unsigned NumPrograms = 800;
  constexpr unsigned CoreSize = NumPrograms / 2;
  constexpr uint64_t CoreSeed = 0x5eed;
  unsigned N = MaxOps ? std::min(MaxOps, NumPrograms) : NumPrograms;
  Inputs In;
  for (unsigned I = 0; I < N; ++I) {
    // Under a cap (the determinism self-test) the seeded half comes
    // first, so small op lists still differ between seeds.
    unsigned Slot = MaxOps ? (I + CoreSize) % NumPrograms : I;
    SplitRng Rng(Slot < CoreSize ? deriveSeed(CoreSeed, Slot)
                                 : deriveSeed(Seed, Slot));
    In.Names.push_back("random#" + std::to_string(Slot));
    In.Sources.push_back(generateRandomProgram(Rng));
    In.Digest = mix(In.Digest, fnv1a(In.Sources.back()));
  }
  return In;
}

/// Which pairs of one compiled program the oracle checks. random-exact
/// checks every pair; perfect-batch a seeded sample per program.
struct CheckPolicy {
  bool AllPairs;
  unsigned SampleConclusive;
  unsigned SampleTries;
};

WorkloadResult runCompileWorkload(const RunConfig &Cfg, const char *Workload,
                                  Inputs (*Generate)(uint64_t, unsigned),
                                  CheckPolicy Policy) {
  WorkloadResult WR;
  // Set up several times and report the median, so one slow phase of
  // the host does not decide setup_s. The traced run sets up once.
  const unsigned SetupReps = Cfg.Trace ? 1 : 3;
  Inputs In;
  std::vector<uint64_t> Expected;
  std::vector<double> SetupS, GenerateMs;
  // Untraced runs interleave the calibration kernel with every op, in
  // set-up and in the timed loop, and report calibrated times.
  Calibration Cal;
  const bool Calibrate = !Cfg.Trace;
  uint64_t RepStart = Cfg.StartNs;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    size_t CalFrom = Cal.count();
    double KernelMs = 0;
    uint64_t G0 = nowNs();
    In = Generate(Cfg.Seed, Cfg.MaxOps);
    GenerateMs.push_back(static_cast<double>(nowNs() - G0) / 1e6);
    std::vector<uint64_t> Digests(In.Sources.size());
    // About 100 kernel runs calibrate one set-up.
    const size_t KernelEvery = std::max<size_t>(1, In.Sources.size() / 100);
    for (size_t I = 0; I < In.Sources.size(); ++I) {
      Compiled C;
      if (compileSource(In.Sources[I], C, nullptr, 0))
        Digests[I] = C.digest();
      else
        reportMismatch(In.Names[I], "does not parse");
      if (Calibrate && I % KernelEvery == 0)
        KernelMs += Cal.run();
    }
    if (Rep > 0 && Digests != Expected) {
      reportMismatch(Workload, "setup repetitions disagree on some answer");
      WR.Consistent = false;
    }
    Expected = std::move(Digests);
    uint64_t Now = nowNs();
    double Seconds = static_cast<double>(Now - RepStart) / 1e9 - KernelMs / 1e3;
    SetupS.push_back(Calibrate ? Seconds * Cal.factorOver(CalFrom, Cal.count())
                               : Seconds);
    RepStart = Now;
  }
  WR.OpsDigest = In.Digest;
  const size_t N = In.Sources.size();

  // Timed loop: passes over the op list, each op timed alone, until
  // the time is up; every op runs at least once.
  std::vector<std::vector<double>> Samples(N);
  std::vector<std::vector<size_t>> SampleKernel(N);
  std::vector<std::vector<uint64_t>> SeenDigests(N);
  Tracer T(Cfg.Trace);
  LayerTable Layers(N);
  std::vector<std::vector<double>> TracedSamples(N);
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(Cfg.Seconds * 1e9);
  for (size_t K = 0; K < N || nowNs() < Deadline; ++K) {
    size_t I = K % N;
    size_t Pass = K / N;
    auto Untraced = [&] {
      Compiled C;
      uint64_t T0 = nowNs();
      bool Ok = compileSource(In.Sources[I], C, nullptr, 0);
      uint64_t T1 = nowNs();
      Samples[I].push_back(static_cast<double>(T1 - T0) / 1e6);
      SeenDigests[I].push_back(Ok ? C.digest() : 0);
      if (Calibrate) {
        SampleKernel[I].push_back(Cal.count());
        Cal.run();
      }
    };
    if (!Cfg.Trace) {
      Untraced();
      continue;
    }
    // Traced run: each op runs untraced and traced, alternating which
    // goes first, so the tracing overhead is measured in place.
    if (Pass % 2 == 0)
      Untraced();
    {
      size_t Mark = T.mark();
      Compiled C;
      uint64_t T0 = nowNs();
      compileSource(In.Sources[I], C, &T, static_cast<uint32_t>(I));
      TracedSamples[I].push_back(static_cast<double>(nowNs() - T0) / 1e6);
      std::string Why;
      std::map<std::string, double> Counts =
          redriveLayers(In.Sources[I], C, T, static_cast<uint32_t>(I), &Why);
      if (!Why.empty()) {
        reportMismatch(In.Names[I], Why);
        WR.Consistent = false;
      }
      std::map<std::string, double> Row = T.totalsSince(Mark);
      Row.insert(Counts.begin(), Counts.end());
      Row["#source_bytes"] = static_cast<double>(In.Sources[I].size());
      Layers.add(I, Row);
    }
    if (Pass % 2 == 1)
      Untraced();
  }

  std::vector<std::vector<double>> Reported = Samples;
  if (Calibrate)
    for (size_t I = 0; I < N; ++I)
      for (size_t R = 0; R < Samples[I].size(); ++R)
        Reported[I][R] = Samples[I][R] * Cal.factorAt(SampleKernel[I][R]);

  WR.PeakRssMb = peakRssMb();

  // Checks, outside the timed region: one more compile of every op,
  // held against the oracle; every timed repeat must have produced
  // the same output. Ops are independent, so a few threads share them.
  struct OpCheck {
    bool Ok = false;
    uint64_t Digest = 0;
    uint64_t Checked = 0, Conclusive = 0, AssumedNonEmpty = 0;
    std::vector<std::string> Mismatches;
  };
  std::vector<OpCheck> Checks(N);
  auto CheckOp = [&](size_t I) {
    OpCheck &R = Checks[I];
    Compiled C;
    if (!compileSource(In.Sources[I], C, nullptr, 0)) {
      R.Mismatches.push_back("does not parse");
      return;
    }
    R.Ok = true;
    R.Digest = C.digest();
    if (R.Digest != Expected[I]) {
      R.Mismatches.push_back("output differs from the warm-up pass");
      R.Ok = false;
    }
    std::vector<size_t> ToCheck;
    if (Policy.AllPairs) {
      for (size_t K = 0; K < C.Result.Pairs.size(); ++K)
        ToCheck.push_back(K);
    } else if (!C.Result.Pairs.empty()) {
      SplitRng Rng(deriveSeed(Cfg.Seed ^ 0x0c4ecc, I));
      for (unsigned Try = 0; Try < Policy.SampleTries; ++Try)
        ToCheck.push_back(Rng.below(C.Result.Pairs.size()));
    }
    for (size_t K : ToCheck) {
      if (!Policy.AllPairs && R.Conclusive >= Policy.SampleConclusive)
        break;
      bool Decided = false, Assumed = false;
      ++R.Checked;
      if (std::optional<std::string> Bad =
              oracleCheckPair(C, K, &Decided, &Assumed)) {
        const DependencePair &P = C.Result.Pairs[K];
        R.Mismatches.push_back(
            "pair " + refStr(*C.Prog, C.Result.Refs[P.RefA]) + " / " +
            refStr(*C.Prog, C.Result.Refs[P.RefB]) + ": " + *Bad);
        R.Ok = false;
      }
      R.Conclusive += Decided;
      R.AssumedNonEmpty += Assumed;
    }
  };
  {
    std::atomic<size_t> Next{0};
    std::vector<std::thread> Workers;
    constexpr unsigned CheckThreads = 4;
    for (unsigned W = 0; W < CheckThreads; ++W)
      Workers.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < N;)
          CheckOp(I);
      });
    for (std::thread &W : Workers)
      W.join();
  }

  uint64_t Conclusive = 0, Checked = 0, AssumedNonEmpty = 0;
  for (size_t I = 0; I < N; ++I) {
    const OpCheck &R = Checks[I];
    for (const std::string &M : R.Mismatches)
      reportMismatch(In.Names[I], M);
    WR.AnswersDigest = mix(WR.AnswersDigest, R.Digest);
    Checked += R.Checked;
    Conclusive += R.Conclusive;
    AssumedNonEmpty += R.AssumedNonEmpty;
    for (size_t Rep = 0; Rep < SeenDigests[I].size(); ++Rep) {
      ++WR.Attempted;
      bool Same = SeenDigests[I][Rep] == Expected[I];
      if (!Same)
        reportMismatch(In.Names[I], "timed repeat " + std::to_string(Rep) +
                                        " produced a different output");
      WR.Failed += !(R.Ok && Same);
    }
  }
  std::printf("%s: oracle checked %llu pairs, %llu conclusive, %llu "
              "constant pairs under loops assumed non-empty\n",
              Workload, static_cast<unsigned long long>(Checked),
              static_cast<unsigned long long>(Conclusive),
              static_cast<unsigned long long>(AssumedNonEmpty));

  // Per-op medians, calibrated (reported) and raw (printed only).
  std::vector<double> OpMedians, RawMedians;
  size_t MinSamples = SIZE_MAX;
  double WorkMs = 0, RawWorkMs = 0;
  for (size_t I = 0; I < N; ++I) {
    OpMedians.push_back(median(Reported[I]));
    RawMedians.push_back(median(Samples[I]));
    WorkMs += OpMedians.back();
    RawWorkMs += RawMedians.back();
    MinSamples = std::min(MinSamples, Samples[I].size());
  }
  std::printf("%s: %zu ops, >= %zu timed repeats each; percentiles over "
              "%zu per-op medians\n",
              Workload, N, MinSamples, OpMedians.size());
  std::printf("%s: uncalibrated work_s=%.4f latency_p50_ms=%.4f "
              "latency_p90_ms=%.4f\n",
              Workload, RawWorkMs / 1e3, quantile(RawMedians, 0.5),
              quantile(RawMedians, 0.9));

  if (!Cfg.Trace) {
    WR.Metrics = {
        {"setup_s", median(SetupS), "s"},
        {"work_s", WorkMs / 1e3, "s"},
        {"latency_p50_ms", quantile(OpMedians, 0.5), "ms"},
        {"latency_p90_ms", quantile(OpMedians, 0.9), "ms"},
    };
    return WR;
  }

  double TracedMs = 0;
  for (size_t I = 0; I < N; ++I)
    TracedMs += median(TracedSamples[I]);
  WR.Metrics = compileLayerMetrics(Layers, median(GenerateMs));
  WR.Metrics.push_back(
      {"trace.overhead_pct", 100.0 * (TracedMs - WorkMs) / WorkMs, "%"});
  if (!T.writeJsonl(Cfg.TracePath))
    std::fprintf(stderr, "warning: could not write %s\n", Cfg.TracePath.c_str());
  return WR;
}

} // namespace

std::vector<Metric> compileLayerMetrics(const LayerTable &Layers,
                                        double GenerateMs) {
  auto Ms = [&](const char *Name) { return Layers.sumOfMedians(Name) / 1e6; };
  auto Count = [&](const std::string &Name) {
    return Layers.sumOfMedians("#" + Name);
  };
  double ParseMs = Ms("parser.parse");
  double Pairs = Count("pairs");
  double Lookups = Count("memo_lookups");
  double Refs = Count("refs");
  double BuildMs = Ms("analysis.build");
  double MemoMs = Ms("deptest.memo");
  double CascadeMs = Ms("deptest.cascade") + Ms("deptest.cascade.const");
  double DirsMs = Ms("deptest.directions");
  double RefsMs = Ms("analysis.refs");
  double AnalyzeMs = Ms("analysis.analyze");
  // In direction mode the analyzer's work on a memo miss is the
  // direction computation, whose root query is the cascade; constant
  // pairs run the cascade alone. Subtracting exactly that work leaves
  // the pair scan, fingerprint keying and bookkeeping.
  double SelfMs = AnalyzeMs - RefsMs - BuildMs - MemoMs - DirsMs -
                  Ms("deptest.directions.indep") - Ms("deptest.cascade.const");
  std::vector<Metric> M = {
      {"workload.generate_ms", GenerateMs, "ms"},
      {"parser.parse_ms", ParseMs, "ms"},
      {"parser.mb_per_s",
       ParseMs > 0 ? Count("source_bytes") / 1e6 / (ParseMs / 1e3) : 0, "MB/s"},
      {"opt.prepass_ms", Ms("opt.prepass"), "ms"},
      {"opt.fold_ms", Ms("opt.fold"), "ms"},
      {"opt.scalar_prop_ms", Ms("opt.scalar_prop"), "ms"},
      {"opt.normalize_ms", Ms("opt.normalize"), "ms"},
      {"opt.induction_ms", Ms("opt.induction"), "ms"},
      {"analysis.refs_ms", RefsMs, "ms"},
      {"analysis.refs", Refs, "count"},
      {"analysis.analyze_ms", AnalyzeMs, "ms"},
      {"analysis.pairs", Pairs, "count"},
      {"analysis.build_ms", BuildMs, "ms"},
      {"analysis.analyze_self_ms", SelfMs, "ms"},
      {"analysis.graph_ms", Ms("analysis.graph"), "ms"},
      {"deptest.memo_ms", MemoMs, "ms"},
      {"deptest.memo_lookups", Lookups, "count"},
      {"deptest.memo_hit_pct",
       Lookups > 0 ? 100.0 * Count("memo_hits") / Lookups : 0, "%"},
      {"deptest.cascade_ms", CascadeMs, "ms"},
      {"deptest.cascade_calls", Count("cascade_calls"), "count"},
      {"deptest.directions_ms", DirsMs, "ms"},
      {"deptest.direction_calls", Count("direction_calls"), "count"},
  };
  for (const char *K : {"constant", "gcd", "svpc", "acyclic", "residue", "fm",
                        "unanalyzable"})
    M.push_back({std::string("deptest.decided.") + K,
                 Count(std::string("decided.") + K), "count"});
  M.push_back({"deptest.exact_pct",
               Pairs > 0 ? 100.0 * Count("exact") / Pairs : 0, "%"});
  return M;
}

WorkloadResult runPerfectBatch(const RunConfig &Cfg) {
  return runCompileWorkload(Cfg, "perfect-batch", perfectInputs,
                            {/*AllPairs=*/false, /*SampleConclusive=*/4,
                             /*SampleTries=*/16});
}

WorkloadResult runRandomExact(const RunConfig &Cfg) {
  return runCompileWorkload(Cfg, "random-exact", randomInputs,
                            {/*AllPairs=*/true, 0, 0});
}

} // namespace perfbench
