//===- fuzz/Fuzzer.cpp - Seeded differential fuzzer -----------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "analysis/Analyzer.h"
#include "analysis/DependenceGraph.h"
#include "analysis/Incremental.h"
#include "analysis/Interp.h"
#include "analysis/Parallelizer.h"
#include "analysis/Search.h"
#include "analysis/Widths.h"
#include "deptest/Cascade.h"
#include "deptest/Direction.h"
#include "deptest/Memo.h"
#include "deptest/ProblemIO.h"
#include "deptest/TestPipeline.h"
#include "fuzz/Shrink.h"
#include "oracle/Oracle.h"
#include "parser/Parser.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <unistd.h>

namespace edda {
namespace fuzz {

const char *fuzzAxisName(FuzzAxis Axis) {
  switch (Axis) {
  case FuzzAxis::Oracle:
    return "oracle";
  case FuzzAxis::Dirs:
    return "dirs";
  case FuzzAxis::Pipeline:
    return "pipeline";
  case FuzzAxis::Widen:
    return "widen";
  case FuzzAxis::Memo:
    return "memo";
  case FuzzAxis::Incr:
    return "incr";
  case FuzzAxis::Xform:
    return "xform";
  case FuzzAxis::Width:
    return "width";
  case FuzzAxis::Parse:
    return "parse";
  }
  return "unknown";
}

const char *injectedBugName(InjectedBug Bug) {
  switch (Bug) {
  case InjectedBug::None:
    return nullptr;
  case InjectedBug::NegateEqConst:
    return "negate-eq-const";
  case InjectedBug::MisSignDirPrune:
    return "dir-prune-sign";
  case InjectedBug::StaleFingerprint:
    return "stale-fingerprint";
  case InjectedBug::FmDarkShadow:
    return "fm-dark-shadow";
  case InjectedBug::MisSignSkew:
    return "skew-sign";
  }
  return nullptr;
}

namespace {

namespace fs = std::filesystem;
using oracle::oracleDependent;
using oracle::oracleDependentSampled;

/// Perturbs the problem handed to the cascade under test; the oracle
/// always judges the original. MisSignDirPrune is not a problem
/// perturbation — it rides in as a DirectionOptions hook, so only the
/// direction hierarchy (and hence only the dirs axis) can see it.
DependenceProblem applyBug(DependenceProblem P, InjectedBug Bug) {
  if (Bug == InjectedBug::NegateEqConst && !P.Equations.empty())
    P.Equations[0].Const = -P.Equations[0].Const;
  return P;
}

/// Options-side analog of applyBug for injected bugs that ride in
/// CascadeOptions hooks rather than perturbing the problem text. The
/// oracle always judges the honest problem under honest options.
CascadeOptions applyBug(CascadeOptions CO, InjectedBug Bug) {
  if (Bug == InjectedBug::FmDarkShadow)
    CO.Fm.InjectDarkShadowOffByOne = true;
  return CO;
}

std::string answerName(DepAnswer A) {
  switch (A) {
  case DepAnswer::Independent:
    return "independent";
  case DepAnswer::Dependent:
    return "dependent";
  case DepAnswer::Unknown:
    return "unknown";
  }
  return "?";
}

/// Display names for the 2^4 direction-option combinations, indexed by
/// mask bit 0 = EliminateUnusedVars, bit 1 = DistanceVectorPruning,
/// bit 2 = SeparableDimensions, bit 3 = FM sub-result sharing DISABLED
/// (sharing is the default, so the unsuffixed half runs with it on).
const char *const DirComboNames[16] = {
    "plain",         "elim",          "prune",
    "elim+prune",    "sep",           "elim+sep",
    "prune+sep",     "elim+prune+sep",
    "noshare",       "elim+noshare",  "prune+noshare",
    "elim+prune+noshare",             "sep+noshare",
    "elim+sep+noshare",               "prune+sep+noshare",
    "elim+prune+sep+noshare"};

std::string renderVectors(const std::vector<DirVector> &Vectors) {
  if (Vectors.empty())
    return "{}";
  std::string Out = "{";
  for (unsigned I = 0; I < Vectors.size(); ++I) {
    if (I)
      Out += " ";
    Out += dirVectorStr(Vectors[I]);
  }
  Out += "}";
  return Out;
}

/// Oracle-side checks for one option combination of the dirs axis.
/// \p SoundOnly restricts the comparison to the sound direction — used
/// for sampled symbolic concretizations, where a Dependent root or a
/// reported vector may be realized only off the sample grid, but a
/// missing pattern, an Independent root over a dependence, or a wrong
/// pinned distance is a definite bug at any valuation.
std::optional<std::string>
dirComboVsTruth(const char *Combo, const DirectionResult &R,
                const oracle::DirectionOracle &Truth, bool SoundOnly,
                const std::string &Where) {
  // Soundness: every concrete direction pattern must be covered by
  // some reported vector ('*' is a wildcard).
  for (const DirVector &Concrete : Truth.Patterns) {
    bool Covered = false;
    for (const DirVector &V : R.Vectors)
      Covered |= oracle::dirMatches(V, Concrete);
    if (!Covered)
      return std::string("dirs[") + Combo + "]: concrete direction " +
             dirVectorStr(Concrete) + Where +
             " is covered by no reported vector " +
             renderVectors(R.Vectors);
  }
  if (!Truth.Patterns.empty() && R.RootAnswer == DepAnswer::Independent)
    return std::string("dirs[") + Combo +
           "]: root says independent but a dependence exists" + Where;
  if (!SoundOnly) {
    if (Truth.Patterns.empty() && R.RootAnswer == DepAnswer::Dependent)
      return std::string("dirs[") + Combo +
             "]: root says dependent but enumeration finds no point";
    // Minimality: an Exact result may not report a vector that matches
    // zero concrete patterns.
    if (R.Exact)
      for (const DirVector &V : R.Vectors) {
        bool Matches = false;
        for (const DirVector &Concrete : Truth.Patterns)
          Matches |= oracle::dirMatches(V, Concrete);
        if (!Matches)
          return std::string("dirs[") + Combo +
                 "]: exact result reports " + dirVectorStr(V) +
                 " which matches no concrete direction";
      }
  }
  // A pinned distance claims *every* dependence pair has that exact
  // i'_k - i_k, so it binds at every concretization with points.
  if (!Truth.Patterns.empty())
    for (unsigned K = 0;
         K < R.Distances.size() && K < Truth.PinnedDistances.size();
         ++K) {
      if (!R.Distances[K])
        continue;
      if (!Truth.PinnedDistances[K])
        return std::string("dirs[") + Combo + "]: reported distance[" +
               std::to_string(K) + "] = " +
               std::to_string(*R.Distances[K]) +
               " but the concrete i'_k - i_k is not constant" + Where;
      if (*Truth.PinnedDistances[K] != *R.Distances[K])
        return std::string("dirs[") + Combo + "]: reported distance[" +
               std::to_string(K) + "] = " +
               std::to_string(*R.Distances[K]) + " but enumeration pins " +
               std::to_string(*Truth.PinnedDistances[K]) + Where;
    }
  return std::nullopt;
}

/// A collision-safe scratch path (parallel ctest runs fuzz too).
std::string tempCachePath(const char *Tag) {
  std::ostringstream OS;
  OS << "edda-fuzz-" << ::getpid() << "-" << Tag << ".memo";
  return (fs::temp_directory_path() / OS.str()).string();
}

/// Single-problem cache persistence check; doubles as the memo-axis
/// shrink predicate.
bool memoRoundTripFails(const DependenceProblem &P, bool Widen) {
  DependenceCache C1;
  CascadeOptions CO;
  CO.Widen = Widen;
  CascadeResult R = testDependence(P, CO);
  C1.insertFull(P, R);
  std::optional<CascadeResult> Expected = C1.lookupFull(P);
  if (!Expected)
    return false;
  std::string Path = tempCachePath("shrink");
  bool Failed = true;
  if (C1.saveToFile(Path)) {
    DependenceCache C2;
    if (C2.loadFromFile(Path)) {
      std::optional<CascadeResult> Got = C2.lookupFull(P);
      Failed = !Got || Got->Answer != Expected->Answer ||
               Got->DecidedBy != Expected->DecidedBy ||
               Got->Exact != Expected->Exact ||
               Got->Widened != Expected->Widened;
    }
  }
  std::error_code EC;
  fs::remove(Path, EC);
  return Failed;
}

/// Per-pair comparison for the whole-program memo axis. FromCache is
/// not compared: across a save/load, hitting the preloaded cache is the
/// point.
std::optional<std::string> comparePairs(const AnalysisResult &A,
                                        const AnalysisResult &B) {
  if (A.Refs.size() != B.Refs.size())
    return "reference count mismatch";
  if (A.Pairs.size() != B.Pairs.size())
    return "pair count mismatch";
  for (size_t I = 0; I < A.Pairs.size(); ++I) {
    const DependencePair &PA = A.Pairs[I];
    const DependencePair &PB = B.Pairs[I];
    std::ostringstream Where;
    Where << "pair " << I << " (refs " << PA.RefA << "," << PA.RefB
          << "): ";
    if (PA.RefA != PB.RefA || PA.RefB != PB.RefB)
      return Where.str() + "ref indices differ";
    if (PA.Answer != PB.Answer)
      return Where.str() + "answer " + answerName(PA.Answer) + " vs " +
             answerName(PB.Answer);
    if (PA.DecidedBy != PB.DecidedBy)
      return Where.str() + std::string("decider ") +
             testKindName(PA.DecidedBy) + " vs " +
             testKindName(PB.DecidedBy);
    if (PA.Exact != PB.Exact)
      return Where.str() + "exactness differs";
    if (PA.Directions.has_value() != PB.Directions.has_value())
      return Where.str() + "direction presence differs";
    if (PA.Directions &&
        (PA.Directions->RootAnswer != PB.Directions->RootAnswer ||
         PA.Directions->Vectors != PB.Directions->Vectors ||
         PA.Directions->Distances != PB.Directions->Distances))
      return Where.str() + "direction vectors differ";
    if (PA.Directions &&
        (PA.Directions->Exact != PB.Directions->Exact ||
         PA.Directions->Widened != PB.Directions->Widened ||
         PA.Directions->RootWidened != PB.Directions->RootWidened))
      return Where.str() + "direction exact/widened bits differ";
  }
  return std::nullopt;
}

/// One incremental edit-loop run for the incr axis: applies the edit
/// sequence named by \p EditSeeds to \p Source step by step through an
/// IncrementalSession (print -> parse after every edit, as an
/// editor-driven loop would, which also exercises fingerprint
/// stability across re-parsing) and compares the spliced graph's
/// rendering against a from-scratch analysis after every step. Returns
/// the first mismatch description, empty when every step agrees; this
/// doubles as the axis's shrink predicate (non-empty means fails).
std::string incrSequenceMismatch(const std::string &Source,
                                 const std::vector<uint64_t> &EditSeeds,
                                 bool Widen, bool InjectStale) {
  ParseResult PR = parseProgram(Source);
  if (!PR.succeeded())
    return "";
  AnalyzerOptions Fresh;
  Fresh.ComputeDirections = true;
  Fresh.Cascade.Widen = Widen;
  Fresh.Direction.Cascade.Widen = Widen;
  // Only the session under test carries the injected bug; the
  // from-scratch baseline always analyzes honestly.
  AnalyzerOptions Incr = Fresh;
  Incr.InjectStaleFingerprint = InjectStale;
  IncrementalSession Session(Incr);

  Program Master = *PR.Prog; // Un-prepassed; edits apply here.
  Session.update(Master);

  for (size_t E = 0; E < EditSeeds.size(); ++E) {
    SplitRng ERng(EditSeeds[E]);
    std::string EditDesc = applyRandomEdit(Master, ERng);
    ParseResult EP = parseProgram(Master.print());
    if (!EP.succeeded())
      return ""; // An edit-model bug, not an incr mismatch.
    Master = std::move(*EP.Prog);

    Session.update(Master);
    std::string Spliced = Session.graph().str(Session.program());

    Program Scratch = Master;
    DependenceAnalyzer Analyzer(Fresh);
    DependenceGraph FreshGraph = DependenceGraph::build(Scratch, Analyzer);
    if (Spliced != FreshGraph.str(Scratch))
      return "edit " + std::to_string(E + 1) + "/" +
             std::to_string(EditSeeds.size()) + " (" + EditDesc +
             "): spliced graph diverges from from-scratch analysis";
  }
  return "";
}

/// Collects the statement-index path of every perfect loop pair (a
/// loop whose body is exactly one loop) for the xform axis's direct
/// skew probes.
void collectPerfectPairPaths(const std::vector<StmtPtr> &Body,
                             std::vector<unsigned> &Prefix,
                             std::vector<std::vector<unsigned>> &Out) {
  for (unsigned I = 0; I < Body.size(); ++I) {
    if (Body[I]->kind() != StmtKind::Loop)
      continue;
    const LoopStmt &L = asLoop(*Body[I]);
    Prefix.push_back(I);
    if (L.body().size() == 1 && L.body()[0]->kind() == StmtKind::Loop)
      Out.push_back(Prefix);
    collectPerfectPairPaths(L.body(), Prefix, Out);
    Prefix.pop_back();
  }
}

/// The xform axis on one program: every perfect loop pair is
/// skew-probed (fresh direction vectors vs. the skewVector
/// prediction), then a small beam search runs and its output is held
/// against ground truth — predictions must hold, the interpreter must
/// see identical memory images for base and best, and every
/// parallel-marked loop must re-validate on a from-scratch analysis
/// with no carried scalar. Returns the first mismatch description
/// (empty when clean); doubles as the shrink predicate. The injected
/// MisSignSkew bug rides in via \p InjectMisSign and is visible only
/// to the prediction audits.
std::string xformMismatch(const std::string &Source, bool Widen,
                          bool InjectMisSign) {
  ParseResult PR = parseProgram(Source);
  if (!PR.succeeded())
    return "";

  SearchOptions SO;
  SO.BeamWidth = 2;
  SO.MaxSteps = 2;
  SO.SkewFactors = {1, -1, 2};
  SO.InjectMisSignedSkew = InjectMisSign;
  SO.Analyzer.Cascade.Widen = Widen;
  SO.Analyzer.Direction.Cascade.Widen = Widen;

  // Direct probes: catch application/model mismatches even on
  // programs where the search would never choose a skew.
  std::vector<std::vector<unsigned>> Pairs;
  std::vector<unsigned> Prefix;
  collectPerfectPairPaths(PR.Prog->body(), Prefix, Pairs);
  for (const std::vector<unsigned> &Path : Pairs)
    for (int64_t Factor : SO.SkewFactors) {
      SkewProbeResult Probe = probeSkew(*PR.Prog, Path, Factor, SO);
      if (Probe.Applied && !Probe.Ok)
        return "skew probe (factor " + std::to_string(Factor) +
               ") prediction mismatch: " + Probe.Note;
    }

  SearchResult R = searchTransformations(*PR.Prog, SO);
  if (!R.PredictionsHeld)
    return "search discarded a skew whose prediction audit failed";

  // The emitted schedule must be semantics-preserving...
  InterpResult Base = interpret(R.Base);
  InterpResult Best = interpret(R.Best);
  if (Base.Ok != Best.Ok)
    return "interpreter verdict differs between base and transformed "
           "program";
  if (Base.Ok && Base.Memory != Best.Memory)
    return "transformed program computes a different memory image";

  // ...and its parallel claims must survive a from-scratch analysis.
  for (const Program *Prog : {&R.Base, &R.Best}) {
    Program Fresh(*Prog);
    AnalyzerOptions AO;
    AO.ComputeDirections = true;
    AO.Cascade.Widen = Widen;
    AO.Direction.Cascade.Widen = Widen;
    DependenceAnalyzer Analyzer(AO);
    AnalysisResult Result = Analyzer.analyze(Fresh);
    DependenceGraph Graph = DependenceGraph::buildFromResult(Result);
    std::string Bad;
    std::function<void(const std::vector<StmtPtr> &)> Walk =
        [&](const std::vector<StmtPtr> &Body) {
          for (const StmtPtr &S : Body) {
            if (S->kind() != StmtKind::Loop || !Bad.empty())
              continue;
            const LoopStmt &L = asLoop(*S);
            if (L.isParallel()) {
              if (!canParallelize(Graph, &L).Legal)
                Bad = "claimed parallel loop '" +
                      Fresh.var(L.varId()).Name +
                      "' fails canParallelize on a fresh graph";
              for (const auto &[Var, Class] :
                   classifyScalars(Fresh, L))
                if (Class == ScalarClass::Carried)
                  Bad = "claimed parallel loop '" +
                        Fresh.var(L.varId()).Name +
                        "' carries scalar '" + Fresh.var(Var).Name +
                        "'";
            }
            Walk(L.body());
          }
        };
    Walk(Fresh.body());
    if (!Bad.empty())
      return Bad;
  }
  return "";
}

/// The width axis on one program: run the width/coarsening client at a
/// small cap and cross-check every per-loop claim against the chunked
/// interpreter oracle (validateWidths mines real carried distances
/// from the serial trace and re-executes each loop at sampled widths
/// in both lane orders). Returns the first mismatch description (empty
/// when clean); doubles as the shrink predicate. Programs the serial
/// interpreter cannot execute validate vacuously inside
/// validateWidths.
std::string widthMismatch(const std::string &Source, bool Widen) {
  ParseResult PR = parseProgram(Source);
  if (!PR.succeeded())
    return "";
  WidthOptions WO;
  // Small caps keep the probe searches and the re-execution sweep
  // cheap; random programs rarely have carried distances beyond 8.
  WO.MaxWidth = 8;
  WO.MaxCoarsen = 8;
  WO.Analyzer.Cascade.Widen = Widen;
  WO.Analyzer.Direction.Cascade.Widen = Widen;
  WidthAnalysis WA = analyzeWidths(*PR.Prog, WO);
  return validateWidths(*PR.Prog, WA, /*UnboundedSampleWidth=*/4);
}

class FuzzRunner {
public:
  FuzzRunner(const FuzzOptions &Opts, std::ostream *Log)
      : Opts(Opts), Log(Log) {
    // Small spans keep enumeration cheap; the cap below still covers
    // every problem the generator can emit with room to spare.
    OOpts.MaxPoints = 1u << 18;
    SOpts.Base = OOpts;
    for (const char *Spec : {"fm,residue,acyclic,svpc,gcd,const",
                             "svpc,acyclic,residue,const,gcd,fm"}) {
      std::shared_ptr<const TestPipeline> P = makePipeline(Spec);
      assert(P && "permuted pipeline spec failed to parse");
      Permuted.emplace_back(Spec, std::move(P));
    }
  }

  FuzzSummary run();

private:
  const FuzzOptions &Opts;
  std::ostream *Log;
  FuzzSummary S;
  oracle::OracleOptions OOpts;
  oracle::SymbolicOracleOptions SOpts;
  std::vector<std::pair<std::string, std::shared_ptr<const TestPipeline>>>
      Permuted;
  std::vector<DependenceProblem> MemoBatch;

  bool done() const { return S.Failures.size() >= Opts.MaxFailures; }

  void checkProblem(const DependenceProblem &P, uint64_t Iter);
  void checkProgram(const std::string &Source, uint64_t Iter);
  void checkIncremental(const std::string &Source, uint64_t Iter);
  void checkXform(const std::string &Source, uint64_t Iter);
  void checkWidth(const std::string &Source, uint64_t Iter);
  void flushMemoBatch(uint64_t Iter);

  void reportProblem(FuzzAxis Axis, uint64_t Iter, std::string Detail,
                     const DependenceProblem &Shrunk);
  void reportProgram(FuzzAxis Axis, uint64_t Iter, std::string Detail,
                     const std::string &Source, unsigned Edits = 0);
  void emit(FuzzFailure F);
};

FuzzSummary FuzzRunner::run() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start = Clock::now();
  uint64_t Limit = Opts.Count;
  if (Limit == 0 && Opts.TimeBudgetSeconds <= 0)
    Limit = 5000;

  for (uint64_t I = 0;; ++I) {
    if (Limit && I >= Limit)
      break;
    if (Opts.TimeBudgetSeconds > 0 &&
        std::chrono::duration<double>(Clock::now() - Start).count() >=
            Opts.TimeBudgetSeconds)
      break;
    if (done())
      break;

    // Each iteration owns an independent deterministic stream, so a
    // failure report's (seed, iteration) replays in isolation.
    SplitRng Rng(Opts.Seed + 0x9E3779B97F4A7C15ULL * (I + 1));
    ++S.Iterations;
    bool ProgramIter =
        Opts.ProgramEvery && (I % Opts.ProgramEvery) == Opts.ProgramEvery - 1;
    if (ProgramIter) {
      ++S.Programs;
      checkProgram(generateRandomProgram(Rng, Opts.Program), I);
    } else {
      ++S.Problems;
      checkProblem(randomFuzzProblem(Rng, Opts.Problem), I);
    }

    if (Log && S.Iterations % 1000 == 0)
      *Log << "edda-fuzz: " << S.Iterations << " iterations, "
           << S.Failures.size() << " failure(s)\n";
  }

  flushMemoBatch(S.Iterations);
  return std::move(S);
}

void FuzzRunner::checkProblem(const DependenceProblem &P, uint64_t Iter) {
  DependenceProblem Buggy = applyBug(P, Opts.Bug);
  CascadeOptions Base = applyBug(CascadeOptions(), Opts.Bug);
  Base.Widen = Opts.Widen;
  CascadeResult R = testDependence(Buggy, Base);

  if (Opts.CheckOracle) {
    // The differential core: cascade vs. enumeration, with the witness
    // checked against the *original* problem so an injected (or real)
    // perturbation cannot hide behind a self-consistent wrong answer.
    auto OracleFails = [this, &Base](const DependenceProblem &Q) {
      CascadeResult RQ = testDependence(applyBug(Q, Opts.Bug), Base);
      if (RQ.Answer == DepAnswer::Dependent && RQ.Witness &&
          !verifyWitness(Q, *RQ.Witness))
        return true;
      if (Q.NumSymbolic == 0) {
        std::optional<bool> Truth = oracleDependent(Q, {}, OOpts);
        return Truth && RQ.Answer != DepAnswer::Unknown &&
               (RQ.Answer == DepAnswer::Dependent) != *Truth;
      }
      std::optional<bool> Sampled = oracleDependentSampled(Q, {}, SOpts);
      return RQ.Answer == DepAnswer::Independent && Sampled && *Sampled;
    };

    bool Conclusive = false;
    std::string Detail;
    if (P.NumSymbolic == 0) {
      std::optional<bool> Truth = oracleDependent(P, {}, OOpts);
      Conclusive = Truth.has_value();
      if (Truth && R.Answer != DepAnswer::Unknown &&
          (R.Answer == DepAnswer::Dependent) != *Truth)
        Detail = "cascade says " + answerName(R.Answer) + " (" +
                 testKindName(R.DecidedBy) + "), enumeration says " +
                 (*Truth ? "dependent" : "independent");
    } else {
      std::optional<bool> Sampled = oracleDependentSampled(P, {}, SOpts);
      Conclusive = Sampled.has_value();
      if (Sampled && R.Answer == DepAnswer::Independent && *Sampled)
        Detail = std::string("cascade says independent (") +
                 testKindName(R.DecidedBy) +
                 ") but a sampled symbolic valuation depends";
    }
    if (Conclusive)
      ++S.OracleConclusive;
    if (Detail.empty() && R.Answer == DepAnswer::Dependent && R.Witness &&
        !verifyWitness(P, *R.Witness))
      Detail = std::string("witness from ") + testKindName(R.DecidedBy) +
               " violates the problem";
    if (!Detail.empty()) {
      reportProblem(FuzzAxis::Oracle, Iter, std::move(Detail),
                    shrinkProblem(P, OracleFails));
      if (done())
        return;
    }
  }

  if (Opts.CheckDirs) {
    // The direction/distance hierarchy vs. the oracle and its own
    // option combinations; the shrink predicate is the check itself.
    bool Conclusive = false;
    std::optional<std::string> Detail = checkDirections(
        P, Opts.Widen, Opts.Bug, OOpts, SOpts, &Conclusive);
    if (Conclusive)
      ++S.DirsConclusive;
    if (Detail) {
      auto DirsFails = [this](const DependenceProblem &Q) {
        return checkDirections(Q, Opts.Widen, Opts.Bug, OOpts, SOpts)
            .has_value();
      };
      reportProblem(FuzzAxis::Dirs, Iter, std::move(*Detail),
                    shrinkProblem(P, DirsFails));
      if (done())
        return;
    }
  }

  if (Opts.CheckWiden && Opts.Widen) {
    // The widening ladder's own differential: the same cascade with
    // --no-widen. When the ladder never fired the two runs took the
    // same path and must match bit for bit; when both decide they must
    // agree; an answer only the widened run produces is cross-checked
    // independently (witness or enumeration oracle), because the
    // 64-bit run has nothing to say about it.
    CascadeOptions NoWiden = Base;
    NoWiden.Widen = false;
    CascadeResult RN = testDependence(Buggy, NoWiden);
    std::string Detail;
    if (!R.Widened) {
      // The ladder never produced the answer, so --no-widen must agree
      // on it bit for bit — with one legitimate wiggle: a stage that is
      // applicable only thanks to wide prep can exhaust the ladder and
      // still consume the query (Unknown via FM) where the 64-bit run
      // fell through (Unknown via Unanalyzable), so an Unknown's
      // provenance may differ.
      bool BothUnknown =
          R.Answer == DepAnswer::Unknown && RN.Answer == DepAnswer::Unknown;
      if (R.Answer != RN.Answer || RN.Widened ||
          (!BothUnknown &&
           (R.DecidedBy != RN.DecidedBy || R.Exact != RN.Exact)))
        Detail = "--no-widen perturbs an unwidened result: " +
                 answerName(R.Answer) + " (" + testKindName(R.DecidedBy) +
                 ") vs " + answerName(RN.Answer) + " (" +
                 testKindName(RN.DecidedBy) + ")";
    } else if (RN.Answer != DepAnswer::Unknown) {
      if (R.Answer == DepAnswer::Unknown)
        Detail = "widening lost a decisive answer: --no-widen says " +
                 answerName(RN.Answer) + " (" + testKindName(RN.DecidedBy) +
                 ")";
      else if (R.Answer != RN.Answer)
        Detail = "widened cascade says " + answerName(R.Answer) + " (" +
                 testKindName(R.DecidedBy) + "), --no-widen says " +
                 answerName(RN.Answer) + " (" + testKindName(RN.DecidedBy) +
                 ")";
    } else if (R.Answer == DepAnswer::Dependent) {
      if (R.Witness) {
        if (!verifyWitness(P, *R.Witness))
          Detail = std::string("widened witness from ") +
                   testKindName(R.DecidedBy) + " violates the problem";
      } else if (P.NumSymbolic == 0) {
        std::optional<bool> Truth = oracleDependent(P, {}, OOpts);
        if (Truth && !*Truth)
          Detail = std::string("widened dependent (") +
                   testKindName(R.DecidedBy) +
                   ") but enumeration finds no point";
      }
    } else if (R.Answer == DepAnswer::Independent) {
      if (P.NumSymbolic == 0) {
        std::optional<bool> Truth = oracleDependent(P, {}, OOpts);
        if (Truth && *Truth)
          Detail = std::string("widened independent (") +
                   testKindName(R.DecidedBy) +
                   ") but enumeration finds a point";
      } else {
        std::optional<bool> Sampled = oracleDependentSampled(P, {}, SOpts);
        if (Sampled && *Sampled)
          Detail = std::string("widened independent (") +
                   testKindName(R.DecidedBy) +
                   ") but a sampled symbolic valuation depends";
      }
    }
    if (!Detail.empty()) {
      auto WidenFails = [this](const DependenceProblem &Q) {
        DependenceProblem QB = applyBug(Q, Opts.Bug);
        CascadeOptions QW = applyBug(CascadeOptions(), Opts.Bug);
        CascadeResult W = testDependence(QB, QW);
        CascadeOptions QN = QW;
        QN.Widen = false;
        CascadeResult N = testDependence(QB, QN);
        if (!W.Widened) {
          bool BothUnknown = W.Answer == DepAnswer::Unknown &&
                             N.Answer == DepAnswer::Unknown;
          return W.Answer != N.Answer || N.Widened ||
                 (!BothUnknown && (W.DecidedBy != N.DecidedBy ||
                                   W.Exact != N.Exact));
        }
        if (N.Answer != DepAnswer::Unknown)
          return W.Answer != N.Answer;
        if (W.Answer == DepAnswer::Dependent) {
          if (W.Witness)
            return !verifyWitness(Q, *W.Witness);
          if (Q.NumSymbolic == 0) {
            std::optional<bool> T = oracleDependent(Q, {}, OOpts);
            return T.has_value() && !*T;
          }
          return false;
        }
        if (W.Answer == DepAnswer::Independent) {
          if (Q.NumSymbolic == 0) {
            std::optional<bool> T = oracleDependent(Q, {}, OOpts);
            return T.has_value() && *T;
          }
          std::optional<bool> Sm = oracleDependentSampled(Q, {}, SOpts);
          return Sm.has_value() && *Sm;
        }
        return false;
      };
      reportProblem(FuzzAxis::Widen, Iter, std::move(Detail),
                    shrinkProblem(P, WidenFails));
      if (done())
        return;
    }
  }

  if (Opts.CheckPipeline && R.Answer != DepAnswer::Unknown) {
    // Decisive answers are permutation-invariant; Unknown is not (a
    // consuming stage like FM ends whichever pipeline reaches it
    // first), so only decisive-vs-decisive contradictions count.
    for (const auto &[Spec, PP] : Permuted) {
      CascadeOptions CO = Base;
      CO.Pipeline = PP;
      CascadeResult R2 = testDependence(Buggy, CO);
      if (R2.Answer == DepAnswer::Unknown || R2.Answer == R.Answer)
        continue;
      auto PipelineFails = [this, &Base, PP = PP](const DependenceProblem &Q) {
        DependenceProblem QB = applyBug(Q, Opts.Bug);
        CascadeResult D = testDependence(QB, Base);
        CascadeOptions QO = Base;
        QO.Pipeline = PP;
        CascadeResult M = testDependence(QB, QO);
        return D.Answer != DepAnswer::Unknown &&
               M.Answer != DepAnswer::Unknown && D.Answer != M.Answer;
      };
      reportProblem(FuzzAxis::Pipeline, Iter,
                    "default pipeline says " + answerName(R.Answer) +
                        ", '" + Spec + "' says " + answerName(R2.Answer),
                    shrinkProblem(P, PipelineFails));
      if (done())
        return;
    }
  }

  if (Opts.CheckMemo) {
    MemoBatch.push_back(std::move(Buggy));
    if (MemoBatch.size() >= 32)
      flushMemoBatch(Iter);
  }
}

void FuzzRunner::flushMemoBatch(uint64_t Iter) {
  if (MemoBatch.empty() || done()) {
    MemoBatch.clear();
    return;
  }
  std::vector<DependenceProblem> Batch;
  Batch.swap(MemoBatch);

  DependenceCache C1;
  CascadeOptions Base;
  Base.Widen = Opts.Widen;
  std::vector<CascadeResult> Expected;
  for (const DependenceProblem &P : Batch) {
    if (!C1.lookupFull(P))
      C1.insertFull(P, testDependence(P, Base));
    // The post-insert lookup is the canonical stored value, so the
    // check below is purely about persistence.
    Expected.push_back(*C1.lookupFull(P));
  }

  std::string Path = tempCachePath("batch");
  DependenceCache C2;
  bool Persisted = C1.saveToFile(Path) && C2.loadFromFile(Path);
  std::error_code EC;
  fs::remove(Path, EC);

  for (size_t I = 0; I < Batch.size(); ++I) {
    std::string Detail;
    if (!Persisted) {
      Detail = "cache save/load failed";
    } else {
      std::optional<CascadeResult> Got = C2.lookupFull(Batch[I]);
      if (!Got)
        Detail = "entry missing after cache round-trip";
      else if (Got->Answer != Expected[I].Answer ||
               Got->DecidedBy != Expected[I].DecidedBy ||
               Got->Exact != Expected[I].Exact ||
               Got->Widened != Expected[I].Widened)
        Detail = "cached " + answerName(Expected[I].Answer) + " (" +
                 testKindName(Expected[I].DecidedBy) +
                 (Expected[I].Widened ? ", widened" : "") + ") became " +
                 answerName(Got->Answer) + " (" +
                 testKindName(Got->DecidedBy) +
                 (Got->Widened ? ", widened" : "") + ") after round-trip";
    }
    if (!Detail.empty()) {
      reportProblem(FuzzAxis::Memo, Iter, std::move(Detail),
                    shrinkProblem(Batch[I], [this](const DependenceProblem &Q) {
                      return memoRoundTripFails(Q, Opts.Widen);
                    }));
      if (done())
        return;
      if (!Persisted)
        return; // One report covers a whole-file failure.
    }
  }
}

void FuzzRunner::checkProgram(const std::string &Source, uint64_t Iter) {
  ParseResult PR = parseProgram(Source);
  if (!PR.succeeded()) {
    std::string Diag =
        PR.Diags.empty() ? std::string("no diagnostic") : PR.Diags[0].str();
    reportProgram(FuzzAxis::Parse, Iter,
                  "generated program failed to parse: " + Diag, Source);
    return;
  }

  // print/parse must reach a fixed point in one step.
  std::string S1 = PR.Prog->print();
  ParseResult PR2 = parseProgram(S1);
  if (!PR2.succeeded() || PR2.Prog->print() != S1) {
    auto ReprintFails = [](const std::string &Src) {
      ParseResult A = parseProgram(Src);
      if (!A.succeeded())
        return false;
      std::string Printed = A.Prog->print();
      ParseResult B = parseProgram(Printed);
      return !B.succeeded() || B.Prog->print() != Printed;
    };
    reportProgram(FuzzAxis::Parse, Iter,
                  "print/parse round-trip is not stable",
                  shrinkProgramSource(Source, ReprintFails));
    if (done())
      return;
  }

  if (Opts.CheckIncr) {
    checkIncremental(Source, Iter);
    if (done())
      return;
  }

  if (Opts.CheckXform) {
    checkXform(Source, Iter);
    if (done())
      return;
  }

  if (Opts.CheckWidth) {
    checkWidth(Source, Iter);
    if (done())
      return;
  }

  if (Opts.CheckMemo) {
    // Whole-program cache persistence: a reload must reproduce every
    // answer (cache provenance legitimately flips to hits).
    AnalyzerOptions Serial;
    Serial.ComputeDirections = true;
    Serial.Cascade.Widen = Opts.Widen;
    Serial.Direction.Cascade.Widen = Opts.Widen;

    Program Copy1 = *PR.Prog;
    DependenceAnalyzer A1(Serial);
    AnalysisResult Res1 = A1.analyze(Copy1);
    ++S.MemoRoundTrips;

    std::string Path = tempCachePath("prog");
    bool Saved = A1.cache().saveToFile(Path);
    DependenceAnalyzer A3(Serial);
    bool Loaded = Saved && A3.cache().loadFromFile(Path);
    std::error_code EC;
    fs::remove(Path, EC);
    std::optional<std::string> Mis;
    if (!Saved || !Loaded) {
      Mis = "cache save/load failed";
    } else {
      Program Copy3 = *PR.Prog;
      AnalysisResult Res3 = A3.analyze(Copy3);
      Mis = comparePairs(Res1, Res3);
    }
    if (Mis) {
      auto MemoFail = [this, &Serial](const std::string &Src) {
        ParseResult R = parseProgram(Src);
        if (!R.succeeded())
          return false;
        Program CA = *R.Prog;
        DependenceAnalyzer SA(Serial);
        AnalysisResult RA = SA.analyze(CA);
        std::string P = tempCachePath("prog-shrink");
        DependenceAnalyzer SB(Serial);
        bool OK = SA.cache().saveToFile(P) && SB.cache().loadFromFile(P);
        std::error_code E2;
        fs::remove(P, E2);
        if (!OK)
          return true;
        Program CB = *R.Prog;
        return comparePairs(RA, SB.analyze(CB)).has_value();
      };
      reportProgram(FuzzAxis::Memo, Iter,
                    "whole-program cache round-trip: " + *Mis,
                    shrinkProgramSource(Source, MemoFail));
    }
  }
}

void FuzzRunner::checkIncremental(const std::string &Source,
                                  uint64_t Iter) {
  // Each edit owns an independent seed, so the sequence can shrink by
  // dropping edits without perturbing the survivors.
  SplitRng SeedRng(Opts.Seed ^ (0xC2B2AE3D27D4EB4FULL * (Iter + 1)));
  unsigned NumEdits = 1 + static_cast<unsigned>(SeedRng.below(
                              std::max(1u, Opts.MaxIncrEdits)));
  std::vector<uint64_t> Seeds;
  for (unsigned E = 0; E < NumEdits; ++E)
    Seeds.push_back(SeedRng.next());

  bool InjectStale = Opts.Bug == InjectedBug::StaleFingerprint;
  std::string Detail =
      incrSequenceMismatch(Source, Seeds, Opts.Widen, InjectStale);
  if (Detail.empty())
    return;

  // Shrink the edit sequence first (greedy subset minimization to a
  // fixed point), then the program source under the surviving edits.
  auto FailsWith = [this, InjectStale](const std::string &Src,
                                       const std::vector<uint64_t> &S) {
    return !incrSequenceMismatch(Src, S, Opts.Widen, InjectStale).empty();
  };
  bool Progress = true;
  while (Progress && Seeds.size() > 1) {
    Progress = false;
    for (size_t E = 0; E < Seeds.size(); ++E) {
      std::vector<uint64_t> Candidate = Seeds;
      Candidate.erase(Candidate.begin() + static_cast<long>(E));
      if (FailsWith(Source, Candidate)) {
        Seeds = std::move(Candidate);
        Progress = true;
        break;
      }
    }
  }
  std::string Shrunk = shrinkProgramSource(
      Source,
      [&](const std::string &Src) { return FailsWith(Src, Seeds); });
  if (std::string D =
          incrSequenceMismatch(Shrunk, Seeds, Opts.Widen, InjectStale);
      !D.empty())
    Detail = std::move(D);

  // The edit seeds ride along in a comment so the reproducer names the
  // full failing (program, edit sequence) input.
  std::ostringstream WithEdits;
  WithEdits << "# edda-fuzz-edits:";
  for (uint64_t S : Seeds)
    WithEdits << " " << S;
  WithEdits << "\n" << Shrunk;
  reportProgram(FuzzAxis::Incr, Iter, std::move(Detail), WithEdits.str(),
                static_cast<unsigned>(Seeds.size()));
}

void FuzzRunner::checkXform(const std::string &Source, uint64_t Iter) {
  bool InjectMisSign = Opts.Bug == InjectedBug::MisSignSkew;
  std::string Detail = xformMismatch(Source, Opts.Widen, InjectMisSign);
  if (Detail.empty())
    return;
  std::string Shrunk = shrinkProgramSource(
      Source, [this, InjectMisSign](const std::string &Src) {
        return !xformMismatch(Src, Opts.Widen, InjectMisSign).empty();
      });
  if (std::string D = xformMismatch(Shrunk, Opts.Widen, InjectMisSign);
      !D.empty())
    Detail = std::move(D);
  reportProgram(FuzzAxis::Xform, Iter, std::move(Detail), Shrunk);
}

void FuzzRunner::checkWidth(const std::string &Source, uint64_t Iter) {
  std::string Detail = widthMismatch(Source, Opts.Widen);
  if (Detail.empty())
    return;
  std::string Shrunk =
      shrinkProgramSource(Source, [this](const std::string &Src) {
        return !widthMismatch(Src, Opts.Widen).empty();
      });
  if (std::string D = widthMismatch(Shrunk, Opts.Widen); !D.empty())
    Detail = std::move(D);
  reportProgram(FuzzAxis::Width, Iter, std::move(Detail), Shrunk);
}

void FuzzRunner::reportProblem(FuzzAxis Axis, uint64_t Iter,
                               std::string Detail,
                               const DependenceProblem &Shrunk) {
  // The expectation header comes from the clean cascade, corrected by
  // enumeration when they disagree (which is the bug being reported):
  // once fixed, the file drops into tests/inputs/corpus/ unchanged.
  CascadeResult Clean = testDependence(Shrunk);
  std::optional<bool> Truth = Shrunk.NumSymbolic == 0
                                  ? oracleDependent(Shrunk, {}, OOpts)
                                  : std::nullopt;
  std::ostringstream OS;
  bool Dep = Truth ? *Truth : Clean.Answer == DepAnswer::Dependent;
  if (Truth || Clean.Answer != DepAnswer::Unknown)
    OS << "# expect: " << (Dep ? "dependent" : "independent") << " "
       << testKindName(Clean.DecidedBy) << "\n";
  OS << "# edda-fuzz: axis=" << fuzzAxisName(Axis) << " seed=" << Opts.Seed
     << " iteration=" << Iter;
  if (const char *BugName = injectedBugName(Opts.Bug))
    OS << " inject-bug=" << BugName;
  OS << "\n# " << Detail << "\n" << printProblemText(Shrunk);

  FuzzFailure F;
  F.Axis = Axis;
  F.Iteration = Iter;
  F.Detail = std::move(Detail);
  F.Reproducer = OS.str();
  F.IsProgram = false;
  emit(std::move(F));
}

void FuzzRunner::reportProgram(FuzzAxis Axis, uint64_t Iter,
                               std::string Detail,
                               const std::string &Source, unsigned Edits) {
  std::ostringstream OS;
  OS << "# edda-fuzz: axis=" << fuzzAxisName(Axis) << " seed=" << Opts.Seed
     << " iteration=" << Iter;
  if (const char *BugName = injectedBugName(Opts.Bug))
    OS << " inject-bug=" << BugName;
  OS << "\n# " << Detail << "\n" << Source;

  FuzzFailure F;
  F.Axis = Axis;
  F.Iteration = Iter;
  F.Detail = std::move(Detail);
  F.Reproducer = OS.str();
  F.IsProgram = true;
  F.Edits = Edits;
  emit(std::move(F));
}

void FuzzRunner::emit(FuzzFailure F) {
  if (!Opts.OutDir.empty()) {
    std::error_code EC;
    fs::create_directories(Opts.OutDir, EC);
    std::ostringstream Name;
    Name << "fuzz-" << fuzzAxisName(F.Axis) << "-seed" << Opts.Seed << "-i"
         << F.Iteration << (F.IsProgram ? ".loop" : ".dep");
    fs::path Path = fs::path(Opts.OutDir) / Name.str();
    std::ofstream Out(Path);
    Out << F.Reproducer;
    if (Out)
      F.Path = Path.string();
  }
  if (Log)
    *Log << "edda-fuzz: FAILURE [" << fuzzAxisName(F.Axis) << "] iteration "
         << F.Iteration << ": " << F.Detail
         << (F.Path.empty() ? "" : "\n  reproducer: " + F.Path) << "\n";
  S.Failures.push_back(std::move(F));
}

} // namespace

FuzzSummary runFuzz(const FuzzOptions &Opts, std::ostream *Log) {
  return FuzzRunner(Opts, Log).run();
}

std::optional<std::string>
checkDirections(const DependenceProblem &P, bool Widen, InjectedBug Bug,
                const oracle::OracleOptions &OOpts,
                const oracle::SymbolicOracleOptions &SOpts,
                bool *OracleConclusive) {
  if (OracleConclusive)
    *OracleConclusive = false;
  DependenceProblem Buggy = applyBug(P, Bug);

  DirectionResult Results[16];
  for (unsigned Mask = 0; Mask < 16; ++Mask) {
    DirectionOptions DO;
    DO.Cascade = applyBug(CascadeOptions(), Bug);
    DO.Cascade.Widen = Widen;
    DO.EliminateUnusedVars = (Mask & 1) != 0;
    DO.DistanceVectorPruning = (Mask & 2) != 0;
    DO.SeparableDimensions = (Mask & 4) != 0;
    DO.ShareFmResults = (Mask & 8) == 0;
    DO.InjectMisSignedPruning = Bug == InjectedBug::MisSignDirPrune;
    Results[Mask] = computeDirectionVectors(Buggy, DO);
  }

  // The pruning options may trade exactness for work, never flip a
  // decisive root or move a pinned distance — and FM sub-result
  // sharing (the +noshare half of the table) may change nothing at
  // all, which pairwise agreement across the two halves enforces.
  for (unsigned I = 0; I < 16; ++I)
    for (unsigned J = I + 1; J < 16; ++J) {
      const DirectionResult &A = Results[I];
      const DirectionResult &B = Results[J];
      if (A.RootAnswer != DepAnswer::Unknown &&
          B.RootAnswer != DepAnswer::Unknown &&
          A.RootAnswer != B.RootAnswer)
        return std::string("dirs: combo ") + DirComboNames[I] +
               " root says " + answerName(A.RootAnswer) + ", combo " +
               DirComboNames[J] + " says " + answerName(B.RootAnswer);
      for (unsigned K = 0; K < P.NumCommon; ++K)
        if (K < A.Distances.size() && K < B.Distances.size() &&
            A.Distances[K] && B.Distances[K] &&
            *A.Distances[K] != *B.Distances[K])
          return std::string("dirs: combo ") + DirComboNames[I] +
                 " pins distance[" + std::to_string(K) + "] = " +
                 std::to_string(*A.Distances[K]) + ", combo " +
                 DirComboNames[J] + " pins " +
                 std::to_string(*B.Distances[K]);
    }

  if (P.NumSymbolic == 0) {
    std::optional<oracle::DirectionOracle> Truth =
        oracle::oracleDirectionInfo(P, OOpts);
    if (!Truth)
      return std::nullopt;
    if (OracleConclusive)
      *OracleConclusive = true;
    for (unsigned Mask = 0; Mask < 16; ++Mask)
      if (std::optional<std::string> Detail =
              dirComboVsTruth(DirComboNames[Mask], Results[Mask], *Truth,
                              /*SoundOnly=*/false, ""))
        return Detail;
    return std::nullopt;
  }

  // Symbolic problems: sweep the sample grid and hold every reported
  // vector/distance/root claim against each conclusive concretization,
  // in the sound direction only.
  if (SOpts.SampleValues.empty())
    return std::nullopt;
  uint64_t Total = 1;
  for (unsigned K = 0; K < P.NumSymbolic; ++K) {
    Total *= SOpts.SampleValues.size();
    if (Total > SOpts.MaxValuations)
      return std::nullopt;
  }
  // Spread the enumeration budget across the whole sweep: a 3-symbolic
  // problem visits up to 729 valuations, and giving each the full
  // MaxPoints makes single iterations take minutes. Valuations whose
  // box exceeds the per-valuation slice just read as inconclusive.
  oracle::OracleOptions PerValuation = SOpts.Base;
  PerValuation.MaxPoints =
      std::max<uint64_t>(1024, SOpts.Base.MaxPoints / Total);
  std::vector<int64_t> Values(P.NumSymbolic, SOpts.SampleValues.front());
  std::vector<unsigned> Odometer(P.NumSymbolic, 0);
  bool AllConclusive = true;
  for (uint64_t V = 0; V < Total; ++V) {
    for (unsigned K = 0; K < P.NumSymbolic; ++K)
      Values[K] = SOpts.SampleValues[Odometer[K]];
    std::optional<DependenceProblem> Concrete =
        oracle::concretize(P, Values);
    std::optional<oracle::DirectionOracle> Truth =
        Concrete ? oracle::oracleDirectionInfo(*Concrete, PerValuation)
                 : std::nullopt;
    if (!Truth) {
      AllConclusive = false;
    } else {
      std::string Where = " at symbolic valuation (";
      for (unsigned K = 0; K < P.NumSymbolic; ++K)
        Where += (K ? ", " : "") + std::to_string(Values[K]);
      Where += ")";
      for (unsigned Mask = 0; Mask < 16; ++Mask)
        if (std::optional<std::string> Detail =
                dirComboVsTruth(DirComboNames[Mask], Results[Mask], *Truth,
                                /*SoundOnly=*/true, Where))
          return Detail;
    }
    for (unsigned K = 0; K < P.NumSymbolic; ++K) {
      if (++Odometer[K] < SOpts.SampleValues.size())
        break;
      Odometer[K] = 0;
    }
  }
  if (AllConclusive && OracleConclusive)
    *OracleConclusive = true;
  return std::nullopt;
}

} // namespace fuzz
} // namespace edda
