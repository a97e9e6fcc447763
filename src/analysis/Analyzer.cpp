//===- analysis/Analyzer.cpp - Whole-program dependence analysis ----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// The driver is one serial pass over the candidate pairs in canonical
/// (source ref, sink ref) order. Only tested pairs touch the memo
/// tables, in that order, so every pair sees the hits and misses of
/// that order; docs/ALGORITHMS.md section 9 describes the pass and why
/// it has no thread dimension.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "opt/Pipeline.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace edda;

DependenceAnalyzer::DependenceAnalyzer(AnalyzerOptions O)
    : Opts(std::move(O)), Owned(Opts.Memo) {}

DependenceAnalyzer::DependenceAnalyzer(AnalyzerOptions O,
                                       DependenceCache &SharedCache)
    : Opts(std::move(O)), Owned(MemoOptions{}), External(&SharedCache) {}

void DependenceAnalyzer::decideTestedPair(const BuiltProblem &Built,
                                          DependencePair &Pair,
                                          DepStats &Stats,
                                          uint64_t PairKey) {
  const DependenceProblem &Problem = Built.Problem;

  if (Opts.ComputeDirections) {
    // Direction mode: the direction computation's root (*,...,*)
    // query IS the plain dependence test, so it drives everything
    // (running the cascade separately would double-count).
    std::optional<DirectionResult> CachedDirs;
    if (Opts.UseMemoization) {
      CachedDirs = cache().lookupDirections(Problem);
      if (CachedDirs)
        Stats.MemoHitsFull++;
    }
    DirectionResult Dirs;
    if (CachedDirs) {
      Dirs = std::move(*CachedDirs);
      Pair.FromCache = true;
    } else {
      Dirs = computeDirectionVectors(Problem, Opts.Direction);
      if (Opts.UseMemoization) {
        cache().insertDirections(Problem, Dirs, PairKey);
        // The root answer also serves plain (non-direction) runs
        // sharing this cache.
        CascadeResult Root;
        Root.Answer = Dirs.RootAnswer;
        Root.DecidedBy = Dirs.RootDecidedBy;
        Root.Exact = Dirs.Exact;
        Root.Widened = Dirs.RootWidened;
        cache().insertFull(Problem, Root, PairKey);
      }
      Stats += Dirs.TestStats;
    }
    Pair.Answer = Dirs.RootAnswer;
    Pair.DecidedBy = Dirs.RootDecidedBy;
    Pair.Exact = Dirs.Exact && Built.Exact;
    Pair.Directions = std::move(Dirs);
    return;
  }

  // Plain answer, via the full-key table when enabled.
  std::optional<CascadeResult> Cached;
  if (Opts.UseMemoization) {
    Cached = cache().lookupFull(Problem);
    if (Cached)
      Stats.MemoHitsFull++;
  }
  CascadeResult Outcome;
  if (Cached) {
    Outcome = *Cached;
    Pair.FromCache = true;
  } else {
    // The bounds-free table can spare the whole cascade when the
    // equations alone were already proved unsolvable.
    std::optional<bool> GcdKnown;
    if (Opts.UseMemoization) {
      GcdKnown = cache().lookupGcdSolvable(Problem);
      if (GcdKnown)
        Stats.MemoHitsNoBounds++;
    }
    if (GcdKnown && !*GcdKnown) {
      Outcome.Answer = DepAnswer::Independent;
      Outcome.DecidedBy = TestKind::GcdTest;
      Outcome.Exact = true;
      Pair.FromCache = true;
    } else {
      Outcome = testDependence(Problem, Opts.Cascade, &Stats);
      if (Opts.UseMemoization) {
        cache().insertFull(Problem, Outcome, PairKey);
        // A system-stage decision implies the extended GCD found the
        // equations solvable. The Banerjee stage is excluded: its
        // Independent answers can come from the simple GCD test, i.e.
        // from UNsolvable equations.
        if (Outcome.DecidedBy == TestKind::GcdTest)
          cache().insertGcdSolvable(Problem, false);
        else if (Outcome.DecidedBy != TestKind::ArrayConstant &&
                 Outcome.DecidedBy != TestKind::Banerjee &&
                 Outcome.DecidedBy != TestKind::Unanalyzable)
          cache().insertGcdSolvable(Problem, true);
      }
    }
  }
  Pair.Answer = Outcome.Answer;
  Pair.DecidedBy = Outcome.DecidedBy;
  Pair.Exact = Outcome.Exact && Built.Exact;
}

AnalysisResult DependenceAnalyzer::analyze(Program &Prog,
                                           ReanalyzeStats *RS) {
  return analyzeImpl(Prog, /*Prev=*/nullptr, RS);
}

AnalysisResult
DependenceAnalyzer::reanalyze(Program &Prog,
                              const AnalysisResult &Previous,
                              ReanalyzeStats *RS) {
  return analyzeImpl(Prog, &Previous, RS);
}

AnalysisResult DependenceAnalyzer::analyzeImpl(Program &Prog,
                                               const AnalysisResult *Prev,
                                               ReanalyzeStats *RS) {
  if (Opts.RunPrepass)
    runPrepass(Prog);

  AnalysisResult Result;
  Result.Refs = collectReferences(Prog);
  const std::vector<ArrayReference> &Refs = Result.Refs;

  // The reuse key field; the fuzzer's injected bug drops the bound
  // chain from the key to prove the incr axis catches stale splices.
  auto RefFp = [this](const ArrayReference &R) {
    return Opts.InjectStaleFingerprint ? R.FingerprintNoBounds
                                       : R.Fingerprint;
  };

  // Phase 1 (cheap): enumerate candidate pairs in the canonical
  // (source ref, sink ref) order every downstream consumer relies on,
  // with each pair's common-loop count (loop-object prefix, as the
  // builder computes it) and fingerprint key. Only refs to one array can
  // pair, so refs are bucketed by ArrayId (dense, below numArrays()) with
  // a stable counting sort; source ref I then scans only the later refs
  // of its own bucket. Buckets keep ascending ref order, so the pairs
  // come out in exactly the order of the all-pairs scan.
  std::vector<unsigned> BucketEnd(Prog.numArrays() + 1, 0);
  for (const ArrayReference &R : Refs) {
    assert(R.ArrayId < Prog.numArrays() && "array id out of range");
    ++BucketEnd[R.ArrayId + 1];
  }
  for (size_t A = 1; A < BucketEnd.size(); ++A)
    BucketEnd[A] += BucketEnd[A - 1];
  std::vector<unsigned> ByArray(Refs.size()); // ref ids, bucket by bucket
  std::vector<unsigned> PosOf(Refs.size());   // ref id -> ByArray index
  for (unsigned I = 0; I < Refs.size(); ++I) {
    PosOf[I] = BucketEnd[Refs[I].ArrayId]++;
    ByArray[PosOf[I]] = I;
  }
  // BucketEnd[A] now ends bucket A (the fill advanced each start).

  // Calls Emit(I, J) for every candidate, in canonical order. A
  // dependence needs a write on at least one side.
  auto ForEachCandidate = [&](auto &&Emit) {
    for (unsigned I = 0; I < Refs.size(); ++I) {
      const unsigned End = BucketEnd[Refs[I].ArrayId];
      for (unsigned P = PosOf[I]; P < End; ++P) {
        unsigned J = ByArray[P];
        if (Refs[I].IsWrite || Refs[J].IsWrite)
          Emit(I, J);
      }
    }
  };
  size_t NumCandidates = 0;
  ForEachCandidate([&](unsigned, unsigned) { ++NumCandidates; });

  std::vector<std::pair<unsigned, unsigned>> Candidates;
  std::vector<unsigned> CandCommon;
  std::vector<uint64_t> CandKey;
  Candidates.reserve(NumCandidates);
  CandCommon.reserve(NumCandidates);
  CandKey.reserve(NumCandidates);
  ForEachCandidate([&](unsigned I, unsigned J) {
    Candidates.emplace_back(I, J);
    unsigned Common = 0;
    while (Common < Refs[I].Loops.size() &&
           Common < Refs[J].Loops.size() &&
           Refs[I].Loops[Common] == Refs[J].Loops[Common])
      ++Common;
    CandCommon.push_back(Common);
    CandKey.push_back(
        pairFingerprint(RefFp(Refs[I]), RefFp(Refs[J]), Common));
  });
  Result.PairsConsidered = Candidates.size();

  // Re-analysis: match candidates against the previous result by
  // fingerprint key. Equal keys mean structurally identical references
  // under structurally identical bound chains with the same
  // commonality, which build the identical problem — so the previous
  // outcome is exact, not approximate. Duplicate keys (cloned
  // statements) all map to one representative; their outcomes coincide
  // for the same reason.
  std::vector<const DependencePair *> Reused(Candidates.size(), nullptr);
  if (Prev) {
    std::unordered_map<uint64_t, const DependencePair *> OldByKey;
    OldByKey.reserve(Prev->Pairs.size());
    for (const DependencePair &P : Prev->Pairs)
      OldByKey.emplace(
          pairFingerprint(RefFp(Prev->Refs[P.RefA]),
                          RefFp(Prev->Refs[P.RefB]),
                          static_cast<unsigned>(P.CommonLoops.size())),
          &P);
    for (size_t C = 0; C < Candidates.size(); ++C) {
      auto It = OldByKey.find(CandKey[C]);
      if (It != OldByKey.end())
        Reused[C] = It->second;
    }
    if (RS) {
      RS->PairsTotal = Candidates.size();
      for (const DependencePair *R : Reused)
        if (R)
          ++RS->PairsReused;
      RS->PairsInvalidated = RS->PairsTotal - RS->PairsReused;
      std::unordered_set<uint64_t> NewKeys(CandKey.begin(),
                                           CandKey.end());
      for (const auto &[Key, P] : OldByKey)
        if (!NewKeys.count(Key))
          RS->StaleKeys.push_back(Key);
      std::sort(RS->StaleKeys.begin(), RS->StaleKeys.end());
    }
  } else if (RS) {
    RS->PairsTotal = RS->PairsInvalidated = Candidates.size();
  }

  // Phase 2 (in candidate order): splice each reused pair, or build the
  // pair's problem, decide it, trace it when asked, and drop it. Reused
  // candidates skip the build entirely; that skip, not edge bookkeeping,
  // is what makes re-analysis O(edit).
  const TestPipeline *TracePipeline = nullptr;
  if (Opts.Trace)
    TracePipeline = Opts.Cascade.Pipeline ? Opts.Cascade.Pipeline.get()
                                          : &TestPipeline::defaultPipeline();
  Result.Pairs.reserve(Candidates.size());
  for (size_t C = 0; C < Candidates.size(); ++C) {
    auto [I, J] = Candidates[C];
    DependencePair &Pair = Result.Pairs.emplace_back();
    Pair.RefA = I;
    Pair.RefB = J;

    if (const DependencePair *Old = Reused[C]) {
      Pair.Answer = Old->Answer;
      Pair.DecidedBy = Old->DecidedBy;
      Pair.Exact = Old->Exact;
      Pair.FromCache = true;
      Pair.Directions = Old->Directions;
      // CommonLoops must point into the *new* program; the count
      // matches the old pair by key construction.
      for (unsigned L = 0; L < CandCommon[C]; ++L)
        Pair.CommonLoops.push_back(Refs[I].Loops[L]);
      // The report header's unanalyzable count is structural and must
      // stay bit-identical to a fresh run; Stats (decision counters)
      // intentionally cover only re-run pairs.
      if (Pair.DecidedBy == TestKind::Unanalyzable)
        ++Result.UnanalyzablePairs;
      continue;
    }

    std::optional<BuiltProblem> Built = buildProblem(Prog, Refs[I], Refs[J]);
    if (!Built) {
      ++Result.UnanalyzablePairs;
      Pair.Answer = DepAnswer::Unknown;
      Pair.DecidedBy = TestKind::Unanalyzable;
      Pair.Exact = false;
      // Clients (the parallelizer) still need the common nest to
      // serialize conservatively.
      for (unsigned L = 0; L < CandCommon[C]; ++L)
        Pair.CommonLoops.push_back(Refs[I].Loops[L]);
      Result.Stats.recordDecision(TestKind::Unanalyzable, false);
      continue;
    }
    const DependenceProblem &Problem = Built->Problem;
    Pair.CommonLoops = std::move(Built->CommonLoops);

    // Array constants are handled without dependence testing (paper
    // section 4) — and without memoization overhead, which would
    // otherwise dominate constant-heavy programs like LG.
    if (std::all_of(Problem.Equations.begin(), Problem.Equations.end(),
                    [](const XAffine &Eq) { return Eq.isConstant(); })) {
      CascadeResult Outcome =
          testDependence(Problem, Opts.Cascade, &Result.Stats);
      Pair.Answer = Outcome.Answer;
      Pair.DecidedBy = Outcome.DecidedBy;
      Pair.Exact = Outcome.Exact && Built->Exact;
      if (Opts.ComputeDirections &&
          Pair.Answer != DepAnswer::Independent) {
        DirectionResult Dirs;
        Dirs.RootAnswer = Pair.Answer;
        Dirs.RootDecidedBy = Outcome.DecidedBy;
        Dirs.Exact = Outcome.Exact;
        Dirs.Widened = Outcome.Widened;
        Dirs.RootWidened = Outcome.Widened;
        Dirs.Distances.assign(Problem.NumCommon, std::nullopt);
        // Every direction is possible for a constant overlap.
        Dirs.Vectors.push_back(DirVector(Problem.NumCommon, Dir::Any));
        Pair.Directions = std::move(Dirs);
      }
    } else {
      decideTestedPair(*Built, Pair, Result.Stats, CandKey[C]);
    }
    // The serving layer's classification: constant and unanalyzable
    // pairs are neither memo hits nor tests.
    if (RS && Pair.DecidedBy != TestKind::Unanalyzable) {
      if (Pair.FromCache)
        ++RS->PairsCached;
      else if (Pair.DecidedBy != TestKind::ArrayConstant)
        ++RS->PairsTested;
    }

    // Optional trace: re-run the pipeline observationally — no stats,
    // no memoization — so the records show what each stage did without
    // perturbing the outcome above.
    if (TracePipeline) {
      PipelineTrace Trace;
      TracePipeline->run(Problem, {}, Opts.Cascade, /*Stats=*/nullptr,
                         &Trace);
      Pair.Trace = std::move(Trace);
    }
  }
  return Result;
}
