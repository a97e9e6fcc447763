//===- analysis/Incremental.cpp - Edit-loop re-analysis sessions ----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"

#include <utility>

using namespace edda;

namespace {

AnalyzerOptions withDirections(AnalyzerOptions Opts) {
  Opts.ComputeDirections = true;
  return Opts;
}

} // namespace

IncrementalSession::IncrementalSession(AnalyzerOptions Opts)
    : Analyzer(withDirections(std::move(Opts))) {}

ReanalyzeStats IncrementalSession::update(Program NewProg) {
  ReanalyzeStats RS;
  if (!Current) {
    Current.emplace(std::move(NewProg));
    Result = Analyzer.analyze(*Current, &RS);
  } else {
    // Re-analyze against the previous result, then retire the previous
    // program: reuse reads only the fingerprints stored in Result.Refs,
    // never the old statement pointers, and moving a Program keeps its
    // statements' addresses stable (they are shared-pointer owned), so
    // the references in NewResult stay valid across the swap below.
    AnalysisResult NewResult = Analyzer.reanalyze(NewProg, Result, &RS);
    Analyzer.cache().invalidateFingerprints(RS.StaleKeys);
    Current.emplace(std::move(NewProg));
    Result = std::move(NewResult);
  }
  Graph = DependenceGraph::buildFromResult(Result);
  return RS;
}
