//===- perfbench/src/Compile.h - The compile op and its decomposition -----===//
//
// The compile op (edda-cli --directions semantics) shared by the
// perfect-batch and random-exact workloads and by serve-edit's
// from-scratch reference, plus the traced run's re-driven layers and
// the oracle check of one analyzed pair.
//
//===----------------------------------------------------------------------===//

#ifndef EDDA_PERFBENCH_COMPILE_H
#define EDDA_PERFBENCH_COMPILE_H

#include "Bench.h"

#include "analysis/Analyzer.h"
#include "ir/Program.h"

#include <map>
#include <optional>
#include <string>

namespace perfbench {

struct Compiled {
  /// The program after the prepass; Result's references point into it.
  std::optional<edda::Program> Prog;
  edda::AnalysisResult Result;
  std::string Report;
  size_t GraphEdges = 0;

  uint64_t digest() const;
};

/// parseProgram -> runPrepass -> fresh DependenceAnalyzer (directions)
/// -> DependenceGraph::buildFromResult -> renderAnalysisReport. Spans
/// go to \p T when it is non-null. False when the source does not parse.
bool compileSource(const std::string &Src, Compiled &Out, Tracer *T,
                   uint32_t Op);

/// Re-drives the layers inside analyze() on a fresh parse of \p Src:
/// the four prepass passes, collectReferences, buildProblem over the
/// analyzer's candidate pairs, and the memo/cascade/direction calls in
/// pair order. Records spans, returns "#name" counts, and describes the
/// first disagreement with \p C (pair counts, answers, memo hits) in
/// \p Mismatch.
std::map<std::string, double> redriveLayers(const std::string &Src,
                                            const Compiled &C, Tracer &T,
                                            uint32_t Op, std::string *Mismatch);

/// Holds pair \p K of \p C against the enumeration oracle. Sets
/// \p Conclusive when the oracle decided within its point cap, and
/// \p AssumedNonEmpty when the pair is a constant-subscript dependence
/// under a loop the analyzer assumes to execute (the paper's
/// convention) but that has no iterations.
std::optional<std::string> oracleCheckPair(const Compiled &C, size_t K,
                                           bool *Conclusive,
                                           bool *AssumedNonEmpty);

/// The per-layer metrics derived from compile-op spans and counts.
std::vector<Metric> compileLayerMetrics(const LayerTable &Layers,
                                        double GenerateMs);

} // namespace perfbench

#endif // EDDA_PERFBENCH_COMPILE_H
