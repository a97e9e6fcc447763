//===- fuzz/Fuzzer.h - Seeded differential fuzzer --------------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The edda-fuzz engine: generates random DependenceProblems and whole
/// LoopLang programs from a seed and cross-checks the analysis stack
/// along eight differential axes:
///
///   oracle    cascade verdict vs. brute-force enumeration (symbolic
///             problems via the sampled-concretization soundness check),
///             plus witness verification;
///   dirs      the Burke-Cytron direction/distance hierarchy vs. the
///             enumeration oracle: every concrete direction pattern
///             must be covered by a reported vector, Exact results must
///             also be minimal, pinned distances must equal the unique
///             concrete i'_k - i_k, and every EliminateUnusedVars /
///             DistanceVectorPruning / SeparableDimensions combination
///             must agree on decisive roots and pinned distances
///             (symbolic problems via sampled concretization, checked
///             in the sound direction only);
///   pipeline  default cascade vs. permuted stage pipelines — decisive
///             answers must agree (Unknown is order-dependent by
///             design: a consuming stage ends the pipeline);
///   widen     default cascade vs. --no-widen: when the 128-bit ladder
///             never fired the results must be bit-identical; when both
///             decide they must agree; answers only the widened run
///             produces are witness-verified or checked against the
///             enumeration oracle;
///   memo      cache save/load round-trips must preserve every cached
///             answer (including the Widened provenance bit), both
///             problem batches and whole-program caches;
///   incr      incremental re-analysis vs. from-scratch: a random edit
///             sequence (subscript/rhs modifications, bound tweaks,
///             statement insert/delete) is applied step by step to one
///             program held in an IncrementalSession, and after every
///             step the spliced dependence graph must render
///             bit-identically to a fresh analysis of the edited
///             program. Failures shrink both the edit sequence (greedy
///             subset minimization) and the program source;
///   xform     the transformation search vs. ground truth: every
///             perfect loop pair is skew-probed (the fresh direction
///             vectors must match the skewVector prediction), and a
///             small beam search must emit schedules whose claimed
///             parallel loops re-validate on a from-scratch analysis
///             and whose interpreter memory image matches the base
///             program's;
///   width     the width/coarsening client vs. the interpreter oracle:
///             per-loop vector widths and coarsening factors from
///             analyzeWidths must survive validateWidths — real carried
///             distances mined from the serial trace must respect every
///             claim, and chunked re-execution at each width W up to
///             the reported maximum (both lane orders) must be
///             memory-identical to the serial run.
///
/// Every run is a pure function of the seed: iteration i derives its
/// own SplitRng stream, so `--seed S` reproduces exactly and a failure
/// report names the iteration. Failures are delta-debugged (see
/// Shrink.h) into minimal `.dep`/`.loop` reproducers suitable for
/// tests/inputs/corpus/.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_FUZZ_FUZZER_H
#define EDDA_FUZZ_FUZZER_H

#include "fuzz/ProblemGen.h"
#include "oracle/Oracle.h"
#include "workload/Generator.h"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace edda {
namespace fuzz {

/// The differential axis a check (or failure) belongs to.
enum class FuzzAxis {
  Oracle,   ///< Cascade vs. enumeration / sampled concretization.
  Dirs,     ///< Direction/distance hierarchy vs. the oracle and its
            ///< own pruning option combinations.
  Pipeline, ///< Default vs. permuted stage orders.
  Widen,    ///< Widened cascade vs. the 64-bit-only cascade.
  Memo,     ///< Cache persistence round-trip.
  Incr,     ///< Incremental re-analysis vs. from-scratch graphs.
  Xform,    ///< Transformation search vs. fresh analysis, interpreter
            ///< and skew prediction audits.
  Width,    ///< Width/coarsening client vs. the chunked interpreter
            ///< oracle (analysis/Widths.h validateWidths).
  Parse,    ///< Generated program failed to parse or reprint stably.
};

const char *fuzzAxisName(FuzzAxis Axis);

/// Deliberate bugs injected between generation and the cascade under
/// test (the oracle always sees the original problem). Used to prove
/// the fuzzer catches and shrinks real mismatches; hidden behind the
/// --inject-bug flag.
enum class InjectedBug {
  None,
  NegateEqConst,  ///< Flips the sign of the first equation's constant —
                  ///< the classic transcription error in a subscript
                  ///< difference.
  MisSignDirPrune, ///< Flips the sign of every distance the GCD
                   ///< pruning pins (DirectionOptions hook; the plain
                   ///< cascade is untouched, so only the dirs axis can
                   ///< see it).
  StaleFingerprint, ///< Keys re-analysis reuse on the bounds-free
                    ///< reference fingerprints
                    ///< (AnalyzerOptions::InjectStaleFingerprint), so
                    ///< bound edits splice stale results — only the
                    ///< incr axis can see it.
  FmDarkShadow, ///< Shrinks Fourier-Motzkin's dark-shadow offset
                ///< (a-1)(c-1) by one
                ///< (FourierMotzkinOptions::InjectDarkShadowOffByOne),
                ///< so FM claims an integer point for systems only the
                ///< rational relaxation satisfies — the oracle axis
                ///< sees unsound Dependent answers whose witnesses
                ///< violate the problem.
  MisSignSkew, ///< Applies every skew with the opposite factor while
               ///< predicting with the requested one
               ///< (SearchOptions::InjectMisSignedSkew). The mis-signed
               ///< skew is still a valid order-preserving reindexing —
               ///< the interpreter cannot tell — so only the xform
               ///< axis's prediction audit can see it.
};

/// CLI spelling of \p Bug ("negate-eq-const"); nullptr for None.
const char *injectedBugName(InjectedBug Bug);

struct FuzzOptions {
  uint64_t Seed = 1;
  /// Iterations to run; 0 means until the time budget expires (or a
  /// default of 5000 iterations when no budget is set either).
  uint64_t Count = 0;
  /// Wall-clock budget in seconds; 0 disables.
  double TimeBudgetSeconds = 0;
  /// Directory for minimized reproducers; empty writes none.
  std::string OutDir;
  /// Which axes run (all by default; --check narrows).
  bool CheckOracle = true;
  bool CheckDirs = true;
  bool CheckPipeline = true;
  bool CheckWiden = true;
  bool CheckMemo = true;
  bool CheckIncr = true;
  bool CheckXform = true;
  bool CheckWidth = true;
  /// Edit-sequence length cap for the incr axis (each program
  /// iteration applies 1..MaxIncrEdits random edits).
  unsigned MaxIncrEdits = 4;
  /// Run every cascade under test with the 128-bit widening ladder
  /// enabled. False reproduces the historical 64-bit-only behavior on
  /// all axes (and makes the widen axis vacuous — there is nothing to
  /// differ against).
  bool Widen = true;
  /// Stop after this many failures.
  unsigned MaxFailures = 8;
  InjectedBug Bug = InjectedBug::None;
  FuzzProblemOptions Problem;
  RandomProgramOptions Program;
  /// Every Nth iteration generates a whole program instead of a bare
  /// problem (the whole-program memo axis needs programs).
  unsigned ProgramEvery = 8;
};

/// One confirmed, minimized mismatch.
struct FuzzFailure {
  FuzzAxis Axis = FuzzAxis::Oracle;
  uint64_t Iteration = 0;
  std::string Detail;     ///< Human-readable mismatch description.
  std::string Reproducer; ///< Minimized .dep / .loop text.
  bool IsProgram = false;
  std::string Path; ///< File written under OutDir (empty when none).
  /// Incr-axis failures: edits remaining after shrinking (the edit
  /// seeds are embedded in the reproducer's "# edda-fuzz-edits:" line).
  unsigned Edits = 0;
};

struct FuzzSummary {
  uint64_t Iterations = 0;
  uint64_t Problems = 0;
  uint64_t Programs = 0;
  /// Problem iterations where enumeration (or the sampled grid) was
  /// conclusive — the denominator of real oracle coverage.
  uint64_t OracleConclusive = 0;
  /// Same denominator for the direction/distance axis.
  uint64_t DirsConclusive = 0;
  /// Program iterations whose whole-program cache save/load/re-analyze
  /// round-trip ran (memo axis coverage).
  uint64_t MemoRoundTrips = 0;
  std::vector<FuzzFailure> Failures;

  bool ok() const { return Failures.empty(); }
};

/// Runs the fuzzer. Deterministic in Opts.Seed (iteration counts under
/// a pure time budget excepted). Progress lines go to \p Log when
/// non-null.
FuzzSummary runFuzz(const FuzzOptions &Opts, std::ostream *Log = nullptr);

/// The dirs axis on a single problem: runs computeDirectionVectors
/// under every EliminateUnusedVars / DistanceVectorPruning /
/// SeparableDimensions combination (with \p Bug perturbing only the
/// computation under test) and checks pairwise decisive-root and
/// pinned-distance agreement plus, when the enumeration oracle (or the
/// sampled symbolic grid) is conclusive on the honest problem, pattern
/// coverage, Exact-minimality and distance ground truth. Returns a
/// mismatch description, or nullopt when everything agrees; also the
/// shrink predicate for this axis. \p OracleConclusive reports whether
/// the oracle had jurisdiction.
std::optional<std::string>
checkDirections(const DependenceProblem &P, bool Widen = true,
                InjectedBug Bug = InjectedBug::None,
                const oracle::OracleOptions &OOpts = {},
                const oracle::SymbolicOracleOptions &SOpts = {},
                bool *OracleConclusive = nullptr);

} // namespace fuzz
} // namespace edda

#endif // EDDA_FUZZ_FUZZER_H
