//===- tests/analysis/PairOrderTest.cpp - Candidate pair order ------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Holds the analyzer's candidate-pair enumeration to the canonical
/// all-pairs order: every (I, J) with I <= J over the reference list,
/// same array, at least one side a write, in ascending (I, J). Result
/// pair order feeds reports, graphs, the order of memo lookups and
/// re-analysis reuse, so the enumeration may get faster but never
/// reorder, drop or add a pair. Checked on the PERFECT suite, random
/// programs and a many-array program, for analyze and for reanalyze
/// after an edit.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "parser/Parser.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <string>
#include <utility>
#include <vector>

using namespace edda;

namespace {

using PairList = std::vector<std::pair<unsigned, unsigned>>;

/// The reference enumerator: the plain R^2 scan over \p Refs.
PairList naivePairs(const std::vector<ArrayReference> &Refs) {
  PairList Out;
  for (unsigned I = 0; I < Refs.size(); ++I)
    for (unsigned J = I; J < Refs.size(); ++J)
      if (Refs[I].ArrayId == Refs[J].ArrayId &&
          (Refs[I].IsWrite || Refs[J].IsWrite))
        Out.emplace_back(I, J);
  return Out;
}

void expectCanonicalOrder(const AnalysisResult &R, const std::string &What) {
  PairList Expected = naivePairs(R.Refs);
  PairList Got;
  Got.reserve(R.Pairs.size());
  for (const DependencePair &P : R.Pairs)
    Got.emplace_back(P.RefA, P.RefB);
  EXPECT_EQ(R.PairsConsidered, Expected.size()) << What;
  EXPECT_TRUE(Got == Expected) << What << ": " << Got.size() << " pairs vs "
                               << Expected.size() << " expected";
}

Program parse(const std::string &Source) {
  ParseResult PR = parseProgram(Source);
  EXPECT_TRUE(PR.succeeded()) << Source;
  return std::move(*PR.Prog);
}

/// Analyzes \p Source from scratch, then applies one seeded random edit
/// and re-analyzes against the first result; both results must
/// enumerate pairs in canonical order.
void checkSource(const std::string &Source, uint64_t EditSeed,
                 const std::string &What) {
  DependenceAnalyzer Analyzer;

  Program Base = parse(Source);
  Program Master(Base);
  AnalysisResult Before = Analyzer.analyze(Base);
  expectCanonicalOrder(Before, What + " analyze");

  SplitRng Rng(EditSeed);
  std::string Desc = applyRandomEdit(Master, Rng);
  Program Edited = parse(Master.print());
  AnalysisResult After = Analyzer.reanalyze(Edited, Before);
  expectCanonicalOrder(After, What + " reanalyze after " + Desc);
}

/// Many arrays, refs of each array spread over many statements and
/// nests, read-only arrays, write-only arrays and arrays written twice
/// in one statement's neighbourhood: buckets interleave in every way.
std::string manyArraySource() {
  const unsigned NumArrays = 11;
  std::string S = "program interleaved\n";
  for (unsigned A = 0; A < NumArrays; ++A)
    S += "  array x" + std::to_string(A) + "[200]\n";
  S += "  array m[20][20]\n";
  for (unsigned Nest = 0; Nest < 4; ++Nest) {
    S += "  for i = 1 to 10 do\n";
    for (unsigned K = 0; K < 5; ++K) {
      unsigned W = (Nest * 5 + K * 3) % NumArrays;
      unsigned R1 = (W + 4) % NumArrays;
      unsigned R2 = (W * 7 + Nest) % NumArrays;
      // x10 is never written: a read-only bucket.
      if (W == NumArrays - 1)
        W = 0;
      S += "    x" + std::to_string(W) + "[i + " + std::to_string(K) +
           "] = x" + std::to_string(R1) + "[2 * i] + x" +
           std::to_string(R2) + "[i + " + std::to_string(Nest) + "]\n";
    }
    S += "    for j = 1 to 10 do\n";
    S += "      m[i][j] = m[j][i] + x" + std::to_string(Nest) + "[j] + x" +
         std::to_string(NumArrays - 1) + "[i + j]\n";
    S += "    end\n";
    S += "  end\n";
  }
  S += "end\n";
  return S;
}

} // namespace

TEST(PairOrder, PerfectSuiteScaleOne) {
  GeneratorOptions GO;
  GO.Scale = 1.0;
  uint64_t Seed = 1;
  for (const auto &[Name, Source] : generatePerfectClubSuite(GO))
    checkSource(Source, Seed++, Name);
}

TEST(PairOrder, RandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    SplitRng Rng(Seed);
    checkSource(generateRandomProgram(Rng), Seed * 31 + 7,
                "random seed " + std::to_string(Seed));
  }
}

TEST(PairOrder, ManyArraysInterleaved) {
  std::string Source = manyArraySource();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    checkSource(Source, Seed, "interleaved edit seed " + std::to_string(Seed));

  // The many-array program really exercises several buckets.
  Program P = parse(Source);
  DependenceAnalyzer Analyzer;
  AnalysisResult R = Analyzer.analyze(P);
  EXPECT_GT(R.Pairs.size(), 100u);
  EXPECT_LT(R.Pairs.size(), R.Refs.size() * (R.Refs.size() + 1) / 2 / 4);
}
