//===- tests/integration/CorpusTest.cpp - .dep regression corpus ----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every problem file in tests/inputs/corpus/ through the cascade
/// and checks the verdict annotated on its first line:
///
///   # expect: <independent|dependent> <deciding test name>
///
/// New regression cases are added by dropping a .dep file in the
/// directory — no code change needed. Each case is additionally
/// cross-checked against the enumeration oracle when applicable, and
/// its witness verified.
///
/// .loop files in the same directory are whole-program reproducers
/// (typically minimized by edda-fuzz): each is replayed through the
/// analyzer along the fuzzer's differential axes — default vs. permuted
/// pipeline, cache save/load — and each analyzable
/// pair is cross-checked against the enumeration oracle.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/Builder.h"
#include "deptest/Cascade.h"
#include "deptest/Direction.h"
#include "deptest/ProblemIO.h"
#include "deptest/TestPipeline.h"
#include "fuzz/Fuzzer.h"
#include "oracle/Oracle.h"
#include "parser/Parser.h"
#include "gtest/gtest.h"

#include <cstdio>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef EDDA_CORPUS_DIR
#error "EDDA_CORPUS_DIR must be defined by the build"
#endif

using namespace edda;
using namespace edda::oracle;

namespace {

struct CorpusCase {
  std::string Path;
  std::string Text;
  DepAnswer Expected;
  std::string ExpectedDecider;
};

std::vector<CorpusCase> loadCorpus() {
  std::vector<CorpusCase> Cases;
  for (const auto &Entry :
       std::filesystem::directory_iterator(EDDA_CORPUS_DIR)) {
    if (Entry.path().extension() != ".dep")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    CorpusCase Case;
    Case.Path = Entry.path().filename().string();
    Case.Text = Buffer.str();

    // First line: "# expect: <answer> <decider>".
    std::istringstream Header(Case.Text);
    std::string Hash, ExpectWord, Answer;
    Header >> Hash >> ExpectWord >> Answer >> Case.ExpectedDecider;
    EXPECT_EQ(Hash, "#") << Case.Path;
    EXPECT_EQ(ExpectWord, "expect:") << Case.Path;
    if (Answer == "independent")
      Case.Expected = DepAnswer::Independent;
    else if (Answer == "dependent")
      Case.Expected = DepAnswer::Dependent;
    else
      ADD_FAILURE() << Case.Path << ": bad expectation '" << Answer
                    << "'";
    Cases.push_back(std::move(Case));
  }
  std::sort(Cases.begin(), Cases.end(),
            [](const CorpusCase &A, const CorpusCase &B) {
              return A.Path < B.Path;
            });
  return Cases;
}

} // namespace

TEST(Corpus, AllCasesDecideAsAnnotated) {
  std::vector<CorpusCase> Cases = loadCorpus();
  ASSERT_GE(Cases.size(), 10u) << "corpus missing?";
  for (const CorpusCase &Case : Cases) {
    SCOPED_TRACE(Case.Path);
    ProblemParseResult Parsed = parseProblemText(Case.Text);
    ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
    CascadeResult R = testDependence(*Parsed.Problem);
    EXPECT_EQ(R.Answer, Case.Expected);
    EXPECT_STREQ(testKindName(R.DecidedBy),
                 Case.ExpectedDecider.c_str());
    if (R.Answer == DepAnswer::Dependent && R.Witness)
      EXPECT_TRUE(verifyWitness(*Parsed.Problem, *R.Witness));

    // Oracle cross-check where enumeration applies.
    std::optional<bool> Truth = oracleDependent(*Parsed.Problem);
    if (Truth)
      EXPECT_EQ(*Truth, R.Answer == DepAnswer::Dependent);
  }
}

TEST(Corpus, FmCliffHierarchyDecidesExactlyInBudget) {
  // fm_cliff_hierarchy.dep is the PR-5 cost cliff: under the pre-Omega
  // FM core its direction hierarchy burned the entire default
  // refinement budget (~1M combines, over a minute of wall clock) and
  // conservatively star-filled. The exact core must decide the whole
  // hierarchy exactly under the same default budget — Exact preserved,
  // no all-'*' summary vector — in interactive time.
  std::ifstream In(std::filesystem::path(EDDA_CORPUS_DIR) /
                   "fm_cliff_hierarchy.dep");
  ASSERT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  ProblemParseResult Parsed = parseProblemText(Buffer.str());
  ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;

  DirectionOptions Opts; // Stock defaults, MaxRefineFmWork included.
  auto Start = std::chrono::steady_clock::now();
  DirectionResult R = computeDirectionVectors(*Parsed.Problem, Opts);
  auto Elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - Start);

  EXPECT_EQ(R.RootAnswer, DepAnswer::Dependent);
  EXPECT_TRUE(R.Exact) << "hierarchy fell back to a conservative summary";
  ASSERT_FALSE(R.Vectors.empty());
  for (const DirVector &V : R.Vectors) {
    bool AllStar = true;
    for (Dir D : V)
      AllStar &= D == Dir::Any;
    EXPECT_FALSE(AllStar) << "budget exhaustion star-fill resurfaced";
  }
  EXPECT_LT(R.TestStats.FmWork, Opts.MaxRefineFmWork)
      << "decided, but only by burning the whole refinement budget";
  // Generous for loaded CI machines; the cliff this guards against was
  // >60s, the fixed core runs in milliseconds.
  EXPECT_LT(Elapsed.count(), 20)
      << "FM cost cliff regressed to wall-clock pain";
}

TEST(Corpus, DepFilesPassDirectionChecks) {
  // The fuzzer's dirs axis, replayed over the pinned corpus: direction
  // vectors on every case must cover the oracle's concrete patterns, be
  // minimal when Exact, pin distances only when truly constant, and
  // agree across all elimination/pruning/separability combinations.
  // The dirs_*.dep reproducers were each minimized from a hierarchy bug
  // this check caught; they fail here when the fix is reverted.
  for (const CorpusCase &Case : loadCorpus()) {
    SCOPED_TRACE(Case.Path);
    ProblemParseResult Parsed = parseProblemText(Case.Text);
    ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
    std::optional<std::string> Mismatch =
        fuzz::checkDirections(*Parsed.Problem);
    EXPECT_FALSE(Mismatch.has_value()) << *Mismatch;
  }
}

TEST(Corpus, DepFilesSurviveCacheRoundTrip) {
  // The fuzzer's memo axis, replayed over the pinned corpus: a cache
  // save/load must preserve every answer (witnesses are not persisted).
  DependenceCache Before;
  std::vector<CorpusCase> Cases = loadCorpus();
  std::vector<DependenceProblem> Problems;
  for (const CorpusCase &Case : Cases) {
    ProblemParseResult Parsed = parseProblemText(Case.Text);
    ASSERT_TRUE(Parsed.succeeded()) << Case.Path;
    Problems.push_back(*Parsed.Problem);
    Before.insertFull(Problems.back(), testDependence(Problems.back()));
  }
  std::string Path = "corpus-memo-" + std::to_string(::getpid()) +
                     ".cache";
  ASSERT_TRUE(Before.saveToFile(Path));
  DependenceCache After;
  ASSERT_TRUE(After.loadFromFile(Path));
  std::remove(Path.c_str());
  for (size_t I = 0; I < Problems.size(); ++I) {
    SCOPED_TRACE(Cases[I].Path);
    std::optional<CascadeResult> Want = Before.lookupFull(Problems[I]);
    std::optional<CascadeResult> Got = After.lookupFull(Problems[I]);
    ASSERT_TRUE(Want.has_value());
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(Got->Answer, Want->Answer);
    EXPECT_EQ(Got->DecidedBy, Want->DecidedBy);
    EXPECT_EQ(Got->Exact, Want->Exact);
  }
}

namespace {

struct LoopCase {
  std::string Path;
  std::string Source;
};

std::vector<LoopCase> loadLoopCorpus() {
  std::vector<LoopCase> Cases;
  for (const auto &Entry :
       std::filesystem::directory_iterator(EDDA_CORPUS_DIR)) {
    if (Entry.path().extension() != ".loop")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Cases.push_back({Entry.path().filename().string(), Buffer.str()});
  }
  std::sort(Cases.begin(), Cases.end(),
            [](const LoopCase &A, const LoopCase &B) {
              return A.Path < B.Path;
            });
  return Cases;
}

/// Pairwise answer comparison. Cache provenance is not compared: after
/// a save/load, hitting the preloaded cache is the point.
void expectSameAnswers(const AnalysisResult &Want,
                       const AnalysisResult &Got) {
  ASSERT_EQ(Want.Pairs.size(), Got.Pairs.size());
  for (size_t I = 0; I < Want.Pairs.size(); ++I) {
    SCOPED_TRACE("pair " + std::to_string(I));
    EXPECT_EQ(Got.Pairs[I].RefA, Want.Pairs[I].RefA);
    EXPECT_EQ(Got.Pairs[I].RefB, Want.Pairs[I].RefB);
    EXPECT_EQ(Got.Pairs[I].Answer, Want.Pairs[I].Answer);
    EXPECT_EQ(Got.Pairs[I].DecidedBy, Want.Pairs[I].DecidedBy);
    EXPECT_EQ(Got.Pairs[I].Exact, Want.Pairs[I].Exact);
    ASSERT_EQ(Got.Pairs[I].Directions.has_value(),
              Want.Pairs[I].Directions.has_value());
    if (Want.Pairs[I].Directions) {
      EXPECT_EQ(Got.Pairs[I].Directions->Vectors,
                Want.Pairs[I].Directions->Vectors);
      EXPECT_EQ(Got.Pairs[I].Directions->Distances,
                Want.Pairs[I].Directions->Distances);
    }
  }
}

} // namespace

TEST(Corpus, LoopFilesReplayDifferentially) {
  std::vector<LoopCase> Cases = loadLoopCorpus();
  ASSERT_GE(Cases.size(), 1u) << ".loop corpus missing?";
  for (const LoopCase &Case : Cases) {
    SCOPED_TRACE(Case.Path);
    ParseResult Parsed = parseProgram(Case.Source);
    ASSERT_TRUE(Parsed.succeeded())
        << (Parsed.Diags.empty() ? "" : Parsed.Diags[0].str());

    AnalyzerOptions Serial;
    Serial.ComputeDirections = true;
    Program SerialCopy = *Parsed.Prog;
    DependenceAnalyzer SerialAnalyzer(Serial);
    AnalysisResult Want = SerialAnalyzer.analyze(SerialCopy);
    ASSERT_GT(Want.Pairs.size(), 0u);

    // Axis: permuted pipeline; decisive answers must agree (Unknown is
    // legitimately order-dependent).
    AnalyzerOptions Permuted = Serial;
    Permuted.ComputeDirections = false;
    Permuted.Cascade.Pipeline =
        makePipeline("fm,residue,acyclic,svpc,gcd,const");
    ASSERT_TRUE(Permuted.Cascade.Pipeline);
    Program PermutedCopy = *Parsed.Prog;
    DependenceAnalyzer PermutedAnalyzer(Permuted);
    AnalysisResult Perm = PermutedAnalyzer.analyze(PermutedCopy);
    ASSERT_EQ(Perm.Pairs.size(), Want.Pairs.size());
    for (size_t I = 0; I < Want.Pairs.size(); ++I)
      if (Want.Pairs[I].Answer != DepAnswer::Unknown &&
          Perm.Pairs[I].Answer != DepAnswer::Unknown)
        EXPECT_EQ(Perm.Pairs[I].Answer, Want.Pairs[I].Answer)
            << "pair " << I;

    // Axis: cache save/load, then re-analysis from the loaded cache.
    std::string Path = "corpus-loop-" + std::to_string(::getpid()) +
                       ".cache";
    ASSERT_TRUE(SerialAnalyzer.cache().saveToFile(Path));
    DependenceAnalyzer Reloaded(Serial);
    ASSERT_TRUE(Reloaded.cache().loadFromFile(Path));
    std::remove(Path.c_str());
    Program ReloadedCopy = *Parsed.Prog;
    expectSameAnswers(Want, Reloaded.analyze(ReloadedCopy));

    // Axis: per-pair enumeration oracle on the problems the analyzer
    // actually decided.
    for (const DependencePair &Pair : Want.Pairs) {
      if (Pair.Answer == DepAnswer::Unknown)
        continue;
      std::optional<BuiltProblem> Built = buildProblem(
          SerialCopy, Want.Refs[Pair.RefA], Want.Refs[Pair.RefB]);
      if (!Built || !Built->Exact)
        continue;
      std::optional<bool> Truth = oracleDependent(Built->Problem);
      if (Truth)
        EXPECT_EQ(*Truth, Pair.Answer == DepAnswer::Dependent)
            << refStr(SerialCopy, Want.Refs[Pair.RefA]) << " vs "
            << refStr(SerialCopy, Want.Refs[Pair.RefB]);
    }
  }
}

TEST(Corpus, RoundTripsThroughPrinter) {
  for (const CorpusCase &Case : loadCorpus()) {
    SCOPED_TRACE(Case.Path);
    ProblemParseResult Parsed = parseProblemText(Case.Text);
    ASSERT_TRUE(Parsed.succeeded());
    std::string Printed = printProblemText(*Parsed.Problem);
    ProblemParseResult Again = parseProblemText(Printed);
    ASSERT_TRUE(Again.succeeded()) << Printed;
    EXPECT_EQ(Again.Problem->serialize(true),
              Parsed.Problem->serialize(true));
  }
}
