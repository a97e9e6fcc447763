//===- tools/edda-cli.cpp - Command-line dependence analyzer --------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line driver: run the exact dependence analyzer over a
/// LoopLang source file.
///
///   edda-cli [options] file.loop
///
///   --directions        compute direction/distance vectors per pair
///   --graph             print the normalized dependence graph
///   --dot FILE          write the dependence graph in Graphviz form
///   --parallelize       mark and report parallel loops
///   --transforms        report legality of interchange, reversal,
///                       vectorization and distribution per loop
///   --print-optimized   print the program after the prepass
///   --no-prepass        analyze the program as written
///   --no-memo           disable memoization
///   --cache FILE        load/save the memo tables (persistence across
///                       compilations, the paper's section 5 extension)
///   --stats             print cascade decision statistics
///   --pipeline SPEC     select the dependence-test pipeline: a comma
///                       separated stage list ('gcd,svpc,fm'), a single
///                       stage ('banerjee'), or 'default' (the paper's
///                       cascade). Do not share --cache files across
///                       different pipelines.
///   --list-tests        print the registered test stages and exit
///   --explain           print a per-stage trace under every pair
///   --problem           treat the input as a raw dependence problem in
///                       the deptest/ProblemIO.h format and decide it
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/DependenceGraph.h"
#include "analysis/Parallelizer.h"
#include "analysis/Transforms.h"
#include "deptest/Direction.h"
#include "deptest/ProblemIO.h"
#include "parser/Parser.h"
#include "serve/Render.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

using namespace edda;

namespace {

struct CliOptions {
  bool Directions = false;
  bool Graph = false;
  std::string DotPath;
  bool Parallelize = false;
  bool Transforms = false;
  bool PrintOptimized = false;
  bool Prepass = true;
  bool Memo = true;
  bool Stats = false;
  bool RawProblem = false;
  bool ListTests = false;
  bool Explain = false;
  bool Widen = true;
  std::shared_ptr<const TestPipeline> Pipeline;
  std::string CachePath;
  std::string InputPath;
};

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [--directions] [--graph] [--dot FILE] [--parallelize]\n"
      "          [--print-optimized] [--no-prepass] [--no-memo]\n"
      "          [--cache FILE] [--stats]\n"
      "          [--pipeline SPEC] [--explain] [--no-widen] file.loop\n"
      "       %s --problem [--directions] file.dep\n"
      "       %s --list-tests\n",
      Prog, Prog, Prog);
  return 2;
}

/// Decides a raw dependence problem file (the ILP-library mode).
int runRawProblem(const CliOptions &Cli, const std::string &Source) {
  ProblemParseResult Parsed = parseProblemText(Source);
  if (!Parsed.succeeded()) {
    std::fprintf(stderr, "%s: %s\n", Cli.InputPath.c_str(),
                 Parsed.Error.c_str());
    return 1;
  }
  const DependenceProblem &P = *Parsed.Problem;

  CascadeOptions CascadeOpts;
  CascadeOpts.Pipeline = Cli.Pipeline;
  CascadeOpts.Widen = Cli.Widen;
  CascadeResult R = testDependence(P, CascadeOpts);
  std::optional<PipelineTrace> Trace;
  if (Cli.Explain) {
    const TestPipeline &Pipeline =
        Cli.Pipeline ? *Cli.Pipeline : TestPipeline::defaultPipeline();
    Trace.emplace();
    Pipeline.run(P, {}, CascadeOpts, /*Stats=*/nullptr, &*Trace);
  }
  std::optional<DirectionResult> Dirs;
  if (Cli.Directions && R.Answer != DepAnswer::Independent) {
    DirectionOptions DirOpts;
    DirOpts.Cascade = CascadeOpts;
    Dirs = computeDirectionVectors(P, DirOpts);
  }
  // The shared renderer keeps this report byte-identical to what
  // edda-serve answers for the same problem (the serving smoke diffs
  // the two).
  std::printf("%s", renderProblemReport(P, R, Dirs ? &*Dirs : nullptr,
                                        Trace ? &*Trace : nullptr)
                        .c_str());
  return 0;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--directions")
      Opts.Directions = true;
    else if (Arg == "--graph")
      Opts.Graph = true;
    else if (Arg == "--dot") {
      if (I + 1 >= Argc)
        return false;
      Opts.DotPath = Argv[++I];
    }
    else if (Arg == "--parallelize")
      Opts.Parallelize = true;
    else if (Arg == "--transforms")
      Opts.Transforms = true;
    else if (Arg == "--print-optimized")
      Opts.PrintOptimized = true;
    else if (Arg == "--no-prepass")
      Opts.Prepass = false;
    else if (Arg == "--no-memo")
      Opts.Memo = false;
    else if (Arg == "--stats")
      Opts.Stats = true;
    else if (Arg == "--problem")
      Opts.RawProblem = true;
    else if (Arg == "--list-tests")
      Opts.ListTests = true;
    else if (Arg == "--explain")
      Opts.Explain = true;
    else if (Arg == "--no-widen")
      Opts.Widen = false;
    else if (Arg == "--pipeline") {
      if (I + 1 >= Argc)
        return false;
      std::string Error;
      Opts.Pipeline = makePipeline(Argv[++I], &Error);
      if (!Opts.Pipeline) {
        std::fprintf(stderr, "bad --pipeline value: %s\n", Error.c_str());
        return false;
      }
    }
    else if (Arg == "--cache") {
      if (I + 1 >= Argc)
        return false;
      Opts.CachePath = Argv[++I];
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return false;
    } else if (Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      return false;
    }
  }
  return Opts.ListTests || !Opts.InputPath.empty();
}

int listTests() {
  std::printf("registered dependence tests (default pipeline: %s):\n",
              TestPipeline::defaultPipeline().spec().c_str());
  for (const DependenceTest *Stage : stageRegistry())
    std::printf("  %-9s %s%s\n", Stage->name(), Stage->description(),
                Stage->exact() ? "" : " [inexact]");
  return 0;
}

void printParallelReport(const Program &Prog,
                         const std::vector<StmtPtr> &Body,
                         unsigned Indent) {
  for (const StmtPtr &S : Body) {
    if (S->kind() != StmtKind::Loop)
      continue;
    const LoopStmt &L = asLoop(*S);
    std::printf("%*sfor %s: %s\n", Indent, "",
                Prog.var(L.varId()).Name.c_str(),
                L.isParallel() ? "PARALLEL" : "serial");
    printParallelReport(Prog, L.body(), Indent + 2);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli))
    return usage(Argv[0]);

  if (Cli.ListTests)
    return listTests();

  std::ifstream In(Cli.InputPath);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n",
                 Cli.InputPath.c_str());
    return 1;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::string Source = Buffer.str();

  if (Cli.RawProblem)
    return runRawProblem(Cli, Source);

  ParseResult Parsed = parseProgram(Source);
  if (!Parsed.succeeded()) {
    for (const Diagnostic &D : Parsed.Diags)
      std::fprintf(stderr, "%s:%s\n", Cli.InputPath.c_str(),
                   D.str().c_str());
    return 1;
  }
  Program Prog = std::move(*Parsed.Prog);

  AnalyzerOptions Opts;
  Opts.RunPrepass = Cli.Prepass;
  Opts.UseMemoization = Cli.Memo;
  Opts.ComputeDirections = Cli.Directions || Cli.Graph ||
                           Cli.Parallelize || Cli.Transforms ||
                           !Cli.DotPath.empty();
  Opts.Cascade.Pipeline = Cli.Pipeline;
  Opts.Cascade.Widen = Cli.Widen;
  Opts.Direction.Cascade.Pipeline = Cli.Pipeline;
  Opts.Direction.Cascade.Widen = Cli.Widen;
  Opts.Trace = Cli.Explain;
  DependenceAnalyzer Analyzer(Opts);

  if (!Cli.CachePath.empty()) {
    if (Analyzer.cache().loadFromFile(Cli.CachePath))
      std::printf("loaded dependence cache from %s (%llu entries)\n",
                  Cli.CachePath.c_str(),
                  static_cast<unsigned long long>(
                      Analyzer.cache().uniqueFull() +
                      Analyzer.cache().uniqueDirections()));
  }

  AnalysisResult Result = Analyzer.analyze(Prog);

  if (Cli.PrintOptimized)
    std::printf("%s\n", Prog.print().c_str());

  // Rendered by the same code edda-serve uses, so daemon answers stay
  // byte-identical to this report (the serving smoke relies on it).
  ReportOptions Report;
  Report.Directions = Cli.Directions;
  Report.Explain = Cli.Explain;
  std::printf("%s", renderAnalysisReport(Prog, Result, Report).c_str());

  if (Cli.Graph || !Cli.DotPath.empty()) {
    DependenceGraph Graph = DependenceGraph::build(Prog, Analyzer);
    if (Cli.Graph)
      std::printf("\ndependence graph:\n%s", Graph.str(Prog).c_str());
    if (!Cli.DotPath.empty()) {
      std::ofstream Dot(Cli.DotPath);
      if (Dot) {
        Dot << Graph.toDot(Prog);
        std::printf("wrote dependence graph to %s\n",
                    Cli.DotPath.c_str());
      } else {
        std::fprintf(stderr, "warning: cannot write '%s'\n",
                     Cli.DotPath.c_str());
      }
    }
  }

  if (Cli.Parallelize) {
    ParallelizeSummary Summary = parallelize(Prog, Analyzer);
    std::printf("\nparallel loops: %u of %u\n", Summary.LoopsParallel,
                Summary.LoopsTotal);
    printParallelReport(Prog, Prog.body(), 2);
  }

  if (Cli.Transforms) {
    DependenceGraph Graph = DependenceGraph::build(Prog, Analyzer);
    std::printf("\ntransformation legality:\n");
    std::function<void(const std::vector<StmtPtr> &, unsigned)> Walk =
        [&](const std::vector<StmtPtr> &Body, unsigned Indent) {
          for (const StmtPtr &S : Body) {
            if (S->kind() != StmtKind::Loop)
              continue;
            LoopStmt &L = asLoop(*S);
            DistributionPlan Plan = planDistribution(Graph, &L);
            std::printf(
                "%*sfor %s: parallelize %s, reverse %s, vectorize(4) "
                "%s, distributes into %zu group(s)\n",
                Indent, "", Prog.var(L.varId()).Name.c_str(),
                canParallelize(Graph, &L).Legal ? "yes" : "no",
                canReverse(Graph, &L).Legal ? "yes" : "no",
                canVectorize(Graph, &L, 4).Legal ? "yes" : "no",
                Plan.Groups.size());
            if (L.body().size() == 1 &&
                L.body()[0]->kind() == StmtKind::Loop) {
              LoopStmt &Inner = asLoop(*L.body()[0]);
              std::printf("%*s  interchange(%s, %s): %s\n", Indent, "",
                          Prog.var(L.varId()).Name.c_str(),
                          Prog.var(Inner.varId()).Name.c_str(),
                          canInterchange(Graph, &L, &Inner).Legal
                              ? "LEGAL"
                              : "illegal");
            }
            Walk(L.body(), Indent + 2);
          }
        };
    Walk(Prog.body(), 2);
  }

  if (Cli.Stats)
    std::printf("\n%s", Result.Stats.str().c_str());

  if (!Cli.CachePath.empty()) {
    if (Analyzer.cache().saveToFile(Cli.CachePath))
      std::printf("saved dependence cache to %s (%llu entries)\n",
                  Cli.CachePath.c_str(),
                  static_cast<unsigned long long>(
                      Analyzer.cache().uniqueFull() +
                      Analyzer.cache().uniqueDirections()));
    else
      std::fprintf(stderr, "warning: could not write cache '%s'\n",
                   Cli.CachePath.c_str());
  }
  return 0;
}
