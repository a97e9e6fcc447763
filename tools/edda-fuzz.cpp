//===- tools/edda-fuzz.cpp - Differential fuzzer driver -------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded differential fuzzing of the dependence analysis stack:
///
///   edda-fuzz [options]
///
///   --seed N          base seed (default 1); a run is a pure function
///                     of the seed
///   --count N         iterations to run (default 5000 when no time
///                     budget is given)
///   --time-budget S   wall-clock budget in seconds
///   --check LIST      comma-separated axes to run: any of
///                     oracle,dirs,pipeline,widen,memo,incr,xform,
///                     width (default all)
///   --out DIR         write minimized reproducers into DIR
///   --no-widen        run every cascade 64-bit-only (the historical
///                     behavior); the widen axis becomes vacuous
///
/// Exit status 0 when every check passed, 1 on any mismatch. Failures
/// are delta-debugged into minimal .dep/.loop reproducers suitable for
/// tests/inputs/corpus/ (see docs/TESTING.md).
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

using namespace edda;
using namespace edda::fuzz;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--count N] [--time-budget SECONDS]\n"
      "          [--check "
      "oracle,dirs,pipeline,widen,memo,incr,xform,width]\n"
      "          [--out DIR] [--no-widen]\n",
      Prog);
  return 2;
}

bool parseChecks(const std::string &List, FuzzOptions &Opts) {
  Opts.CheckOracle = Opts.CheckDirs = Opts.CheckPipeline =
      Opts.CheckWiden = Opts.CheckMemo = Opts.CheckIncr =
          Opts.CheckXform = Opts.CheckWidth = false;
  std::istringstream In(List);
  std::string Tok;
  while (std::getline(In, Tok, ',')) {
    if (Tok == "oracle")
      Opts.CheckOracle = true;
    else if (Tok == "dirs")
      Opts.CheckDirs = true;
    else if (Tok == "pipeline")
      Opts.CheckPipeline = true;
    else if (Tok == "widen")
      Opts.CheckWiden = true;
    else if (Tok == "memo")
      Opts.CheckMemo = true;
    else if (Tok == "incr")
      Opts.CheckIncr = true;
    else if (Tok == "xform")
      Opts.CheckXform = true;
    else if (Tok == "width")
      Opts.CheckWidth = true;
    else {
      std::fprintf(stderr,
                   "edda-fuzz: unknown axis '%s' (valid: oracle, "
                   "dirs, pipeline, widen, memo, incr, xform, "
                   "width)\n",
                   Tok.c_str());
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "edda-fuzz: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    if (Arg == "--seed") {
      const char *V = NextValue("--seed");
      if (!V)
        return 2;
      Opts.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--count") {
      const char *V = NextValue("--count");
      if (!V)
        return 2;
      Opts.Count = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--time-budget") {
      const char *V = NextValue("--time-budget");
      if (!V)
        return 2;
      Opts.TimeBudgetSeconds = std::strtod(V, nullptr);
    } else if (Arg == "--check") {
      const char *V = NextValue("--check");
      if (!V || !parseChecks(V, Opts))
        return 2;
    } else if (Arg == "--out") {
      const char *V = NextValue("--out");
      if (!V)
        return 2;
      Opts.OutDir = V;
    } else if (Arg == "--no-widen") {
      Opts.Widen = false;
    } else if (Arg == "--inject-bug" ||
               Arg.rfind("--inject-bug=", 0) == 0) {
      // Hidden test hook: deliberately plant a known defect in the
      // computation under test, proving the fuzzer catches and shrinks
      // it (used by the test suite; not listed in --help output).
      // Bare --inject-bug keeps the historical mis-signed equation
      // constant; --inject-bug=NAME selects a variant.
      std::string Variant = Arg == "--inject-bug"
                                ? "negate-eq-const"
                                : Arg.substr(std::strlen("--inject-bug="));
      if (Variant == "negate-eq-const")
        Opts.Bug = InjectedBug::NegateEqConst;
      else if (Variant == "dir-prune-sign")
        Opts.Bug = InjectedBug::MisSignDirPrune;
      else if (Variant == "stale-fingerprint")
        Opts.Bug = InjectedBug::StaleFingerprint;
      else if (Variant == "fm-dark-shadow")
        Opts.Bug = InjectedBug::FmDarkShadow;
      else if (Variant == "skew-sign")
        Opts.Bug = InjectedBug::MisSignSkew;
      else {
        std::fprintf(stderr,
                     "edda-fuzz: unknown --inject-bug variant '%s' "
                     "(valid: negate-eq-const, dir-prune-sign, "
                     "stale-fingerprint, fm-dark-shadow, "
                     "skew-sign)\n",
                     Variant.c_str());
        return 2;
      }
    } else {
      return usage(Argv[0]);
    }
  }

  FuzzSummary S = runFuzz(Opts, &std::cerr);

  std::printf("edda-fuzz: seed %llu: %llu iterations (%llu problems, "
              "%llu programs), oracle conclusive on %llu, dirs "
              "conclusive on %llu, %llu program cache round-trip(s), "
              "%zu failure(s)\n",
              static_cast<unsigned long long>(Opts.Seed),
              static_cast<unsigned long long>(S.Iterations),
              static_cast<unsigned long long>(S.Problems),
              static_cast<unsigned long long>(S.Programs),
              static_cast<unsigned long long>(S.OracleConclusive),
              static_cast<unsigned long long>(S.DirsConclusive),
              static_cast<unsigned long long>(S.MemoRoundTrips),
              S.Failures.size());
  for (const FuzzFailure &F : S.Failures)
    std::printf("  [%s] iteration %llu: %s%s%s\n", fuzzAxisName(F.Axis),
                static_cast<unsigned long long>(F.Iteration),
                F.Detail.c_str(), F.Path.empty() ? "" : " -> ",
                F.Path.c_str());
  return S.ok() ? 0 : 1;
}
