//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// edda-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--max-ops N] [--trace-out PATH]
//
// Runs one workload single-threaded and closed-loop, checks every timed
// op's output, and prints as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 is a separate run that records spans
// around each layer call and reports the per-layer metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace perfbench {

void reportMismatch(const std::string &Where, const std::string &What) {
  std::fprintf(stderr, "MISMATCH %s: %s\n", Where.c_str(), What.c_str());
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench

namespace {

/// Every per-layer metric, in report order. A workload that bypasses a
/// layer reports 0 for it (no time spent, no calls made).
const std::vector<std::pair<const char *, const char *>> PerLayer = {
    {"workload.generate_ms", "ms"},
    {"parser.parse_ms", "ms"},
    {"parser.mb_per_s", "MB/s"},
    {"opt.prepass_ms", "ms"},
    {"opt.fold_ms", "ms"},
    {"opt.scalar_prop_ms", "ms"},
    {"opt.normalize_ms", "ms"},
    {"opt.induction_ms", "ms"},
    {"analysis.refs_ms", "ms"},
    {"analysis.refs", "count"},
    {"analysis.analyze_ms", "ms"},
    {"analysis.pairs", "count"},
    {"analysis.build_ms", "ms"},
    {"analysis.analyze_self_ms", "ms"},
    {"analysis.graph_ms", "ms"},
    {"analysis.update_ms", "ms"},
    {"analysis.pairs_reused_pct", "%"},
    {"analysis.edit_over_scratch_pct", "%"},
    {"deptest.memo_ms", "ms"},
    {"deptest.memo_lookups", "count"},
    {"deptest.memo_hit_pct", "%"},
    {"deptest.cascade_ms", "ms"},
    {"deptest.cascade_calls", "count"},
    {"deptest.directions_ms", "ms"},
    {"deptest.direction_calls", "count"},
    {"deptest.decided.constant", "count"},
    {"deptest.decided.gcd", "count"},
    {"deptest.decided.svpc", "count"},
    {"deptest.decided.acyclic", "count"},
    {"deptest.decided.residue", "count"},
    {"deptest.decided.fm", "count"},
    {"deptest.decided.unanalyzable", "count"},
    {"deptest.exact_pct", "%"},
    {"serve.handle_ms", "ms"},
    {"serve.decode_ms", "ms"},
    {"serve.render_ms", "ms"},
    {"serve.handle_self_ms", "ms"},
    {"serve.request_kb", "KB"},
    {"serve.response_kb", "KB"},
    {"serve.stats_ms", "ms"},
    {"serve.hit_pct", "%"},
    {"serve.pairs_reused", "count/edit"},
    {"serve.pairs_invalidated", "count/edit"},
    {"serve.fm_work", "count"},
    {"trace.overhead_pct", "%"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: edda-perfbench --workload "
               "perfect-batch|random-exact|serve-edit --seed N --seconds S "
               "--trace 0|1 [--max-ops N] [--trace-out PATH]\n",
               Why);
  return 2;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  Cfg.StartNs = nowNs();
  std::string Workload;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Workload = V;
    } else if (A == "--seed") {
      Cfg.Seed = std::strtoull(V, &End, 10);
      HaveSeed = End && *End == '\0';
    } else if (A == "--seconds") {
      Cfg.Seconds = std::strtod(V, &End);
      HaveSeconds = End && *End == '\0' && Cfg.Seconds > 0;
    } else if (A == "--trace") {
      HaveTrace = !std::strcmp(V, "0") || !std::strcmp(V, "1");
      Cfg.Trace = !std::strcmp(V, "1");
    } else if (A == "--max-ops") {
      Cfg.MaxOps = static_cast<unsigned>(std::strtoul(V, &End, 10));
    } else if (A == "--trace-out") {
      Cfg.TracePath = V;
    } else {
      return usage(("unknown flag " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace are required");
  if (Cfg.TracePath.empty())
    Cfg.TracePath = "perfbench-trace-" + Workload + ".jsonl";

  WorkloadResult R;
  if (Workload == "perfect-batch")
    R = runPerfectBatch(Cfg);
  else if (Workload == "random-exact")
    R = runRandomExact(Cfg);
  else if (Workload == "serve-edit")
    R = runServeEdit(Cfg);
  else
    return usage(("unknown workload '" + Workload + "'").c_str());

  std::vector<Metric> Out;
  if (!Cfg.Trace) {
    Out = R.Metrics;
    Out.push_back({"peak_rss_mb", R.PeakRssMb, "MB"});
    Out.push_back({"ok_pct",
                   R.Attempted ? 100.0 * static_cast<double>(R.Attempted - R.Failed) /
                                     static_cast<double>(R.Attempted)
                               : 0,
                   "%"});
  } else {
    for (const auto &[Name, Unit] : PerLayer) {
      double Value = 0;
      for (const Metric &M : R.Metrics)
        if (M.Name == Name) {
          if (M.Unit != Unit)
            std::fprintf(stderr, "internal error: %s has unit %s, not %s\n",
                         Name, M.Unit.c_str(), Unit);
          Value = M.Value;
        }
      Out.push_back({Name, Value, Unit});
    }
  }

  std::printf("digest ops=%016llx answers=%016llx\n",
              static_cast<unsigned long long>(R.OpsDigest),
              static_cast<unsigned long long>(R.AnswersDigest));
  bool Correct = R.Consistent && R.Failed == 0 && R.Attempted > 0;
  std::string Json = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I)
    Json += (I ? ", \"" : "\"") + Out[I].Name + "\": {\"value\": " +
            jsonNumber(Out[I].Value) + ", \"unit\": \"" + Out[I].Unit + "\"}";
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
