//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Clock, span recorder, order statistics and the metric sink shared by
// the three workloads. Everything here lives in the benchmark, outside
// the program under test: spans are recorded around calls into the
// libraries' public functions.
//
//===----------------------------------------------------------------------===//

#ifndef EDDA_PERFBENCH_BENCH_H
#define EDDA_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: derives independent generator seeds from the workload
/// seed, so every input is a pure function of (workload, --seed).
inline uint64_t deriveSeed(uint64_t Seed, uint64_t Index) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Index + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// FNV-1a, for output digests.
inline uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

inline uint64_t mix(uint64_t H, uint64_t V) {
  return (H ^ V) * 1099511628211ull + 0x9e3779b97f4a7c15ull;
}

/// Linear-interpolation quantile (numpy's default), Q in [0, 1].
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Host-speed calibration. This host slows down in phases of a few
/// seconds, by up to 1.5x, and the slowdown follows allocation and
/// cache-bound work, not ALU work. A fixed kernel of that kind (hash
/// and tree inserts through malloc), run between timed ops, tracks it:
/// the ratio of a PERFECT compile to the kernel stays within a few
/// percent while each alone moves 20-50%. Timed values are reported
/// scaled by NominalMs / (median of the nearest kernel runs), i.e. in
/// milliseconds on a host where the kernel takes NominalMs.
///
/// The kernel runs on the calling thread: run on a helper thread (own
/// malloc arena, pinned or not) it tracked the slowdown about half as
/// well.
class Calibration {
public:
  static constexpr double NominalMs = 1.0;

  /// Runs the kernel once and records its time; returns it in ms.
  double run() {
    uint64_t T0 = nowNs();
    std::unordered_map<uint64_t, uint64_t> Hash;
    std::map<uint32_t, uint32_t> Tree;
    uint64_t X = 0x9e3779b97f4a7c15ull;
    for (uint32_t I = 0; I < 8000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Hash[X] = I;
      if (I < 3000)
        Tree[static_cast<uint32_t>(X >> 32)] = I;
    }
    Sink = Hash.size() + Tree.size();
    double Ms = static_cast<double>(nowNs() - T0) / 1e6;
    Samples.push_back(Ms);
    return Ms;
  }

  size_t count() const { return Samples.size(); }

  /// Scale factor for a value measured next to kernel run \p I:
  /// NominalMs over the median of the runs within Window of it. The
  /// window spans many ops, so no single op's after-effects (a cold
  /// cache, a fragmented heap) decide its own factor.
  double factorAt(size_t I) const {
    constexpr size_t Window = 10;
    size_t Lo = I >= Window ? I - Window : 0;
    return factorOver(Lo, std::min(Samples.size(), I + Window + 1));
  }

  /// Scale factor over kernel runs [From, To).
  double factorOver(size_t From, size_t To) const {
    std::vector<double> W(Samples.begin() + From, Samples.begin() + To);
    return NominalMs / median(W);
  }

private:
  std::vector<double> Samples;
  volatile size_t Sink = 0;
};

/// One recorded layer call. Parent is an index into the span list (-1
/// for a root); Op identifies the workload op the span belongs to.
struct Span {
  const char *Name;
  uint64_t Start;
  uint64_t End;
  int32_t Parent;
  uint32_t Op;
};

/// In-memory span recorder. Spans nest through RAII scopes; a disabled
/// tracer records nothing.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  class Scope {
  public:
    Scope(Tracer *T, const char *Name, uint32_t Op) : T(T) {
      if (!T || !T->Enabled)
        return;
      Index = static_cast<int32_t>(T->Spans.size());
      T->Spans.push_back({Name, 0, 0, T->Current, Op});
      T->Current = Index;
      T->Spans[Index].Start = nowNs();
    }
    ~Scope() {
      if (Index < 0)
        return;
      T->Spans[Index].End = nowNs();
      T->Current = T->Spans[Index].Parent;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int32_t Index = -1;
  };

  /// Records many short calls of one layer (one per pair, say) as a
  /// single span of their summed duration, starting at \p Start, so
  /// the span list stays per phase rather than per call.
  void addAggregate(const char *Name, uint64_t Start, uint64_t Ns,
                    uint64_t Calls, uint32_t Op) {
    if (!Enabled || Calls == 0)
      return;
    Spans.push_back({Name, Start, Start + Ns, Current, Op});
  }

  size_t mark() const { return Spans.size(); }

  /// Summed duration (ns) per span name over spans [From, end).
  std::map<std::string, double> totalsSince(size_t From) const {
    std::map<std::string, double> Out;
    for (size_t I = From; I < Spans.size(); ++I)
      Out[Spans[I].Name] += static_cast<double>(Spans[I].End - Spans[I].Start);
    return Out;
  }

  /// Self time: the span minus the part its direct children cover.
  double selfNs(size_t I) const {
    double Self = static_cast<double>(Spans[I].End - Spans[I].Start);
    for (size_t J = I + 1; J < Spans.size() && Spans[J].Start < Spans[I].End;
         ++J)
      if (Spans[J].Parent == static_cast<int32_t>(I))
        Self -= static_cast<double>(Spans[J].End - Spans[J].Start);
    return Self;
  }

  /// Writes every span as one JSON line, with its self time.
  bool writeJsonl(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (size_t I = 0; I < Spans.size(); ++I)
      std::fprintf(F,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%d,\"op\":%u,\"self_ns\":%.0f}\n",
                   I, Spans[I].Name,
                   static_cast<unsigned long long>(Spans[I].Start),
                   static_cast<unsigned long long>(Spans[I].End),
                   Spans[I].Parent, Spans[I].Op, selfNs(I));
    return std::fclose(F) == 0;
  }

private:
  bool Enabled;
  std::vector<Span> Spans;
  int32_t Current = -1;
};

/// Per-op history of per-execution layer totals: repeatable workloads
/// summarise each op by its median execution, then sum over ops.
class LayerTable {
public:
  explicit LayerTable(size_t NumOps) : PerOp(NumOps) {}

  void add(size_t Op, const std::map<std::string, double> &Values) {
    for (const auto &[Name, V] : Values)
      PerOp[Op][Name].push_back(V);
  }

  /// Sum over ops of the op's median value for \p Name.
  double sumOfMedians(const std::string &Name) const {
    double Sum = 0;
    for (const auto &Op : PerOp) {
      auto It = Op.find(Name);
      if (It != Op.end())
        Sum += median(It->second);
    }
    return Sum;
  }

private:
  std::vector<std::map<std::string, std::vector<double>>> PerOp;
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// What a workload reports back to main().
struct WorkloadResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Structural invariants of the run itself (coverage counts, repeat
  /// agreement); false makes the whole run incorrect.
  bool Consistent = true;
  /// Digest of the op list and of every checked answer, for the
  /// determinism self-test.
  uint64_t OpsDigest = 0;
  uint64_t AnswersDigest = 0;
  /// Peak RSS when the timed loop ended, before any check ran.
  double PeakRssMb = 0;
  std::vector<Metric> Metrics;
};

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// Command-line settings every workload sees.
struct RunConfig {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Caps the op list (0 = the workload's full list); the determinism
  /// self-test runs small.
  unsigned MaxOps = 0;
  /// Where the traced run writes its spans.
  std::string TracePath;
  uint64_t StartNs = 0;
};

WorkloadResult runPerfectBatch(const RunConfig &Cfg);
WorkloadResult runRandomExact(const RunConfig &Cfg);
WorkloadResult runServeEdit(const RunConfig &Cfg);

/// Prints one correctness mismatch to stderr.
void reportMismatch(const std::string &Where, const std::string &What);

} // namespace perfbench

#endif // EDDA_PERFBENCH_BENCH_H
