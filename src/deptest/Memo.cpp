//===- deptest/Memo.cpp - Memoization of dependence tests -----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "deptest/Memo.h"

#include "support/Hashing.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>

using namespace edda;

size_t DependenceCache::KeyHash::operator()(
    const std::vector<int64_t> &Key) const {
  uint64_t H = Kind == MemoHashKind::PaperLiteral ? paperHash(Key)
                                                  : hashVector(Key);
  return static_cast<size_t>(H);
}

namespace {

unsigned roundUpPow2(unsigned N) {
  unsigned P = 1;
  while (P < N && P < (1u << 16))
    P <<= 1;
  return P;
}

} // namespace

DependenceCache::DependenceCache(MemoOptions Opts) : Opts(Opts) {
  unsigned Count = roundUpPow2(std::max(1u, Opts.Shards));
  Shards.reserve(Count);
  for (unsigned I = 0; I < Count; ++I)
    Shards.push_back(std::make_unique<Shard>(Opts.Hash));
}

DependenceCache::Shard &DependenceCache::shardFor(const Key &K) {
  // Shard selection reuses the table's own memo hash; the per-shard
  // unordered_map re-hashes with the same function, which is harmless
  // (shard index uses the low bits as a prefix, the map the rest).
  uint64_t H = KeyHash{Opts.Hash}(K);
  return *Shards[H & (Shards.size() - 1)];
}

std::vector<int64_t>
DependenceCache::keyFor(const DependenceProblem &P, bool IncludeBounds,
                        bool &Swapped) const {
  Swapped = false;
  const DependenceProblem *Work = &P;
  DependenceProblem Reduced;
  if (Opts.ImprovedKey) {
    std::vector<std::optional<unsigned>> CommonMap;
    Reduced = P.withUnusedLoopsRemoved(CommonMap);
    Work = &Reduced;
  }
  DependenceProblem Sorted;
  if (Opts.CanonicalizeEquations) {
    Sorted = *Work;
    std::sort(Sorted.Equations.begin(), Sorted.Equations.end(),
              [](const XAffine &A, const XAffine &B) {
                if (A.Coeffs != B.Coeffs)
                  return A.Coeffs < B.Coeffs;
                return A.Const < B.Const;
              });
    Work = &Sorted;
  }
  std::vector<int64_t> Key = Work->serialize(IncludeBounds);
  if (Opts.SymmetricKey) {
    DependenceProblem SwappedProblem = Work->swapped();
    if (Opts.CanonicalizeEquations)
      std::sort(SwappedProblem.Equations.begin(),
                SwappedProblem.Equations.end(),
                [](const XAffine &A, const XAffine &B) {
                  if (A.Coeffs != B.Coeffs)
                    return A.Coeffs < B.Coeffs;
                  return A.Const < B.Const;
                });
    std::vector<int64_t> SwappedKey =
        SwappedProblem.serialize(IncludeBounds);
    if (SwappedKey < Key) {
      Key = std::move(SwappedKey);
      Swapped = true;
    }
  }
  return Key;
}

std::optional<CascadeResult>
DependenceCache::lookupFull(const DependenceProblem &P) {
  FullQueries.fetch_add(1, std::memory_order_relaxed);
  bool Swapped;
  Key K = keyFor(P, /*IncludeBounds=*/true, Swapped);
  Shard &S = shardFor(K);
  CascadeResult R;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Full.find(K);
    if (It == S.Full.end())
      return std::nullopt;
    R = It->second;
    if (Opts.TrackRecency)
      S.FullUse[K] = UseTick.fetch_add(1, std::memory_order_relaxed);
  }
  FullHits.fetch_add(1, std::memory_order_relaxed);
  if (Swapped && R.Witness)
    R.Witness = swapWitness(*R.Witness, P.NumLoopsB, P.NumLoopsA);
  return R;
}

void DependenceCache::insertFull(const DependenceProblem &P,
                                 const CascadeResult &R, uint64_t Tag) {
  bool Swapped;
  Key K = keyFor(P, /*IncludeBounds=*/true, Swapped);
  CascadeResult Stored = R;
  if (Swapped && Stored.Witness)
    Stored.Witness = swapWitness(*Stored.Witness, P.NumLoopsA,
                                 P.NumLoopsB);
  // Improved-key witnesses live in the reduced x space; dropping them is
  // simpler than remembering the removal map and stays correct (the
  // qualitative answer is what the cache is for).
  if (Opts.ImprovedKey)
    Stored.Witness.reset();
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if (Opts.TrackRecency)
    S.FullUse[K] = UseTick.fetch_add(1, std::memory_order_relaxed);
  // emplace keeps the first entry on a duplicate key, so concurrent
  // inserters of the same problem converge on one canonical entry. The
  // tag follows the same discipline: it labels the entry that won.
  auto Res = S.Full.emplace(std::move(K), std::move(Stored));
  if (Res.second && Tag != 0)
    S.FullTag.emplace(Res.first->first, Tag);
}

std::optional<DirectionResult>
DependenceCache::lookupDirections(const DependenceProblem &P) {
  DirQueries.fetch_add(1, std::memory_order_relaxed);
  bool Swapped;
  Key K = keyFor(P, /*IncludeBounds=*/true, Swapped);
  Shard &S = shardFor(K);
  DirectionResult R;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Directions.find(K);
    if (It == S.Directions.end())
      return std::nullopt;
    R = It->second;
    if (Opts.TrackRecency)
      S.DirUse[K] = UseTick.fetch_add(1, std::memory_order_relaxed);
  }
  DirHits.fetch_add(1, std::memory_order_relaxed);
  if (Swapped)
    R = reverseDirections(R);
  if (!Opts.ImprovedKey)
    return R;
  // Improved-key entries are stored in the reduced problem's common-loop
  // coordinates; expand to this caller's loops, '*' for removed ones.
  std::vector<std::optional<unsigned>> CommonMap;
  (void)P.withUnusedLoopsRemoved(CommonMap);
  DirectionResult Expanded = R;
  Expanded.Distances.assign(P.NumCommon, std::nullopt);
  Expanded.Vectors.clear();
  for (unsigned C = 0; C < P.NumCommon; ++C)
    if (CommonMap[C] && *CommonMap[C] < R.Distances.size())
      Expanded.Distances[C] = R.Distances[*CommonMap[C]];
  for (const DirVector &V : R.Vectors) {
    DirVector Mapped(P.NumCommon, Dir::Any);
    for (unsigned C = 0; C < P.NumCommon; ++C)
      if (CommonMap[C] && *CommonMap[C] < V.size())
        Mapped[C] = V[*CommonMap[C]];
    Expanded.Vectors.push_back(std::move(Mapped));
  }
  return Expanded;
}

void DependenceCache::insertDirections(const DependenceProblem &P,
                                       const DirectionResult &R,
                                       uint64_t Tag) {
  bool Swapped;
  Key K = keyFor(P, /*IncludeBounds=*/true, Swapped);
  DirectionResult Stored = R;
  if (Opts.ImprovedKey) {
    // Shrink to the reduced problem's coordinates so entries are
    // independent of the surrounding unused loops.
    std::vector<std::optional<unsigned>> CommonMap;
    DependenceProblem Reduced = P.withUnusedLoopsRemoved(CommonMap);
    DirectionResult Shrunk = R;
    Shrunk.Distances.assign(Reduced.NumCommon, std::nullopt);
    Shrunk.Vectors.clear();
    for (unsigned C = 0; C < P.NumCommon; ++C)
      if (CommonMap[C] && C < R.Distances.size())
        Shrunk.Distances[*CommonMap[C]] = R.Distances[C];
    for (const DirVector &V : R.Vectors) {
      DirVector Small(Reduced.NumCommon, Dir::Any);
      for (unsigned C = 0; C < P.NumCommon; ++C)
        if (CommonMap[C] && C < V.size())
          Small[*CommonMap[C]] = V[C];
      Shrunk.Vectors.push_back(std::move(Small));
    }
    Stored = std::move(Shrunk);
  }
  if (Swapped)
    Stored = reverseDirections(Stored);
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if (Opts.TrackRecency)
    S.DirUse[K] = UseTick.fetch_add(1, std::memory_order_relaxed);
  auto Res = S.Directions.emplace(std::move(K), std::move(Stored));
  if (Res.second && Tag != 0)
    S.DirTag.emplace(Res.first->first, Tag);
}

uint64_t DependenceCache::invalidateFingerprints(
    const std::vector<uint64_t> &Tags) {
  if (Tags.empty())
    return 0;
  std::unordered_set<uint64_t> Stale(Tags.begin(), Tags.end());
  uint64_t Removed = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    for (auto It = S->FullTag.begin(); It != S->FullTag.end();) {
      if (Stale.count(It->second)) {
        Removed += S->Full.erase(It->first);
        S->FullUse.erase(It->first);
        It = S->FullTag.erase(It);
      } else {
        ++It;
      }
    }
    for (auto It = S->DirTag.begin(); It != S->DirTag.end();) {
      if (Stale.count(It->second)) {
        Removed += S->Directions.erase(It->first);
        S->DirUse.erase(It->first);
        It = S->DirTag.erase(It);
      } else {
        ++It;
      }
    }
  }
  return Removed;
}

std::optional<bool>
DependenceCache::lookupGcdSolvable(const DependenceProblem &P) {
  GcdQueries.fetch_add(1, std::memory_order_relaxed);
  bool Swapped;
  Key K = keyFor(P, /*IncludeBounds=*/false, Swapped);
  Shard &S = shardFor(K);
  bool Solvable;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Gcd.find(K);
    if (It == S.Gcd.end())
      return std::nullopt;
    Solvable = It->second;
  }
  GcdHits.fetch_add(1, std::memory_order_relaxed);
  return Solvable;
}

void DependenceCache::insertGcdSolvable(const DependenceProblem &P,
                                        bool Solvable) {
  bool Swapped;
  Key K = keyFor(P, /*IncludeBounds=*/false, Swapped);
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Gcd.emplace(std::move(K), Solvable);
}

uint64_t DependenceCache::uniqueFull() const {
  uint64_t Total = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Total += S->Full.size();
  }
  return Total;
}

uint64_t DependenceCache::uniqueDirections() const {
  uint64_t Total = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Total += S->Directions.size();
  }
  return Total;
}

uint64_t DependenceCache::uniqueNoBounds() const {
  uint64_t Total = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Total += S->Gcd.size();
  }
  return Total;
}

uint64_t DependenceCache::evictOldest(uint64_t TargetEntries) {
  // Collect (stamp, shard, table, key) triples under the shard locks,
  // pick victims oldest-first, then delete them. Entries inserted
  // between the scan and the delete are never victims (they are not
  // in the scan), so a racing insert is at worst briefly over budget.
  struct Victim {
    uint64_t Stamp;
    unsigned ShardIdx;
    bool InDirections;
    Key K;
  };
  std::vector<Victim> All;
  uint64_t Total = 0;
  for (unsigned I = 0; I < Shards.size(); ++I) {
    Shard &S = *Shards[I];
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Total += S.Full.size() + S.Directions.size();
    for (const auto &[K, R] : S.Full) {
      auto It = S.FullUse.find(K);
      All.push_back({It == S.FullUse.end() ? 0 : It->second, I, false, K});
    }
    for (const auto &[K, R] : S.Directions) {
      auto It = S.DirUse.find(K);
      All.push_back({It == S.DirUse.end() ? 0 : It->second, I, true, K});
    }
  }
  if (Total <= TargetEntries)
    return 0;
  uint64_t ToEvict = Total - TargetEntries;
  // Oldest stamps first; full sort is fine at checkpoint frequency.
  std::sort(All.begin(), All.end(), [](const Victim &A, const Victim &B) {
    return A.Stamp < B.Stamp;
  });
  uint64_t Evicted = 0;
  for (const Victim &V : All) {
    if (Evicted >= ToEvict)
      break;
    Shard &S = *Shards[V.ShardIdx];
    std::lock_guard<std::mutex> Lock(S.Mutex);
    if (V.InDirections) {
      Evicted += S.Directions.erase(V.K);
      S.DirUse.erase(V.K);
      S.DirTag.erase(V.K);
    } else {
      Evicted += S.Full.erase(V.K);
      S.FullUse.erase(V.K);
      S.FullTag.erase(V.K);
    }
  }
  return Evicted;
}

void DependenceCache::clear() {
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    S->Full.clear();
    S->Directions.clear();
    S->Gcd.clear();
    S->FullUse.clear();
    S->DirUse.clear();
    S->FullTag.clear();
    S->DirTag.clear();
  }
  FullQueries = FullHits = DirQueries = DirHits = 0;
  GcdQueries = GcdHits = 0;
}

DirectionResult edda::reverseDirections(const DirectionResult &R) {
  DirectionResult Out = R;
  for (DirVector &V : Out.Vectors)
    for (Dir &D : V) {
      if (D == Dir::Less)
        D = Dir::Greater;
      else if (D == Dir::Greater)
        D = Dir::Less;
    }
  for (std::optional<int64_t> &Dist : Out.Distances)
    if (Dist)
      *Dist = -*Dist;
  return Out;
}

std::vector<int64_t> edda::swapWitness(const std::vector<int64_t> &X,
                                       unsigned NumLoopsA,
                                       unsigned NumLoopsB) {
  // Input layout [A|B|sym] with |A| = NumLoopsA; output [B|A|sym].
  std::vector<int64_t> Out;
  Out.reserve(X.size());
  Out.insert(Out.end(), X.begin() + NumLoopsA,
             X.begin() + NumLoopsA + NumLoopsB);
  Out.insert(Out.end(), X.begin(), X.begin() + NumLoopsA);
  Out.insert(Out.end(), X.begin() + NumLoopsA + NumLoopsB, X.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//

namespace {

void writeVector(std::ostream &Out, const std::vector<int64_t> &V) {
  Out << V.size();
  for (int64_t X : V)
    Out << " " << X;
  Out << "\n";
}

bool readVector(std::istream &In, std::vector<int64_t> &V) {
  size_t Size;
  if (!(In >> Size) || Size > (1u << 20))
    return false;
  V.resize(Size);
  for (size_t I = 0; I < Size; ++I)
    if (!(In >> V[I]))
      return false;
  return true;
}

} // namespace

bool DependenceCache::saveToFile(const std::string &Path) const {
  // Serialize each table shard-by-shard under that shard's lock into
  // a memory buffer first: the entry counts written ahead of each
  // section must match the entries that follow even while analyzer
  // threads are inserting concurrently (entries themselves are
  // immutable once inserted, so a per-shard-atomic snapshot is a
  // valid cache).
  std::ostringstream FullBlob;
  size_t FullCount = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    FullCount += S->Full.size();
    for (const auto &[K, R] : S->Full) {
      auto TagIt = S->FullTag.find(K);
      uint64_t Tag = TagIt == S->FullTag.end() ? 0 : TagIt->second;
      writeVector(FullBlob, K);
      FullBlob << static_cast<int>(R.Answer) << " "
               << static_cast<int>(R.DecidedBy) << " "
               << (R.Exact ? 1 : 0) << " " << (R.Widened ? 1 : 0) << " "
               << Tag << "\n";
    }
  }
  std::ostringstream DirBlob;
  size_t DirCount = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    DirCount += S->Directions.size();
    for (const auto &[K, R] : S->Directions) {
      auto TagIt = S->DirTag.find(K);
      uint64_t Tag = TagIt == S->DirTag.end() ? 0 : TagIt->second;
      writeVector(DirBlob, K);
      DirBlob << static_cast<int>(R.RootAnswer) << " "
              << static_cast<int>(R.RootDecidedBy) << " "
              << (R.Exact ? 1 : 0) << " " << (R.Widened ? 1 : 0) << " "
              << (R.RootWidened ? 1 : 0) << " " << Tag << " "
              << R.Vectors.size() << " " << R.Distances.size() << "\n";
      for (const DirVector &V : R.Vectors) {
        DirBlob << V.size();
        for (Dir D : V)
          DirBlob << " " << static_cast<int>(D);
        DirBlob << "\n";
      }
      for (const std::optional<int64_t> &Dist : R.Distances) {
        if (Dist)
          DirBlob << "d " << *Dist << "\n";
        else
          DirBlob << "u\n";
      }
    }
  }
  std::ostringstream GcdBlob;
  size_t GcdCount = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    GcdCount += S->Gcd.size();
    for (const auto &[K, Solvable] : S->Gcd) {
      writeVector(GcdBlob, K);
      GcdBlob << (Solvable ? 1 : 0) << "\n";
    }
  }

  std::ofstream Out(Path);
  if (!Out)
    return false;
  // Version 3: TestKind gained Banerjee before Unanalyzable, changing
  // the DecidedBy integer encoding. Version 4: full entries carry the
  // Widened flag (128-bit retry provenance). Version 5: direction
  // entries carry Widened/RootWidened. Version 6: full and direction
  // entries carry a fingerprint tag (incremental invalidation). Any
  // other version is rejected on its header; CacheLoadStats reports the
  // version the file declared.
  Out << "edda-depcache " << FileVersion << "\n";
  Out << FullCount << "\n" << FullBlob.str();
  Out << DirCount << "\n" << DirBlob.str();
  Out << GcdCount << "\n" << GcdBlob.str();
  return static_cast<bool>(Out);
}

bool DependenceCache::loadFromFile(const std::string &Path) {
  return loadFromFile(Path, nullptr);
}

bool DependenceCache::loadFromFile(const std::string &Path,
                                   CacheLoadStats *LoadStats) {
  if (LoadStats)
    *LoadStats = CacheLoadStats{};
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Magic;
  int Version;
  if (!(In >> Magic >> Version) || Magic != "edda-depcache")
    return false;
  if (LoadStats)
    LoadStats->FileVersion = Version;
  if (Version != FileVersion)
    return false;

  uint64_t Loaded = 0;
  size_t Count;
  if (!(In >> Count))
    return false;
  for (size_t I = 0; I < Count; ++I) {
    Key K;
    int Answer, DecidedBy, Exact, Widened;
    uint64_t Tag;
    if (!readVector(In, K) ||
        !(In >> Answer >> DecidedBy >> Exact >> Widened >> Tag))
      return false;
    CascadeResult R;
    R.Answer = static_cast<DepAnswer>(Answer);
    R.DecidedBy = static_cast<TestKind>(DecidedBy);
    R.Exact = Exact != 0;
    R.Widened = Widened != 0;
    Shard &S = shardFor(K);
    auto Res = S.Full.emplace(std::move(K), std::move(R));
    if (Res.second && Tag != 0)
      S.FullTag.emplace(Res.first->first, Tag);
    ++Loaded;
  }

  if (!(In >> Count))
    return false;
  for (size_t I = 0; I < Count; ++I) {
    Key K;
    int Root, RootBy, Exact, Widened, RootWidened;
    uint64_t Tag;
    size_t NumVectors, NumDistances;
    if (!readVector(In, K) ||
        !(In >> Root >> RootBy >> Exact >> Widened >> RootWidened >>
          Tag >> NumVectors >> NumDistances) ||
        NumVectors > (1u << 20) || NumDistances > (1u << 10))
      return false;
    DirectionResult R;
    R.RootAnswer = static_cast<DepAnswer>(Root);
    R.RootDecidedBy = static_cast<TestKind>(RootBy);
    R.Exact = Exact != 0;
    R.Widened = Widened != 0;
    R.RootWidened = RootWidened != 0;
    for (size_t V = 0; V < NumVectors; ++V) {
      size_t Len;
      if (!(In >> Len) || Len > (1u << 10))
        return false;
      DirVector Vec(Len);
      for (size_t D = 0; D < Len; ++D) {
        int Raw;
        if (!(In >> Raw))
          return false;
        Vec[D] = static_cast<Dir>(Raw);
      }
      R.Vectors.push_back(std::move(Vec));
    }
    for (size_t D = 0; D < NumDistances; ++D) {
      std::string Tag;
      if (!(In >> Tag))
        return false;
      if (Tag == "d") {
        int64_t Value;
        if (!(In >> Value))
          return false;
        R.Distances.push_back(Value);
      } else if (Tag == "u") {
        R.Distances.push_back(std::nullopt);
      } else {
        return false;
      }
    }
    Shard &S = shardFor(K);
    auto Res = S.Directions.emplace(std::move(K), std::move(R));
    if (Res.second && Tag != 0)
      S.DirTag.emplace(Res.first->first, Tag);
    ++Loaded;
  }

  if (!(In >> Count))
    return false;
  for (size_t I = 0; I < Count; ++I) {
    Key K;
    int Solvable;
    if (!readVector(In, K) || !(In >> Solvable))
      return false;
    Shard &S = shardFor(K);
    S.Gcd.emplace(std::move(K), Solvable != 0);
    ++Loaded;
  }
  if (LoadStats)
    LoadStats->LoadedEntries = Loaded;
  return true;
}
