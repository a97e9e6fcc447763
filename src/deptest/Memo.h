//===- deptest/Memo.h - Memoization of dependence tests --------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoization of dependence tests (paper section 5). Real programs ask
/// the same small set of questions over and over, so results are cached
/// in two hash tables: one keyed without loop bounds (the extended GCD
/// test ignores bounds) and one keyed with them (full answers and
/// direction vectors). The paper's "simple" scheme keys the problem
/// verbatim; the "improved" scheme first removes unused loop variables,
/// merging problems that differ only in irrelevant surrounding loops.
/// Extensions the paper sketches are implemented behind options:
/// symmetric-pair canonicalization and cross-compilation persistence.
///
/// The cache is safe for concurrent lookup/insert: the tables are split
/// into independently-locked shards selected by the memo hash of the
/// key, so under edda-serve's request pool the hot path takes one
/// rarely-contended lock. Shard count 1 degenerates to the original
/// single-table behaviour. Sharding never changes which key maps to
/// which entry — only which mutex guards it — so results are identical
/// at every shard count.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_DEPTEST_MEMO_H
#define EDDA_DEPTEST_MEMO_H

#include "deptest/Cascade.h"
#include "deptest/Direction.h"
#include "deptest/Problem.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace edda {

/// Which hash function drives the tables (the bench compares collision
/// behaviour; results are identical).
enum class MemoHashKind {
  Mixing,       ///< splitmix-based mixer (default).
  PaperLiteral, ///< h(x) = size(x) + sum 2^i x_i, as published.
};

/// Memoization scheme configuration.
struct MemoOptions {
  /// Remove unused loop variables before keying (the paper's improved
  /// scheme).
  bool ImprovedKey = true;
  /// Canonicalize (A,B) and (B,A) to one key (extension sketched in
  /// section 5: "comparing a[i] to a[i-1] is the same as comparing
  /// a[i-1] to a[i]").
  bool SymmetricKey = false;
  /// Sort the subscript equations before keying, merging problems that
  /// differ only in array-dimension order (the section 5 note that
  /// "a[i][j] versus a[i+1][j+1] is equivalent to a[j][i] versus
  /// a[j+1][i+1]"). Sound: the equations are a conjunction.
  bool CanonicalizeEquations = false;
  MemoHashKind Hash = MemoHashKind::Mixing;
  /// Number of independently-locked shards (rounded up to a power of
  /// two; 0 counts as 1). One shard suits a cache used by one thread;
  /// edda-serve sizes it to its request pool. Sharding affects
  /// contention only, never results.
  unsigned Shards = 0;
  /// Maintain a last-use stamp per full/direction entry (updated on
  /// hit and insert, under the shard lock already held) so
  /// evictOldest() can bound a long-lived cache. Off by default: the
  /// batch analyzer never evicts and skips the bookkeeping; edda-serve
  /// turns it on for its size-bounded warm-start checkpoints.
  bool TrackRecency = false;
};

/// What DependenceCache::loadFromFile saw, for warm-start reporting.
struct CacheLoadStats {
  /// Format version the file declared (0 when the header was
  /// unreadable).
  int FileVersion = 0;
  /// Entries loaded into the tables (current-format files only).
  uint64_t LoadedEntries = 0;
};

/// The two-table dependence cache.
class DependenceCache {
public:
  explicit DependenceCache(MemoOptions Opts = {});

  /// The cache-file format version saveToFile() writes and the only one
  /// loadFromFile() accepts.
  static constexpr int FileVersion = 6;

  const MemoOptions &options() const { return Opts; }

  /// The resolved shard count (power of two).
  unsigned shardCount() const {
    return static_cast<unsigned>(Shards.size());
  }

  /// Full-answer table (bounds included in the key). \p Tag optionally
  /// labels the entry with a content fingerprint (the analyzer passes
  /// its pair fingerprint); 0 means untagged. First-insert-wins keeps
  /// the first tag on a duplicate key.
  std::optional<CascadeResult> lookupFull(const DependenceProblem &P);
  void insertFull(const DependenceProblem &P, const CascadeResult &R,
                  uint64_t Tag = 0);

  /// Direction-vector table (bounds included in the key).
  std::optional<DirectionResult>
  lookupDirections(const DependenceProblem &P);
  void insertDirections(const DependenceProblem &P,
                        const DirectionResult &R, uint64_t Tag = 0);

  /// Drops every full/direction entry whose tag is in \p Tags,
  /// returning the number of entries removed. Because memo keys are
  /// content-addressed, entries belonging to edited-away statements are
  /// merely unreachable, never wrong — invalidation bounds the growth
  /// of a long-lived store, it is not needed for correctness. A shared
  /// key first-inserted by a still-live pair may be removed when its
  /// first inserter's tag goes stale; the only effect is a re-miss.
  uint64_t invalidateFingerprints(const std::vector<uint64_t> &Tags);

  /// GCD-solvability table (bounds excluded from the key).
  std::optional<bool> lookupGcdSolvable(const DependenceProblem &P);
  void insertGcdSolvable(const DependenceProblem &P, bool Solvable);

  /// Accounting for the Table 2 reproduction. Counter reads are exact
  /// once concurrent callers have quiesced.
  uint64_t fullQueries() const { return FullQueries.load(); }
  uint64_t fullHits() const { return FullHits.load(); }
  uint64_t dirQueries() const { return DirQueries.load(); }
  uint64_t dirHits() const { return DirHits.load(); }
  uint64_t uniqueFull() const;
  uint64_t uniqueDirections() const;
  uint64_t gcdQueries() const { return GcdQueries.load(); }
  uint64_t gcdHits() const { return GcdHits.load(); }
  uint64_t uniqueNoBounds() const;

  /// The key a problem maps to (exposed so benches can study hash
  /// collision behaviour directly).
  std::vector<int64_t> keyFor(const DependenceProblem &P,
                              bool IncludeBounds, bool &Swapped) const;

  /// Persistence across compilations (extension, paper section 5):
  /// writes/reads the full-answer and direction tables (witnesses are
  /// not persisted). Returns false on I/O or format errors.
  ///
  /// saveToFile() takes each shard's lock while serializing that
  /// shard, so it is safe to checkpoint while analyzer threads insert
  /// concurrently: every entry is immutable once inserted
  /// (first-insert-wins), so the snapshot is some subset of the
  /// entries that exist when the save returns, and reloading it can
  /// only pre-answer questions with the exact results recomputation
  /// would produce. loadFromFile() is not concurrency-safe — call it
  /// before serving starts.
  bool saveToFile(const std::string &Path) const;
  bool loadFromFile(const std::string &Path);
  /// As above, additionally reporting what happened: on a format-version
  /// mismatch the load fails (returns false, loading nothing) but
  /// \p LoadStats says which version the file declared, so warm-start
  /// callers can log the stale format instead of silently cold-starting.
  bool loadFromFile(const std::string &Path, CacheLoadStats *LoadStats);

  /// Size-bounded "LRU-ish" eviction for long-lived caches: removes
  /// least-recently-used full/direction entries (per the TrackRecency
  /// stamps; entries never touched count as oldest) until at most
  /// \p TargetEntries remain across both tables. The bounds-free GCD
  /// table is never evicted — it is keyed by equation systems only
  /// and stays small. Returns the number of entries removed. Safe
  /// against concurrent lookup/insert; with inserts racing, the bound
  /// is approximate.
  uint64_t evictOldest(uint64_t TargetEntries);

  void clear();

private:
  struct KeyHash {
    MemoHashKind Kind;
    size_t operator()(const std::vector<int64_t> &Key) const;
  };
  using Key = std::vector<int64_t>;

  /// One lock plus its slice of all three tables. Heap-allocated so the
  /// shard array never moves (mutexes are not movable) and adjacent
  /// shards do not false-share.
  struct Shard {
    mutable std::mutex Mutex;
    std::unordered_map<Key, CascadeResult, KeyHash> Full;
    std::unordered_map<Key, DirectionResult, KeyHash> Directions;
    std::unordered_map<Key, bool, KeyHash> Gcd;
    /// Last-use stamps (MemoOptions::TrackRecency), keyed like the
    /// table they shadow.
    std::unordered_map<Key, uint64_t, KeyHash> FullUse;
    std::unordered_map<Key, uint64_t, KeyHash> DirUse;
    /// Fingerprint tags (insertFull/insertDirections Tag != 0), keyed
    /// like the table they shadow; consumed by invalidateFingerprints.
    std::unordered_map<Key, uint64_t, KeyHash> FullTag;
    std::unordered_map<Key, uint64_t, KeyHash> DirTag;

    explicit Shard(MemoHashKind Hash)
        : Full(16, KeyHash{Hash}), Directions(16, KeyHash{Hash}),
          Gcd(16, KeyHash{Hash}), FullUse(16, KeyHash{Hash}),
          DirUse(16, KeyHash{Hash}), FullTag(16, KeyHash{Hash}),
          DirTag(16, KeyHash{Hash}) {}
  };

  MemoOptions Opts;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<uint64_t> FullQueries{0};
  std::atomic<uint64_t> FullHits{0};
  std::atomic<uint64_t> DirQueries{0};
  std::atomic<uint64_t> DirHits{0};
  std::atomic<uint64_t> GcdQueries{0};
  std::atomic<uint64_t> GcdHits{0};
  /// Monotone clock driving the TrackRecency stamps.
  std::atomic<uint64_t> UseTick{0};

  Shard &shardFor(const Key &K);
};

/// Reverses a direction result between (A,B) and (B,A): '<' and '>'
/// exchange and distances negate. Used by the symmetric key scheme.
DirectionResult reverseDirections(const DirectionResult &R);

/// Remaps a witness between (A,B) and (B,A) x layouts.
std::vector<int64_t> swapWitness(const std::vector<int64_t> &X,
                                 unsigned NumLoopsA, unsigned NumLoopsB);

} // namespace edda

#endif // EDDA_DEPTEST_MEMO_H
