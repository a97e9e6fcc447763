//===- tests/deptest/ShardedMemoTest.cpp - Concurrent memo cache ----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded concurrent cache's contracts: shard count 1 degenerates
/// to the original table, sharding never changes lookup results, and
/// concurrent insert/lookup of identical keys converges on one
/// canonical entry without losing or duplicating state.
///
//===----------------------------------------------------------------------===//

#include "deptest/Memo.h"

#include "testutil/Helpers.h"
#include "gtest/gtest.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace edda;
using namespace edda::testutil;

namespace {

DependenceProblem simpleProblem(int64_t Delta, int64_t Hi = 10) {
  return ProblemBuilder(1, 1, 1)
      .eq({1, -1}, Delta)
      .bounds(0, 1, Hi)
      .bounds(1, 1, Hi)
      .build();
}

MemoOptions withShards(unsigned Shards) {
  MemoOptions Opts;
  Opts.Shards = Shards;
  return Opts;
}

} // namespace

TEST(ShardedMemo, ShardCountOneDegeneratesToSingleTable) {
  DependenceCache Cache(withShards(1));
  EXPECT_EQ(Cache.shardCount(), 1u);
  DependenceProblem P = simpleProblem(3);
  EXPECT_FALSE(Cache.lookupFull(P).has_value());
  CascadeResult R = testDependence(P);
  Cache.insertFull(P, R);
  std::optional<CascadeResult> Hit = Cache.lookupFull(P);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Answer, R.Answer);
  EXPECT_EQ(Cache.fullQueries(), 2u);
  EXPECT_EQ(Cache.fullHits(), 1u);
  EXPECT_EQ(Cache.uniqueFull(), 1u);
}

TEST(ShardedMemo, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(DependenceCache(withShards(3)).shardCount(), 4u);
  EXPECT_EQ(DependenceCache(withShards(16)).shardCount(), 16u);
  // 0 counts as one shard.
  EXPECT_EQ(DependenceCache(withShards(0)).shardCount(), 1u);
}

TEST(ShardedMemo, ShardingDoesNotChangeResults) {
  // The same inserts against 1 and 64 shards must serve the same
  // answers; sharding only picks which mutex guards a key.
  DependenceCache One(withShards(1));
  DependenceCache Many(withShards(64));
  std::vector<DependenceProblem> Problems;
  for (int64_t Delta = -8; Delta <= 8; ++Delta)
    for (int64_t Hi : {4, 10, 30})
      Problems.push_back(simpleProblem(Delta, Hi));
  for (const DependenceProblem &P : Problems) {
    CascadeResult R = testDependence(P);
    One.insertFull(P, R);
    Many.insertFull(P, R);
    One.insertGcdSolvable(P, R.Answer != DepAnswer::Independent);
    Many.insertGcdSolvable(P, R.Answer != DepAnswer::Independent);
  }
  EXPECT_EQ(One.uniqueFull(), Many.uniqueFull());
  EXPECT_EQ(One.uniqueNoBounds(), Many.uniqueNoBounds());
  for (const DependenceProblem &P : Problems) {
    std::optional<CascadeResult> A = One.lookupFull(P);
    std::optional<CascadeResult> B = Many.lookupFull(P);
    ASSERT_TRUE(A.has_value());
    ASSERT_TRUE(B.has_value());
    EXPECT_EQ(A->Answer, B->Answer);
    EXPECT_EQ(A->DecidedBy, B->DecidedBy);
    EXPECT_EQ(One.lookupGcdSolvable(P), Many.lookupGcdSolvable(P));
  }
}

TEST(ShardedMemo, ConcurrentIdenticalInsertsOneCanonicalEntry) {
  for (unsigned Shards : {1u, 8u}) {
    DependenceCache Cache(withShards(Shards));
    DependenceProblem P = simpleProblem(3);
    CascadeResult R = testDependence(P);

    constexpr unsigned NumThreads = 8;
    constexpr unsigned Rounds = 200;
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&Cache, &P, &R] {
        for (unsigned I = 0; I < Rounds; ++I) {
          Cache.insertFull(P, R);
          std::optional<CascadeResult> Hit = Cache.lookupFull(P);
          // Another thread may not have inserted yet on the very first
          // lookups, but once present the entry must be the canonical
          // result.
          if (Hit) {
            EXPECT_EQ(Hit->Answer, R.Answer);
            EXPECT_EQ(Hit->DecidedBy, R.DecidedBy);
          }
        }
      });
    for (std::thread &T : Threads)
      T.join();

    EXPECT_EQ(Cache.uniqueFull(), 1u);
    EXPECT_EQ(Cache.fullQueries(), uint64_t(NumThreads) * Rounds);
    EXPECT_EQ(Cache.fullHits(), uint64_t(NumThreads) * Rounds);
  }
}

TEST(ShardedMemo, ConcurrentDistinctKeysAllRetained) {
  DependenceCache Cache(withShards(8));
  constexpr unsigned NumThreads = 4;
  constexpr int64_t PerThread = 64;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Cache, T] {
      for (int64_t I = 0; I < PerThread; ++I) {
        // Distinct (Delta, Hi) per insert; Delta overlaps across
        // threads, Hi does not.
        DependenceProblem P = simpleProblem(I, 100 + T);
        CascadeResult R = testDependence(P);
        Cache.insertFull(P, R);
        Cache.insertGcdSolvable(P, true);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Cache.uniqueFull(), uint64_t(NumThreads) * PerThread);
  // The GCD key ignores bounds, so the per-thread Hi collapses.
  EXPECT_EQ(Cache.uniqueNoBounds(), uint64_t(PerThread));
  for (unsigned T = 0; T < NumThreads; ++T)
    for (int64_t I = 0; I < PerThread; ++I)
      EXPECT_TRUE(
          Cache.lookupFull(simpleProblem(I, 100 + T)).has_value());
}

TEST(ShardedMemo, ConcurrentDirectionsInsertLookup) {
  DependenceCache Cache(withShards(4));
  DependenceProblem P = simpleProblem(2);
  DirectionResult Dirs = computeDirectionVectors(P);

  constexpr unsigned NumThreads = 6;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Cache, &P, &Dirs] {
      for (unsigned I = 0; I < 100; ++I) {
        Cache.insertDirections(P, Dirs);
        std::optional<DirectionResult> Hit = Cache.lookupDirections(P);
        if (Hit) {
          EXPECT_EQ(Hit->RootAnswer, Dirs.RootAnswer);
          EXPECT_EQ(Hit->Vectors, Dirs.Vectors);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Cache.uniqueDirections(), 1u);
}

TEST(ShardedMemo, PersistenceRoundTripsAcrossShardCounts) {
  DependenceCache Many(withShards(16));
  for (int64_t Delta = 0; Delta < 20; ++Delta) {
    DependenceProblem P = simpleProblem(Delta);
    Many.insertFull(P, testDependence(P));
  }
  std::string Path = ::testing::TempDir() + "edda_shard_cache.txt";
  ASSERT_TRUE(Many.saveToFile(Path));

  DependenceCache One(withShards(1));
  ASSERT_TRUE(One.loadFromFile(Path));
  EXPECT_EQ(One.uniqueFull(), Many.uniqueFull());
  for (int64_t Delta = 0; Delta < 20; ++Delta)
    EXPECT_TRUE(One.lookupFull(simpleProblem(Delta)).has_value());
  std::remove(Path.c_str());
}
