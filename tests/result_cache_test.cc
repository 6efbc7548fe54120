// Hot-pair result cache: correctness of the bit-identity contract (a hit
// replays exactly the payload of the miss that stored it), LRU eviction
// under a byte budget, EraseIf's bookkeeping, and shard-level thread
// safety (the concurrent hammers run under TSan in CI's nightly job).

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/result_cache.h"

namespace qbs::server {
namespace {

QueryResponse MakeResponse(VertexId u, VertexId v, uint32_t distance,
                           std::vector<Edge> edges, uint32_t flags = 0) {
  QueryResponse response;
  response.spg.u = u;
  response.spg.v = v;
  response.spg.distance = distance;
  response.spg.edges = std::move(edges);
  response.flags = flags;
  response.stats.edges_scanned_search = 999;  // diagnostic, never cached
  return response;
}

TEST(ResultCacheTest, HitReplaysMissPayloadBitIdentically) {
  ResultCache cache({.capacity_bytes = 1 << 20, .shards = 4});
  const QueryRequest request(3, 9);
  const QueryResponse stored =
      MakeResponse(3, 9, 2, {{3, 5}, {5, 9}});

  QueryResponse out;
  EXPECT_FALSE(cache.Lookup(request, &out));
  cache.Insert(request, stored);
  ASSERT_TRUE(cache.Lookup(request, &out));
  EXPECT_TRUE(SameAnswer(out, stored));  // the bit-identity contract
  EXPECT_TRUE(out.cache_hit);
  // Diagnostics are not replayed: a hit did no search.
  EXPECT_EQ(out.stats.TotalEdgesScanned(), 0u);
}

TEST(ResultCacheTest, ReversedPairSharesEntryWithReorientedEcho) {
  ResultCache cache({.capacity_bytes = 1 << 20, .shards = 4});
  const QueryRequest forward(3, 9);
  const QueryRequest reverse(9, 3);
  cache.Insert(forward, MakeResponse(3, 9, 2, {{3, 5}, {5, 9}}));

  QueryResponse out;
  ASSERT_TRUE(cache.Lookup(reverse, &out));
  // Same normalized payload, echo re-stamped to the request orientation.
  EXPECT_EQ(out.spg.u, 9u);
  EXPECT_EQ(out.spg.v, 3u);
  EXPECT_EQ(out.spg.distance, 2u);
  EXPECT_EQ(out.spg.edges.size(), 2u);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ResultCacheTest, ModeAndBudgetAreDistinctKeys) {
  ResultCache cache({.capacity_bytes = 1 << 20, .shards = 1});
  QueryRequest spg(1, 2, QueryMode::kSpg);
  QueryRequest dist(1, 2, QueryMode::kDistance);
  QueryRequest budgeted(1, 2, QueryMode::kSpg, /*budget_in=*/3);
  cache.Insert(spg, MakeResponse(1, 2, 1, {{1, 2}}));

  QueryResponse out;
  EXPECT_TRUE(cache.Lookup(spg, &out));
  EXPECT_FALSE(cache.Lookup(dist, &out));
  EXPECT_FALSE(cache.Lookup(budgeted, &out));

  cache.Insert(dist, MakeResponse(1, 2, 1, {}));
  ASSERT_TRUE(cache.Lookup(dist, &out));
  EXPECT_TRUE(out.spg.edges.empty());
  ASSERT_TRUE(cache.Lookup(spg, &out));
  EXPECT_EQ(out.spg.edges.size(), 1u);
}

TEST(ResultCacheTest, FlagsArePartOfTheReplayedPayload) {
  ResultCache cache({.capacity_bytes = 1 << 20, .shards = 1});
  const QueryRequest request(4, 40, QueryMode::kSpg, /*budget_in=*/2);
  cache.Insert(request,
               MakeResponse(4, 40, 7, {}, kResponseFlagBudgetExceeded));
  QueryResponse out;
  ASSERT_TRUE(cache.Lookup(request, &out));
  EXPECT_EQ(out.flags, kResponseFlagBudgetExceeded);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderCapacity) {
  // A deliberately tiny single-shard cache whose entries are dominated by
  // their edge payloads (64 edges = 512 bytes each), so roughly three fit
  // in 2 KiB: inserting past the budget must evict from the cold end, and
  // touching an entry must protect it.
  ResultCache cache({.capacity_bytes = 2048, .shards = 1});
  const auto fill = [&](VertexId i) {
    std::vector<Edge> edges;
    for (VertexId e = 0; e < 64; ++e) edges.push_back({i + e, i + e + 1});
    cache.Insert(QueryRequest(i, i + 1000),
                 MakeResponse(i, i + 1000, 64, std::move(edges)));
  };
  fill(0);
  fill(1);
  fill(2);
  QueryResponse out;
  ASSERT_TRUE(cache.Lookup(QueryRequest(0, 1000), &out));  // 0 is now MRU
  fill(3);  // over budget: the cold end is entry 1, not the touched entry 0

  const auto stats = cache.GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 2048u);
  // Entry 1 (never touched again) must be gone; touched entry 0 survives.
  EXPECT_FALSE(cache.Lookup(QueryRequest(1, 1001), &out));
  EXPECT_TRUE(cache.Lookup(QueryRequest(0, 1000), &out));
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache({.capacity_bytes = 0, .shards = 4});
  const QueryRequest request(1, 2);
  cache.Insert(request, MakeResponse(1, 2, 1, {{1, 2}}));
  QueryResponse out;
  EXPECT_FALSE(cache.Lookup(request, &out));
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ResultCacheTest, ReinsertRefreshesInPlace) {
  ResultCache cache({.capacity_bytes = 1 << 20, .shards = 1});
  const QueryRequest request(5, 6);
  cache.Insert(request, MakeResponse(5, 6, 1, {{5, 6}}));
  cache.Insert(request, MakeResponse(5, 6, 1, {{5, 6}}));
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);  // second insert was a refresh
}

TEST(ResultCacheTest, EraseEverythingDropsEntriesKeepsCounters) {
  ResultCache cache({.capacity_bytes = 1 << 20, .shards = 2});
  cache.Insert(QueryRequest(1, 2), MakeResponse(1, 2, 1, {{1, 2}}));
  cache.Insert(QueryRequest(3, 4), MakeResponse(3, 4, 1, {{3, 4}}));
  QueryResponse out;
  ASSERT_TRUE(cache.Lookup(QueryRequest(1, 2), &out));
  EXPECT_EQ(cache.EraseIf([](const ResultCache::EntryView&) { return true; }),
            2u);
  EXPECT_FALSE(cache.Lookup(QueryRequest(1, 2), &out));
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.invalidated, 2u);
}

// EraseIf drops exactly the entries its predicate picks, which see their
// canonical pair and payload; the survivors replay their payloads, their
// bytes are what inserting only them charges, and they keep their LRU
// order: the next evictions take the oldest survivors first.
TEST(ResultCacheTest, EraseIfKeepsSurvivorsBytesAndLruOrder) {
  const auto request = [](VertexId k) { return QueryRequest(k + 100, k); };
  const auto response = [](VertexId k) {
    return MakeResponse(k + 100, k, k, {{k, k + 100}},
                        k == 6 ? kResponseFlagBudgetExceeded : 0);
  };
  ResultCache one({.capacity_bytes = 1 << 20, .shards = 1});
  one.Insert(request(0), response(0));
  const size_t entry_bytes = one.GetStats().bytes;

  ResultCache cache({.capacity_bytes = 10 * entry_bytes, .shards = 1});
  for (VertexId k = 0; k < 10; ++k) cache.Insert(request(k), response(k));
  QueryResponse out;
  ASSERT_TRUE(cache.Lookup(request(3), &out));
  ASSERT_TRUE(cache.Lookup(request(0), &out));
  // LRU order, oldest first: 1 2 4 5 6 7 8 9 3 0.
  const size_t erased = cache.EraseIf([](const ResultCache::EntryView& e) {
    EXPECT_EQ(e.u, e.distance);
    EXPECT_EQ(e.v, e.u + 100);
    return e.u % 2 == 0 && (e.flags & kResponseFlagBudgetExceeded) == 0;
  });
  EXPECT_EQ(erased, 4u);  // 0, 2, 4 and 8; 6 carries the flag
  for (const VertexId k : {0u, 2u, 4u, 8u}) {
    EXPECT_FALSE(cache.Lookup(request(k), &out)) << k;  // a miss: no reorder
  }
  const std::vector<VertexId> survivors = {1, 5, 6, 7, 9, 3};

  ResultCache reference({.capacity_bytes = 1 << 20, .shards = 1});
  for (const VertexId k : survivors) reference.Insert(request(k), response(k));
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, survivors.size());
  EXPECT_EQ(stats.bytes, reference.GetStats().bytes);
  EXPECT_EQ(stats.invalidated, 4u);
  EXPECT_EQ(stats.evictions, 0u);

  // Four new entries fill the budget; each insert after them evicts one
  // entry, and it must be the oldest survivor left.
  for (VertexId k = 20; k < 24; ++k) cache.Insert(request(k), response(k));
  EXPECT_EQ(cache.GetStats().evictions, 0u);
  for (size_t i = 0; i < survivors.size(); ++i) {
    cache.Insert(request(30 + static_cast<VertexId>(i)), response(30));
    EXPECT_EQ(cache.GetStats().evictions, i + 1);
    EXPECT_FALSE(cache.Lookup(request(survivors[i]), &out)) << survivors[i];
  }
}

// The survivors' payloads replay bit-identically, and an erased entry is
// a miss that a later insert refills.
TEST(ResultCacheTest, EraseIfSurvivorsReplayTheirPayloads) {
  ResultCache cache({.capacity_bytes = 1 << 20, .shards = 4});
  for (VertexId k = 0; k < 40; ++k) {
    cache.Insert(QueryRequest(k, k + 1, QueryMode::kSpg, k % 3),
                 MakeResponse(k, k + 1, k % 7, {{k, k + 1}}));
  }
  EXPECT_EQ(cache.EraseIf([](const ResultCache::EntryView& e) {
              return e.distance == 0;
            }),
            6u);
  QueryResponse out;
  for (VertexId k = 0; k < 40; ++k) {
    const QueryRequest request(k + 1, k, QueryMode::kSpg, k % 3);
    const bool hit = cache.Lookup(request, &out);
    EXPECT_EQ(hit, k % 7 != 0) << k;
    if (hit) {
      EXPECT_TRUE(SameAnswer(out, MakeResponse(k + 1, k, k % 7, {{k, k + 1}})));
    }
  }
  cache.Insert(QueryRequest(0, 1), MakeResponse(0, 1, 0, {{0, 1}}));
  EXPECT_TRUE(cache.Lookup(QueryRequest(0, 1), &out));
  EXPECT_EQ(cache.EraseIf([](const ResultCache::EntryView&) { return true; }),
            35u);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.invalidated, 6u + 35u);
}

TEST(ResultCacheTest, ConcurrentHammer) {
  // 8 threads × mixed lookups/inserts over an overlapping key range on a
  // capacity-constrained cache: exercises eviction racing lookup splices.
  // Run under TSan in CI; asserts only invariants that hold under races.
  ResultCache cache({.capacity_bytes = 64 * 1024, .shards = 4});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const VertexId u = static_cast<VertexId>((t * 7 + i) % 97);
        const VertexId v = u + 1000;
        const QueryRequest request(u, v);
        QueryResponse out;
        if (cache.Lookup(request, &out)) {
          // Whatever is replayed must be the payload stored for this key.
          ASSERT_EQ(out.spg.distance, u % 5);
          ASSERT_TRUE(out.cache_hit);
        } else {
          cache.Insert(request,
                       MakeResponse(u, v, u % 5, {{u, u + 1}}));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.GetStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.bytes, 64u * 1024u);
}

// EraseIf racing lookups, inserts and evictions: every hit still replays
// its own key's payload, and once the threads are done the bookkeeping
// adds up — erasing everything leaves zero bytes and zero entries.
TEST(ResultCacheTest, ConcurrentEraseIfHammer) {
  ResultCache cache({.capacity_bytes = 32 * 1024, .shards = 4});
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> done{false};
  std::thread eraser([&] {
    for (uint32_t round = 0; !done.load(); ++round) {
      cache.EraseIf([round](const ResultCache::EntryView& e) {
        return (e.u + round) % 3 == 0;
      });
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const VertexId u = static_cast<VertexId>((t * 11 + i) % 89);
        const QueryRequest request(u + 500, u);
        QueryResponse out;
        if (cache.Lookup(request, &out)) {
          ASSERT_EQ(out.spg.distance, u % 5);
          ASSERT_EQ(out.spg.edges.size(), 1u);
          ASSERT_EQ(out.spg.edges[0], Edge(u, u + 500));
        } else {
          cache.Insert(request,
                       MakeResponse(u, u + 500, u % 5, {{u, u + 500}}));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  done.store(true);
  eraser.join();
  const auto before = cache.GetStats();
  EXPECT_GT(before.invalidated, 0u);
  EXPECT_LE(before.bytes, 32u * 1024u);
  EXPECT_EQ(cache.EraseIf([](const ResultCache::EntryView&) { return true; }),
            before.entries);
  const auto after = cache.GetStats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.bytes, 0u);
}

}  // namespace
}  // namespace qbs::server
