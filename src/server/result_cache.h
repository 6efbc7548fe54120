// The hot-pair result cache fronting the `qbs serve` searcher pool: a
// sharded, byte-capacity LRU over deterministic answer payloads.
//
// Key invariants:
//   * Exact keys — a lookup can only ever return the payload stored for
//     the same (unordered pair, mode, budget); there is no hash-collision
//     path to a wrong answer (the full key is compared, not a digest).
//   * Bit-identity — the payload replayed on a hit (distance, flags, SPG
//     edges) is byte-for-byte the payload of the miss that populated it;
//     only the orientation echo (spg.u/spg.v) is re-stamped to match the
//     request, and the cache_hit bit is set. SPG edge sets are normalized
//     (graph/spg.h), so (u, v) and (v, u) share one entry soundly.
//   * Invalidation — EraseIf drops the entries a caller's predicate picks
//     (the daemon's edit path: server/server.h), keeping every survivor's
//     payload and LRU order.
//   * Bounded — each shard evicts least-recently-used entries whenever its
//     charged bytes exceed capacity_bytes / shards. Requests flagged
//     kQueryFlagNoCache never read or populate the cache (the serving
//     layer enforces this; the cache itself is flag-agnostic).
//
// Concurrency: shards lock independently, so disjoint hot pairs do not
// serialize on one mutex. Within a shard, Lookup takes the same exclusive
// lock as Insert (it mutates LRU order). Verified race-free under TSan by
// result_cache_test.ConcurrentHammer.

#ifndef QBS_SERVER_RESULT_CACHE_H_
#define QBS_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/query_api.h"
#include "util/sync.h"

namespace qbs::server {

class ResultCache {
 public:
  struct Options {
    /// Total payload-byte budget across all shards. 0 disables caching
    /// (every Lookup misses, Insert is a no-op).
    size_t capacity_bytes = 64u << 20;
    /// Independent LRU shards (rounded up to 1). More shards, less lock
    /// contention, slightly coarser capacity enforcement.
    size_t shards = 16;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t invalidated = 0;  // entries EraseIf dropped
    size_t entries = 0;
    size_t bytes = 0;

    double HitRate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  explicit ResultCache(const Options& options);

  /// On a hit, fills *out with the stored payload re-oriented to the
  /// request's (u, v) order, sets out->cache_hit, and refreshes LRU order.
  /// Returns false (counting a miss) otherwise.
  bool Lookup(const QueryRequest& request, QueryResponse* out);

  /// Stores the deterministic payload of `response` under the request's
  /// canonical key, evicting LRU entries to stay under the shard budget.
  /// Re-inserting an existing key refreshes the payload (idempotent for
  /// deterministic queries). Entries larger than a whole shard's budget
  /// are not admitted.
  void Insert(const QueryRequest& request, const QueryResponse& response);

  /// Aggregated over all shards.
  Stats GetStats() const;

  /// What EraseIf's predicate sees of one entry: its canonical pair
  /// (u <= v) and its payload's distance and flags.
  struct EntryView {
    VertexId u;
    VertexId v;
    uint32_t distance;
    uint32_t flags;
  };

  /// Drops every entry for which `erase` returns true, counting each in
  /// Stats::invalidated. Survivors keep their payload and LRU order, and
  /// the shard's charged bytes stay the sum over them. Locks one shard at
  /// a time and calls `erase` under that lock, so `erase` must not call
  /// back into the cache. Returns the number dropped; counters survive.
  size_t EraseIf(const std::function<bool(const EntryView&)>& erase);

 private:
  struct Key {
    uint64_t pair;         // min(u,v) << 32 | max(u,v)
    uint64_t mode_budget;  // mode << 32 | budget

    friend bool operator==(const Key& a, const Key& b) {
      return a.pair == b.pair && a.mode_budget == b.mode_budget;
    }
  };

  struct KeyHash {
    size_t operator()(const Key& k) const {
      // splitmix64-style mix of both words.
      uint64_t x = k.pair ^ (k.mode_budget * 0x9e3779b97f4a7c15ULL);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<size_t>(x ^ (x >> 31));
    }
  };

  struct Entry {
    Key key;
    uint32_t distance;
    uint32_t flags;
    std::vector<Edge> edges;
    size_t charged_bytes;
  };

  struct Shard {
    // Shard locks never nest with each other (GetStats/EraseIf hold one at a
    // time), so a single rank covers all shards.
    Mutex mu{LockRank::kResultCacheShard};
    // MRU at front; Entry owned by the list, map points into it.
    std::list<Entry> lru QBS_GUARDED_BY(mu);
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index
        QBS_GUARDED_BY(mu);
    size_t bytes QBS_GUARDED_BY(mu) = 0;
    uint64_t hits QBS_GUARDED_BY(mu) = 0;
    uint64_t misses QBS_GUARDED_BY(mu) = 0;
    uint64_t insertions QBS_GUARDED_BY(mu) = 0;
    uint64_t evictions QBS_GUARDED_BY(mu) = 0;
    uint64_t invalidated QBS_GUARDED_BY(mu) = 0;
  };

  static Key MakeKey(const QueryRequest& request);
  static size_t ChargedBytes(const Entry& e);

  Shard& ShardFor(const Key& key) {
    return *shards_[KeyHash()(key) % shards_.size()];
  }

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qbs::server

#endif  // QBS_SERVER_RESULT_CACHE_H_
