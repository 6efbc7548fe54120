#include "server/result_cache.h"

#include <algorithm>
#include <utility>

namespace qbs::server {

ResultCache::ResultCache(const Options& options) {
  const size_t shard_count = std::max<size_t>(options.shards, 1);
  shard_capacity_ = options.capacity_bytes / shard_count;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Key ResultCache::MakeKey(const QueryRequest& request) {
  const uint64_t lo = std::min(request.u, request.v);
  const uint64_t hi = std::max(request.u, request.v);
  Key key;
  key.pair = lo << 32 | hi;
  key.mode_budget = static_cast<uint64_t>(request.mode) << 32 |
                    request.budget;
  return key;
}

size_t ResultCache::ChargedBytes(const Entry& e) {
  return sizeof(Entry) + e.edges.capacity() * sizeof(Edge);
}

bool ResultCache::Lookup(const QueryRequest& request, QueryResponse* out) {
  const Key key = MakeKey(request);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // MRU
  const Entry& entry = *it->second;
  *out = QueryResponse();
  out->spg.u = request.u;
  out->spg.v = request.v;
  out->spg.distance = entry.distance;
  out->spg.edges = entry.edges;
  out->flags = entry.flags;
  out->cache_hit = true;
  return true;
}

void ResultCache::Insert(const QueryRequest& request,
                         const QueryResponse& response) {
  if (shard_capacity_ == 0) return;
  const Key key = MakeKey(request);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Refresh in place (deterministic queries make this a no-op payload-
    // wise, but the entry moves to MRU and re-charges its bytes).
    shard.bytes -= it->second->charged_bytes;
    it->second->distance = response.spg.distance;
    it->second->flags = response.flags;
    it->second->edges = response.spg.edges;
    it->second->charged_bytes = ChargedBytes(*it->second);
    shard.bytes += it->second->charged_bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    Entry entry;
    entry.key = key;
    entry.distance = response.spg.distance;
    entry.flags = response.flags;
    entry.edges = response.spg.edges;
    entry.charged_bytes = ChargedBytes(entry);
    if (entry.charged_bytes > shard_capacity_) return;  // never admissible
    shard.lru.push_front(std::move(entry));
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += shard.lru.front().charged_bytes;
    ++shard.insertions;
  }
  while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.charged_bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.insertions += shard.insertions;
    stats.evictions += shard.evictions;
    stats.invalidated += shard.invalidated;
    stats.entries += shard.lru.size();
    stats.bytes += shard.bytes;
  }
  return stats;
}

size_t ResultCache::EraseIf(
    const std::function<bool(const EntryView&)>& erase) {
  size_t erased = 0;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      const EntryView view{static_cast<VertexId>(it->key.pair >> 32),
                           static_cast<VertexId>(it->key.pair), it->distance,
                           it->flags};
      if (!erase(view)) {
        ++it;
        continue;
      }
      shard.bytes -= it->charged_bytes;
      shard.index.erase(it->key);
      it = shard.lru.erase(it);
      ++shard.invalidated;
      ++erased;
    }
  }
  return erased;
}

}  // namespace qbs::server
