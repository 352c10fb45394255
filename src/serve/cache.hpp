// Sharded LRU result cache for the MCOS query service.
//
// All-pairs and top-k serving traffic is dominated by repeated pairs — the
// same query structure scanned against a corpus, the same hot family pairs
// requested by many clients — and an MCOS solve is pure: the value depends
// only on (structure A, structure B, solver config). Memoizing completed
// solves therefore short-circuits the dominant traffic pattern at the cost
// of one hash probe.
//
// Design:
//   * Keys are exact. The canonical 64-bit digest (rna/structure_hash.hpp)
//     picks the shard and the hash bucket, but every probe confirms the full
//     canonical form (lengths + arc sets + config fingerprint) — a collision
//     must never return the wrong score.
//   * Sharding bounds contention: a get/put locks one shard's mutex, chosen
//     by the high digest bits, so concurrent workers only collide when they
//     touch the same shard (1/shards of the time).
//   * Each shard runs its own LRU list with a per-shard capacity slice, so
//     total memory is bounded regardless of traffic; eviction is O(1).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/result.hpp"
#include "obs/json.hpp"
#include "rna/secondary_structure.hpp"

namespace srna::serve {

// The exact identity of a cacheable solve: both structures' canonical forms
// plus an opaque fingerprint of everything else that can change the answer
// (algorithm name, layout, ... — see config_fingerprint in service.hpp).
// `digest` is precomputed from exactly these fields.
struct CacheKey {
  std::uint64_t digest = 0;
  Pos len_a = 0;
  Pos len_b = 0;
  std::vector<Arc> arcs_a;
  std::vector<Arc> arcs_b;
  std::string fingerprint;

  static CacheKey make(const SecondaryStructure& a, const SecondaryStructure& b,
                       std::string fingerprint);

  [[nodiscard]] bool operator==(const CacheKey& other) const noexcept {
    return digest == other.digest && len_a == other.len_a && len_b == other.len_b &&
           fingerprint == other.fingerprint && arcs_a == other.arcs_a &&
           arcs_b == other.arcs_b;
  }

  // Approximate heap footprint, for the stats report.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return sizeof(CacheKey) + (arcs_a.capacity() + arcs_b.capacity()) * sizeof(Arc) +
           fingerprint.capacity();
  }
};

struct CacheConfig {
  std::size_t capacity = 4096;  // total entries across all shards (0 disables)
  std::size_t shards = 8;       // clamped to >= 1
};

class ResultCache {
 public:
  explicit ResultCache(CacheConfig config);

  // Looks up `key`, refreshing its recency on a hit.
  [[nodiscard]] std::optional<Score> get(const CacheKey& key);

  // Looks up `key` without touching recency or the hit/miss counters: the
  // second look of a caller whose get() already counted the miss.
  [[nodiscard]] std::optional<Score> peek(const CacheKey& key) const;

  // Inserts (or refreshes) key -> value, evicting the shard's least recently
  // used entry when the shard is at capacity. No-op when capacity == 0.
  void put(CacheKey key, Score value);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::size_t entries = 0;
    std::size_t footprint_bytes = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] obs::Json stats_json() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  // Live heap footprint of all cached entries, maintained exactly on every
  // insert/evict/clear (no shard locks needed to read). Mirrored into the
  // `serve.cache_bytes` gauge for /metrics and the memory ledger.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
      return static_cast<std::size_t>(k.digest);
    }
  };

  struct Entry {
    Score value = 0;
    // Position in the shard's recency list (front = most recent). The list
    // stores pointers into the map's stable node-based keys, so the key is
    // materialized once.
    std::list<const CacheKey*>::iterator lru_it;
  };

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unordered_map<CacheKey, Entry, KeyHash> entries;
    std::list<const CacheKey*> lru;  // front = most recently used
  };

  // Shard choice uses the digest's high bits; the low bits drive the
  // unordered_map buckets, so the two stay independent.
  [[nodiscard]] Shard& shard_for(const CacheKey& key) noexcept {
    return *shards_[static_cast<std::size_t>(key.digest >> 32) % shards_.size()];
  }
  [[nodiscard]] const Shard& shard_for(const CacheKey& key) const noexcept {
    return *shards_[static_cast<std::size_t>(key.digest >> 32) % shards_.size()];
  }

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace srna::serve
