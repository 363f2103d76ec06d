// Generic set-associative, write-back, write-allocate cache model with
// true-LRU replacement. Timing is composed by MemHier; this class tracks
// contents, replacement state, and statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/stat_registry.hpp"

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::cache {

struct CacheConfig {
  std::string name = "cache";
  uint32_t size_bytes = 32 * 1024;
  uint32_t assoc = 2;
  uint32_t line_bytes = 64;
  uint32_t hit_latency = 2;  // cycles
};

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t writebacks = 0;          // dirty evictions
  uint64_t prefetch_fills = 0;      // lines installed by the prefetcher
  uint64_t prefetch_hits = 0;       // demand hits on prefetched lines
  uint64_t prefetch_evicted_unused = 0;  // prefetched lines evicted untouched

  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
  /// Fraction of prefetched lines that were never used before eviction —
  /// the "pre-fetch miss rate" axis of the paper's Figure 3.
  [[nodiscard]] double prefetch_useless_rate() const {
    const uint64_t resolved = prefetch_hits + prefetch_evicted_unused;
    return resolved == 0 ? 0.0
                         : static_cast<double>(prefetch_evicted_unused) /
                               static_cast<double>(resolved);
  }
};

/// Outcome of one cache operation, with eviction info the caller must
/// propagate (write-back to the next level).
struct CacheOutcome {
  bool hit = false;
  bool evicted_valid = false;
  bool evicted_dirty = false;
  uint32_t evicted_line_addr = 0;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Demand access to the line containing `addr`; allocates on miss.
  CacheOutcome access(uint32_t addr, bool write);

  /// Installs a line fetched by the prefetcher (no demand statistics).
  CacheOutcome fill_prefetch(uint32_t addr);

  /// Invalidate-free probe (no LRU update, no stats).
  [[nodiscard]] bool contains(uint32_t addr) const;

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] uint32_t num_sets() const { return num_sets_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Binds this cache's live statistics into `scope` (telemetry naming:
  /// accesses/hits/misses/writebacks/prefetch_* counters + miss_rate).
  void register_stats(const telemetry::Scope& scope) const;

  /// Checkpoint support: tag array (incl. LRU ticks) + statistics.
  void state(binary::StateIo& io);

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;  // installed by prefetcher, not yet demanded
    uint32_t tag = 0;
    uint64_t lru = 0;         // higher = more recently used
  };

  [[nodiscard]] uint32_t set_index(uint32_t addr) const;
  [[nodiscard]] uint32_t tag_of(uint32_t addr) const;
  [[nodiscard]] uint32_t line_addr(uint32_t tag, uint32_t set) const;
  CacheOutcome install(uint32_t addr, bool dirty, bool prefetched);

  CacheConfig config_;
  uint32_t num_sets_ = 0;
  uint32_t line_shift_ = 0;
  std::vector<Line> lines_;  // num_sets_ * assoc
  uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace vcfr::cache
