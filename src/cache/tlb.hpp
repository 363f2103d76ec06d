// Fully associative TLB with LRU replacement and the paper's page
// visibility-bit extension (§IV-B): pages holding the randomization /
// de-randomization tables (and the return-address bitmap) are marked
// invisible to user-space instructions; only the micro-architecture may
// touch them while handling DRC misses.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "telemetry/stat_registry.hpp"

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::cache {

struct TlbConfig {
  uint32_t entries = 64;       // fully associative (§VI-C)
  uint32_t page_bits = 12;     // 4 KiB pages
  uint32_t miss_penalty = 20;  // page-walk cycles
};

struct TlbStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;
  uint64_t visibility_faults = 0;

  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config) : config_(config) {
    entries_.resize(config.entries);
  }

  /// Translates (identity mapping; only timing and protection modelled).
  /// Returns the added latency: 0 on hit, miss_penalty on miss.
  uint32_t access(uint32_t addr);

  /// Marks [base, base+bytes) invisible to user-space instructions.
  void set_invisible(uint32_t base, uint32_t bytes);

  /// True when a user-space instruction may access `addr`. Hardware-
  /// initiated table walks bypass this check.
  [[nodiscard]] bool user_visible(uint32_t addr) const;

  /// Records a user access for protection purposes; returns false (and
  /// counts a fault) when the page is invisible.
  bool check_user_access(uint32_t addr);

  [[nodiscard]] const TlbStats& stats() const { return stats_; }
  [[nodiscard]] const TlbConfig& config() const { return config_; }

  /// Binds this TLB's live statistics into `scope`.
  void register_stats(const telemetry::Scope& scope) const;

  /// Checkpoint support: entries, invisible-page set (written sorted for
  /// a deterministic byte stream), LRU tick, statistics.
  void state(binary::StateIo& io);

 private:
  struct Entry {
    bool valid = false;
    uint32_t page = 0;
    uint64_t lru = 0;
  };

  TlbConfig config_;
  std::vector<Entry> entries_;
  std::unordered_set<uint32_t> invisible_pages_;
  uint64_t tick_ = 0;
  TlbStats stats_;
};

}  // namespace vcfr::cache
