// Return-address randomization bitmap cache (§IV-C, Figure 10).
//
// The architecture tracks which stack slots hold randomized return
// addresses in a bitmap stored in user-invisible paged memory; a small
// on-chip cache holds the recently used bitmap fragments. Calls set bits,
// returns/overwrites clear them, and loads of marked slots trigger the
// automatic de-randomization path. The functional bit state lives in the
// golden-model emulator; this class models the *timing* and occupancy of
// the bitmap cache.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/memhier.hpp"
#include "telemetry/stat_registry.hpp"

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::core {

struct RetBitmapConfig {
  /// Stack bytes covered by one cached bitmap line: one bit per 4-byte
  /// slot, 64-byte lines -> 2 KiB of stack per line.
  uint32_t entries = 16;     // cached bitmap lines
  uint32_t line_cover = 2048;  // stack bytes covered per line
  /// Simulated backing-store base (user-invisible pages).
  uint32_t store_base = 0x6800'0000;
  uint32_t store_bytes = 64 * 1024;
};

struct RetBitmapStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;
  /// Valid lines carried across an epoch-tagged re-randomization instead
  /// of being flushed (note_rerand).
  uint64_t rerand_retained = 0;

  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

class RetBitmapCache {
 public:
  RetBitmapCache(const RetBitmapConfig& config, cache::MemHier& mem);

  /// Touches the bitmap fragment covering stack address `addr` at time
  /// `now`; returns added latency (0 on hit, an L2 walk on miss).
  uint32_t access(uint32_t addr, uint64_t now);

  /// Invalidates every cached fragment (context switch: the bitmap is
  /// per-process state, §IV-C). Returns how many valid lines were lost.
  uint32_t flush();

  /// Epoch-tagged re-randomization: the incremental patcher rewrites the
  /// *values* of marked stack slots in place, but which slots are marked
  /// does not change — so cached fragments stay valid. Records how many
  /// lines were retained (the warm state a legacy flush would have lost).
  void note_rerand() {
    for (const auto& e : entries_) {
      if (e.valid) ++stats_.rerand_retained;
    }
  }

  [[nodiscard]] const RetBitmapStats& stats() const { return stats_; }
  [[nodiscard]] const RetBitmapConfig& config() const { return config_; }

  /// Binds this bitmap cache's live statistics into `scope`.
  void register_stats(const telemetry::Scope& scope) const;

  /// Checkpoint support (the MemHier reference is rebound by the owner).
  void state(binary::StateIo& io);

 private:
  struct Entry {
    bool valid = false;
    uint32_t region = 0;
    uint64_t lru = 0;
  };

  RetBitmapConfig config_;
  cache::MemHier& mem_;
  std::vector<Entry> entries_;
  uint64_t tick_ = 0;
  RetBitmapStats stats_;
};

}  // namespace vcfr::core
