// De-Randomization Cache (DRC) — the paper's central hardware structure
// (§IV-B, Figures 7/8).
//
// A small (default direct-mapped) cache of address-translation entries.
// Each entry holds:
//   * a valid bit,
//   * a type bit ("derand tag"): set = the entry de-randomizes a randomized
//     address; clear = it randomizes an original address,
//   * the "randomized tag": set when the entry's original address was
//     safely randomized (so transfers to that *original* location are
//     prohibited, §IV-A),
//   * the address tag and the translated address.
//
// Misses are serviced by walking the in-memory tables through the unified
// L2 (core/translation.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "telemetry/stat_registry.hpp"

namespace vcfr::binary {
class StateIo;
struct TranslationTables;
}  // namespace vcfr::binary

namespace vcfr::core {

struct DrcConfig {
  uint32_t entries = 128;   // the paper evaluates 64 / 128 / 512
  uint32_t assoc = 1;       // direct-mapped in the paper; >1 for ablation
  uint32_t hit_latency = 1; // pipelined lookup
  /// Dedicated second-level DRC buffer (the alternative §IV-B mentions and
  /// rejects in favour of sharing the unified L2). 0 = shared-L2 design
  /// (the paper's choice); >0 = a dedicated L2 DRC with this many entries.
  uint32_t l2_entries = 0;
  uint32_t l2_assoc = 4;
  uint32_t l2_hit_latency = 4;
};

struct DrcStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t derand_lookups = 0;
  uint64_t rand_lookups = 0;
  /// Epoch-tagged invalidation (continuous re-rand): stale-epoch entries
  /// whose translation still matched the live tables, promoted in place.
  uint64_t epoch_promotions = 0;
  /// Stale-epoch entries whose translation moved; dropped on lookup.
  uint64_t epoch_invalidations = 0;

  [[nodiscard]] double miss_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(misses) /
                              static_cast<double>(lookups);
  }
};

/// A cached translation with its protection tag.
struct DrcEntryValue {
  uint32_t translation = 0;
  bool randomized_tag = false;
};

class Drc {
 public:
  explicit Drc(const DrcConfig& config);

  /// Looks up a translation entry. `derand` selects entry type: true for
  /// randomized->original, false for original->randomized. Updates stats
  /// and replacement state.
  std::optional<DrcEntryValue> lookup(uint32_t key, bool derand);

  /// Installs an entry after a table walk.
  void insert(uint32_t key, bool derand, DrcEntryValue value);

  /// Probe without statistics or replacement update.
  [[nodiscard]] bool contains(uint32_t key, bool derand) const;

  /// Invalidates every entry (process context switch, §IV-B: translations
  /// are per-process secrets). Returns how many valid entries were lost.
  /// Also disarms epoch revalidation (the tables are gone).
  uint32_t flush();

  /// Epoch-tagged invalidation (continuous re-rand): instead of flushing
  /// after an in-place re-randomization, bump the epoch and
  /// keep `tables` (the live, just-patched tables) for lazy revalidation.
  /// A stale-epoch entry that still matches the tables is promoted on its
  /// next lookup (a hit — the tag check rides the existing pipeline); one
  /// that moved is dropped (a miss, serviced by the normal walk). `tables`
  /// must stay valid until the next flush()/bump_epoch()/rebind_reval().
  void bump_epoch(const binary::TranslationTables* tables) {
    ++epoch_;
    reval_ = tables;
    reval_armed_ = true;
  }

  /// Re-points the revalidation tables without touching the epoch
  /// (checkpoint restore: the owning process's tables were reallocated).
  void rebind_reval(const binary::TranslationTables* tables) {
    if (reval_armed_) reval_ = tables;
  }

  [[nodiscard]] uint32_t valid_entries() const;

  [[nodiscard]] const DrcConfig& config() const { return config_; }
  [[nodiscard]] const DrcStats& stats() const { return stats_; }
  [[nodiscard]] uint32_t size_bytes() const {
    return config_.entries * 8;  // 32-bit tag + 32-bit translation per entry
  }
  void reset_stats() { stats_ = DrcStats{}; }

  /// Binds this DRC's live statistics into `scope` (plus an occupancy
  /// gauge — valid entries at sample time).
  void register_stats(const telemetry::Scope& scope) const;

  /// Checkpoint support: entry array (incl. LRU ticks) + statistics.
  void state(binary::StateIo& io);

 private:
  struct Entry {
    bool valid = false;
    bool is_derand = false;   // the "derand tag" type bit
    bool randomized_tag = false;
    uint32_t key = 0;
    uint32_t translation = 0;
    uint64_t lru = 0;
    uint64_t epoch = 0;  // re-rand epoch at fill time (epoch-tagged inval)
  };

  [[nodiscard]] uint32_t set_of(uint32_t key) const;

  DrcConfig config_;
  uint32_t num_sets_ = 0;
  std::vector<Entry> entries_;
  uint64_t tick_ = 0;
  DrcStats stats_;
  // Epoch-tagged invalidation state (legacy runs never bump the epoch, so
  // every entry matches epoch_ == 0 and lookups behave exactly as before).
  uint64_t epoch_ = 0;
  const binary::TranslationTables* reval_ = nullptr;
  bool reval_armed_ = false;
};

}  // namespace vcfr::core
