// Fully associative TLB with exact LRU replacement and the paper's page
// visibility-bit extension (§IV-B): pages holding the randomization /
// de-randomization tables (and the return-address bitmap) are marked
// invisible to user-space instructions; only the micro-architecture may
// touch them while handling DRC misses.
//
// access() runs on every data access and every fetch-line change, so a hit
// and a miss each cost O(1): an open-addressed page -> slot index finds the
// entry, and an intrusive recency list over the slots names the victim.
// Nothing invalidates an entry, so the valid entries are always a prefix
// of the slots and the replacement rule "first invalid slot, else the
// minimum lru" is exactly "the next unfilled slot, else the list tail".
// The index and the list are derived state: state() serializes only the
// entries, the tick, the invisible pages and the statistics, and rebuilds
// both on load.
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
  /// Throws std::invalid_argument unless 1 <= entries <= 2^20.
  explicit Tlb(const TlbConfig& config);

  /// Translates (identity mapping; only timing and protection modelled).
  /// Returns the added latency: 0 on hit, miss_penalty on miss.
  uint32_t access(uint32_t addr) {
    ++stats_.accesses;
    const uint32_t page = addr >> config_.page_bits;
    const uint32_t slot = find(page);
    if (slot == kNone) return miss(page);
    entries_[slot].lru = ++tick_;
    if (slot != head_) {
      unlink(slot);
      push_front(slot);
    }
    return 0;
  }

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
  /// a deterministic byte stream), LRU tick, statistics. Loading rejects
  /// (kImplausible) valid entries that are not a prefix of the slots, a
  /// repeated page or lru among them, or an lru beyond the tick — states
  /// no access sequence produces, on which the index and the list could
  /// not reproduce the minimum-lru victim.
  void state(binary::StateIo& io);

 private:
  struct Entry {
    bool valid = false;
    uint32_t page = 0;
    uint64_t lru = 0;
  };

  static constexpr uint32_t kNone = ~0u;

  [[nodiscard]] uint32_t home(uint32_t page) const {
    return (page * 0x9e3779b9u) >> index_shift_;
  }
  /// Index probe: the slot holding `page`, or kNone.
  [[nodiscard]] uint32_t find(uint32_t page) const {
    for (uint32_t h = home(page);; h = (h + 1) & index_mask_) {
      const uint32_t slot = index_[h];
      if (slot == kNone || entries_[slot].page == page) return slot;
    }
  }
  /// The miss path: fills the next unfilled slot, else evicts the tail.
  uint32_t miss(uint32_t page);
  void index_insert(uint32_t slot);
  /// Backward-shift erase of `slot`'s page, so probe chains need no
  /// tombstones.
  void index_erase(uint32_t slot);
  void unlink(uint32_t slot) {
    const uint32_t p = prev_[slot];
    const uint32_t n = next_[slot];
    (p == kNone ? head_ : next_[p]) = n;
    (n == kNone ? tail_ : prev_[n]) = p;
  }
  void push_front(uint32_t slot) {
    prev_[slot] = kNone;
    next_[slot] = head_;
    (head_ == kNone ? tail_ : prev_[head_]) = slot;
    head_ = slot;
  }
  /// Rebuilds the index, the list and filled_ from entries_.
  void rebuild();

  TlbConfig config_;
  std::vector<Entry> entries_;
  std::unordered_set<uint32_t> invisible_pages_;
  uint64_t tick_ = 0;
  TlbStats stats_;

  // Derived from entries_, never serialized.
  std::vector<uint32_t> index_;  // page -> slot, kNone when empty
  uint32_t index_mask_ = 0;
  uint32_t index_shift_ = 0;
  std::vector<uint32_t> prev_;  // recency list: head_ most recent,
  std::vector<uint32_t> next_;  // tail_ the LRU victim
  uint32_t head_ = kNone;
  uint32_t tail_ = kNone;
  uint32_t filled_ = 0;  // valid entries are slots [0, filled_)
};

}  // namespace vcfr::cache
