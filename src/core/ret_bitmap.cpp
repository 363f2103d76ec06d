#include "core/ret_bitmap.hpp"

#include "binary/state_io.hpp"

namespace vcfr::core {

RetBitmapCache::RetBitmapCache(const RetBitmapConfig& config,
                               cache::MemHier& mem)
    : config_(config), mem_(mem) {
  entries_.resize(config.entries);
  mem_.dtlb().set_invisible(config.store_base, config.store_bytes);
}

uint32_t RetBitmapCache::access(uint32_t addr, uint64_t now) {
  ++stats_.accesses;
  const uint32_t region = addr / config_.line_cover;
  Entry* victim = nullptr;
  for (auto& e : entries_) {
    if (e.valid && e.region == region) {
      e.lru = ++tick_;
      return 0;
    }
    if (!e.valid) {
      if (victim == nullptr || victim->valid) victim = &e;
    } else if (victim == nullptr || (victim->valid && e.lru < victim->lru)) {
      victim = &e;
    }
  }
  ++stats_.misses;
  victim->valid = true;
  victim->region = region;
  victim->lru = ++tick_;
  const uint32_t line =
      config_.store_base + (region * (config_.line_cover / 32)) %
                               (config_.store_bytes ? config_.store_bytes : 1);
  return mem_.table_read(line, now).latency;
}

uint32_t RetBitmapCache::flush() {
  uint32_t lost = 0;
  for (auto& e : entries_) {
    if (e.valid) ++lost;
    e.valid = false;
  }
  return lost;
}

void RetBitmapCache::state(binary::StateIo& io) {
  io.u64(tick_);
  io.fixed(entries_.size(), 1u << 20,
           "checkpoint bitmap-cache geometry mismatch");
  for (Entry& e : entries_) {
    io.b(e.valid);
    io.u32(e.region);
    io.u64(e.lru);
  }
  if (io.loading()) {
    // What access() maintains: every tick was handed out by the cache's
    // own clock, and a region is valid in at most one line.
    bool ticks_ok = true;
    bool regions_ok = true;
    for (size_t i = 0; i < entries_.size(); ++i) {
      ticks_ok = ticks_ok && entries_[i].lru <= tick_;
      for (size_t j = 0; j < i; ++j) {
        regions_ok = regions_ok && !(entries_[i].valid && entries_[j].valid &&
                                     entries_[i].region == entries_[j].region);
      }
    }
    io.require(ticks_ok, "bitmap-cache line LRU tick ahead of the clock");
    io.require(regions_ok, "bitmap-cache region valid twice");
  }
  io.u64(stats_.accesses);
  io.u64(stats_.misses);
  io.u64(stats_.rerand_retained);
}

void RetBitmapCache::register_stats(const telemetry::Scope& scope) const {
  scope.counter("accesses", &stats_.accesses);
  scope.counter("misses", &stats_.misses);
  scope.counter("rerand_retained", &stats_.rerand_retained);
  scope.gauge("miss_rate", [this] { return stats_.miss_rate(); });
}

}  // namespace vcfr::core
