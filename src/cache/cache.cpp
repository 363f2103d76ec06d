#include "cache/cache.hpp"

#include <bit>
#include <stdexcept>

#include "binary/state_io.hpp"

namespace vcfr::cache {

Cache::Cache(const CacheConfig& config) : config_(config) {
  if (config.line_bytes == 0 || !std::has_single_bit(config.line_bytes)) {
    throw std::invalid_argument(config.name + ": line size must be a power of two");
  }
  if (config.assoc == 0 || config.size_bytes % (config.line_bytes * config.assoc) != 0) {
    throw std::invalid_argument(config.name + ": size/assoc/line mismatch");
  }
  num_sets_ = config.size_bytes / (config.line_bytes * config.assoc);
  if (!std::has_single_bit(num_sets_)) {
    throw std::invalid_argument(config.name + ": set count must be a power of two");
  }
  line_shift_ = static_cast<uint32_t>(std::countr_zero(config.line_bytes));
  lines_.resize(static_cast<size_t>(num_sets_) * config.assoc);
}

uint32_t Cache::set_index(uint32_t addr) const {
  return (addr >> line_shift_) & (num_sets_ - 1);
}

uint32_t Cache::tag_of(uint32_t addr) const {
  return addr >> line_shift_ >> std::countr_zero(num_sets_);
}

uint32_t Cache::line_addr(uint32_t tag, uint32_t set) const {
  return ((tag << std::countr_zero(num_sets_)) | set) << line_shift_;
}

bool Cache::contains(uint32_t addr) const {
  const uint32_t set = set_index(addr);
  const uint32_t tag = tag_of(addr);
  for (uint32_t w = 0; w < config_.assoc; ++w) {
    const Line& line = lines_[set * config_.assoc + w];
    if (line.valid && line.tag == tag) return true;
  }
  return false;
}

CacheOutcome Cache::access(uint32_t addr, bool write) {
  ++stats_.accesses;
  const uint32_t set = set_index(addr);
  const uint32_t tag = tag_of(addr);
  for (uint32_t w = 0; w < config_.assoc; ++w) {
    Line& line = lines_[set * config_.assoc + w];
    if (line.valid && line.tag == tag) {
      ++stats_.hits;
      if (line.prefetched) {
        ++stats_.prefetch_hits;
        line.prefetched = false;
      }
      line.lru = ++tick_;
      line.dirty = line.dirty || write;
      return {.hit = true};
    }
  }
  ++stats_.misses;
  CacheOutcome out = install(addr, write, /*prefetched=*/false);
  out.hit = false;
  return out;
}

CacheOutcome Cache::fill_prefetch(uint32_t addr) {
  if (contains(addr)) return {.hit = true};
  ++stats_.prefetch_fills;
  CacheOutcome out = install(addr, /*dirty=*/false, /*prefetched=*/true);
  out.hit = false;
  return out;
}

CacheOutcome Cache::install(uint32_t addr, bool dirty, bool prefetched) {
  const uint32_t set = set_index(addr);
  const uint32_t tag = tag_of(addr);
  Line* victim = nullptr;
  for (uint32_t w = 0; w < config_.assoc; ++w) {
    Line& line = lines_[set * config_.assoc + w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (victim == nullptr || line.lru < victim->lru) victim = &line;
  }
  CacheOutcome out;
  if (victim->valid) {
    out.evicted_valid = true;
    out.evicted_dirty = victim->dirty;
    out.evicted_line_addr = line_addr(victim->tag, set);
    if (victim->dirty) ++stats_.writebacks;
    if (victim->prefetched) ++stats_.prefetch_evicted_unused;
  }
  victim->valid = true;
  victim->dirty = dirty;
  victim->prefetched = prefetched;
  victim->tag = tag;
  victim->lru = ++tick_;
  return out;
}

void Cache::state(binary::StateIo& io) {
  io.u64(tick_);
  io.fixed(lines_.size(), 1u << 28,
           config_.name + ": checkpoint geometry mismatch");
  for (Line& line : lines_) {
    io.b(line.valid);
    io.b(line.dirty);
    io.b(line.prefetched);
    io.u32(line.tag);
    io.u64(line.lru);
  }
  if (io.loading()) {
    // What access() and install() maintain: every tick was handed out by
    // the cache's own clock, and a set holds a tag at most once.
    bool ticks_ok = true;
    bool tags_ok = true;
    for (size_t set = 0; set < num_sets_; ++set) {
      const Line* ways = &lines_[set * config_.assoc];
      for (uint32_t w = 0; w < config_.assoc; ++w) {
        ticks_ok = ticks_ok && ways[w].lru <= tick_;
        for (uint32_t v = 0; v < w; ++v) {
          tags_ok = tags_ok && !(ways[w].valid && ways[v].valid &&
                                 ways[w].tag == ways[v].tag);
        }
      }
    }
    binary::StateIo::require(ticks_ok,
                             config_.name + ": line LRU tick ahead of the clock");
    binary::StateIo::require(tags_ok,
                             config_.name + ": a tag is valid twice in one set");
  }
  io.u64(stats_.accesses);
  io.u64(stats_.hits);
  io.u64(stats_.misses);
  io.u64(stats_.writebacks);
  io.u64(stats_.prefetch_fills);
  io.u64(stats_.prefetch_hits);
  io.u64(stats_.prefetch_evicted_unused);
}

void Cache::register_stats(const telemetry::Scope& scope) const {
  scope.counter("accesses", &stats_.accesses);
  scope.counter("hits", &stats_.hits);
  scope.counter("misses", &stats_.misses);
  scope.counter("writebacks", &stats_.writebacks);
  scope.counter("prefetch_fills", &stats_.prefetch_fills);
  scope.counter("prefetch_hits", &stats_.prefetch_hits);
  scope.counter("prefetch_evicted_unused", &stats_.prefetch_evicted_unused);
  scope.gauge("miss_rate", [this] { return stats_.miss_rate(); });
}

}  // namespace vcfr::cache
