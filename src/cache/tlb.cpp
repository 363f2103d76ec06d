#include "cache/tlb.hpp"

#include <algorithm>

#include "binary/state_io.hpp"

namespace vcfr::cache {

uint32_t Tlb::access(uint32_t addr) {
  ++stats_.accesses;
  const uint32_t page = addr >> config_.page_bits;
  Entry* victim = nullptr;
  for (auto& e : entries_) {
    if (e.valid && e.page == page) {
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
  victim->page = page;
  victim->lru = ++tick_;
  return config_.miss_penalty;
}

void Tlb::set_invisible(uint32_t base, uint32_t bytes) {
  const uint32_t first = base >> config_.page_bits;
  const uint32_t last = (base + bytes - 1) >> config_.page_bits;
  for (uint32_t p = first; p <= last; ++p) invisible_pages_.insert(p);
}

bool Tlb::user_visible(uint32_t addr) const {
  return !invisible_pages_.contains(addr >> config_.page_bits);
}

bool Tlb::check_user_access(uint32_t addr) {
  if (user_visible(addr)) return true;
  ++stats_.visibility_faults;
  return false;
}

void Tlb::state(binary::StateIo& io) {
  io.u64(tick_);
  io.fixed(entries_.size(), 1u << 20, "checkpoint TLB geometry mismatch");
  for (Entry& e : entries_) {
    io.b(e.valid);
    io.u32(e.page);
    io.u64(e.lru);
  }
  std::vector<uint32_t> pages(invisible_pages_.begin(),
                              invisible_pages_.end());
  std::sort(pages.begin(), pages.end());
  io.u32s(pages, 1u << 20);
  if (io.loading()) {
    invisible_pages_.clear();
    invisible_pages_.insert(pages.begin(), pages.end());
  }
  io.u64(stats_.accesses);
  io.u64(stats_.misses);
  io.u64(stats_.visibility_faults);
}

void Tlb::register_stats(const telemetry::Scope& scope) const {
  scope.counter("accesses", &stats_.accesses);
  scope.counter("misses", &stats_.misses);
  scope.counter("visibility_faults", &stats_.visibility_faults);
  scope.gauge("miss_rate", [this] { return stats_.miss_rate(); });
}

}  // namespace vcfr::cache
