#include "cache/tlb.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "binary/state_io.hpp"

namespace vcfr::cache {

namespace {
constexpr uint32_t kMaxEntries = 1u << 20;
}  // namespace

Tlb::Tlb(const TlbConfig& config) : config_(config) {
  if (config.entries == 0 || config.entries > kMaxEntries) {
    throw std::invalid_argument("Tlb: entries must be in [1, 2^20]");
  }
  entries_.resize(config.entries);
  // At most a quarter full, so a probe almost never walks past one slot.
  uint32_t bits = 2;
  while ((1u << bits) < 4 * config.entries) ++bits;
  index_.assign(size_t{1} << bits, kNone);
  index_mask_ = (1u << bits) - 1;
  index_shift_ = 32 - bits;
  prev_.assign(config.entries, kNone);
  next_.assign(config.entries, kNone);
}

uint32_t Tlb::miss(uint32_t page) {
  ++stats_.misses;
  uint32_t slot = 0;
  if (filled_ < entries_.size()) {
    slot = filled_++;
  } else {
    slot = tail_;
    index_erase(slot);
    unlink(slot);
  }
  entries_[slot] = {.valid = true, .page = page, .lru = ++tick_};
  index_insert(slot);
  push_front(slot);
  return config_.miss_penalty;
}

void Tlb::index_insert(uint32_t slot) {
  uint32_t h = home(entries_[slot].page);
  while (index_[h] != kNone) h = (h + 1) & index_mask_;
  index_[h] = slot;
}

void Tlb::index_erase(uint32_t slot) {
  uint32_t hole = home(entries_[slot].page);
  while (index_[hole] != slot) hole = (hole + 1) & index_mask_;
  for (uint32_t next = (hole + 1) & index_mask_; index_[next] != kNone;
       next = (next + 1) & index_mask_) {
    const uint32_t want = home(entries_[index_[next]].page);
    if (((next - want) & index_mask_) >= ((next - hole) & index_mask_)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kNone;
}

void Tlb::rebuild() {
  filled_ = 0;
  while (filled_ < entries_.size() && entries_[filled_].valid) ++filled_;
  binary::StateIo::require(
      std::none_of(entries_.begin() + filled_, entries_.end(),
                   [](const Entry& e) { return e.valid; }),
      "checkpoint TLB valid entries are not a prefix of its slots");
  std::vector<uint32_t> order(filled_);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return entries_[a].lru < entries_[b].lru;
  });
  std::fill(index_.begin(), index_.end(), kNone);
  head_ = tail_ = kNone;
  for (const uint32_t s : order) {  // oldest first: the last one is head_
    const Entry& e = entries_[s];
    binary::StateIo::require(head_ == kNone || e.lru > entries_[head_].lru,
                             "checkpoint TLB repeats an lru");
    binary::StateIo::require(e.lru <= tick_,
                             "checkpoint TLB entry is newer than its tick");
    binary::StateIo::require(find(e.page) == kNone,
                             "checkpoint TLB repeats a page");
    index_insert(s);
    push_front(s);
  }
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
  if (io.loading()) rebuild();
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
