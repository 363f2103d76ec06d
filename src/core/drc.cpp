#include "core/drc.hpp"

#include <bit>
#include <stdexcept>

#include "binary/image.hpp"
#include "binary/state_io.hpp"

namespace vcfr::core {

Drc::Drc(const DrcConfig& config) : config_(config) {
  if (config.entries == 0 || config.assoc == 0 ||
      config.entries % config.assoc != 0) {
    throw std::invalid_argument("Drc: entries must be a multiple of assoc");
  }
  num_sets_ = config.entries / config.assoc;
  if (!std::has_single_bit(num_sets_)) {
    throw std::invalid_argument("Drc: set count must be a power of two");
  }
  entries_.resize(config.entries);
}

uint32_t Drc::set_of(uint32_t key) const {
  // Instruction addresses are byte-granular; fold the low bits so nearby
  // addresses spread over the sets.
  const uint32_t h = key ^ (key >> 13) ^ (key >> 21);
  return h & (num_sets_ - 1);
}

std::optional<DrcEntryValue> Drc::lookup(uint32_t key, bool derand) {
  ++stats_.lookups;
  if (derand) {
    ++stats_.derand_lookups;
  } else {
    ++stats_.rand_lookups;
  }
  const uint32_t set = set_of(key);
  for (uint32_t w = 0; w < config_.assoc; ++w) {
    Entry& e = entries_[set * config_.assoc + w];
    if (e.valid && e.key == key && e.is_derand == derand) {
      if (e.epoch != epoch_) {
        // Epoch-tagged lazy revalidation: check the stale entry against
        // the live (post-incremental-rerand) tables instead of having
        // flushed it eagerly. Mirrors TranslationWalker::walk().
        bool still_valid = false;
        if (reval_ != nullptr) {
          DrcEntryValue live;
          if (derand) {
            live.translation = reval_->to_original(key);
            live.randomized_tag = reval_->is_randomized_addr(key);
          } else {
            live.translation = reval_->to_randomized(key);
            live.randomized_tag = live.translation != key;
          }
          still_valid = live.translation == e.translation &&
                        live.randomized_tag == e.randomized_tag;
        }
        if (!still_valid) {
          e.valid = false;
          ++stats_.epoch_invalidations;
          ++stats_.misses;
          return std::nullopt;
        }
        e.epoch = epoch_;
        ++stats_.epoch_promotions;
      }
      ++stats_.hits;
      e.lru = ++tick_;
      return DrcEntryValue{e.translation, e.randomized_tag};
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void Drc::insert(uint32_t key, bool derand, DrcEntryValue value) {
  const uint32_t set = set_of(key);
  Entry* victim = nullptr;
  for (uint32_t w = 0; w < config_.assoc; ++w) {
    Entry& e = entries_[set * config_.assoc + w];
    if (e.valid && e.key == key && e.is_derand == derand) {
      victim = &e;  // refresh in place
      break;
    }
    if (!e.valid) {
      if (victim == nullptr || victim->valid) victim = &e;
    } else if (victim == nullptr || (victim->valid && e.lru < victim->lru)) {
      victim = &e;
    }
  }
  victim->valid = true;
  victim->is_derand = derand;
  victim->randomized_tag = value.randomized_tag;
  victim->key = key;
  victim->translation = value.translation;
  victim->lru = ++tick_;
  victim->epoch = epoch_;
}

uint32_t Drc::flush() {
  uint32_t flushed = 0;
  for (auto& e : entries_) {
    if (e.valid) ++flushed;
    e.valid = false;
  }
  reval_ = nullptr;
  reval_armed_ = false;
  return flushed;
}

uint32_t Drc::valid_entries() const {
  uint32_t n = 0;
  for (const auto& e : entries_) {
    if (e.valid) ++n;
  }
  return n;
}

bool Drc::contains(uint32_t key, bool derand) const {
  const uint32_t set = set_of(key);
  for (uint32_t w = 0; w < config_.assoc; ++w) {
    const Entry& e = entries_[set * config_.assoc + w];
    if (e.valid && e.key == key && e.is_derand == derand) return true;
  }
  return false;
}

void Drc::state(binary::StateIo& io) {
  io.u64(tick_);
  io.fixed(entries_.size(), 1u << 24, "checkpoint DRC geometry mismatch");
  for (Entry& e : entries_) {
    io.b(e.valid);
    io.b(e.is_derand);
    io.b(e.randomized_tag);
    io.u32(e.key);
    io.u32(e.translation);
    io.u64(e.lru);
    io.u64(e.epoch);
  }
  io.u64(stats_.lookups);
  io.u64(stats_.hits);
  io.u64(stats_.misses);
  io.u64(stats_.derand_lookups);
  io.u64(stats_.rand_lookups);
  io.u64(stats_.epoch_promotions);
  io.u64(stats_.epoch_invalidations);
  io.u64(epoch_);
  // The reval tables pointer is process-owned; the kernel re-points it
  // through rebind_reval() once the owning process is restored.
  io.b(reval_armed_);
  if (!io.loading()) return;
  reval_ = nullptr;
  // What lookup() and insert() maintain: ticks and epochs from the DRC's
  // own clocks, each entry in its key's set, a (key, type) at most once.
  bool clocks_ok = true;
  bool sets_ok = true;
  bool unique_ok = true;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    clocks_ok = clocks_ok && e.lru <= tick_ && e.epoch <= epoch_;
    if (!e.valid) continue;
    const size_t set = i / config_.assoc;
    sets_ok = sets_ok && set_of(e.key) == set;
    for (size_t j = set * config_.assoc; j < i; ++j) {
      const Entry& o = entries_[j];
      unique_ok = unique_ok && !(o.valid && o.key == e.key &&
                                 o.is_derand == e.is_derand);
    }
  }
  binary::StateIo::require(clocks_ok,
                           "DRC entry LRU tick or epoch ahead of the DRC's");
  binary::StateIo::require(sets_ok, "DRC entry outside its key's set");
  binary::StateIo::require(unique_ok, "DRC entry valid twice in one set");
}

void Drc::register_stats(const telemetry::Scope& scope) const {
  scope.counter("lookups", &stats_.lookups);
  scope.counter("hits", &stats_.hits);
  scope.counter("misses", &stats_.misses);
  scope.counter("derand_lookups", &stats_.derand_lookups);
  scope.counter("rand_lookups", &stats_.rand_lookups);
  scope.counter("epoch_promotions", &stats_.epoch_promotions);
  scope.counter("epoch_invalidations", &stats_.epoch_invalidations);
  scope.gauge("miss_rate", [this] { return stats_.miss_rate(); });
  scope.gauge("occupancy", [this] {
    return static_cast<double>(valid_entries());
  });
}

}  // namespace vcfr::core
