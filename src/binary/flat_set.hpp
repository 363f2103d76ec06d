// Open-addressing hash set for 32-bit address keys.
//
// The §IV-C return bitmap is probed on every VCFR load and cleared on
// every store, pop and return, and the un-randomized failover set is
// probed on every transfer to an original-space address, where
// std::unordered_set's node allocation and pointer chasing dominate.
// FlatSet32 stores keys inline in a power-of-two slot array with linear
// probing: a lookup is one multiply-shift hash, one array index, and
// (almost always) zero or one extra probe. Erase is backward-shift, with
// no tombstones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace vcfr::binary {

/// 32-bit mix (xorshift-multiply); also spreads translation-table keys
/// over the table region's buckets (see table_entry_addr in loader.cpp).
inline uint32_t mix32(uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352du;
  x ^= x >> 15;
  x *= 0x846ca68bu;
  x ^= x >> 16;
  return x;
}

/// Open-addressing set of uint32 keys with backward-shift erase. Iteration
/// runs in slot order, which depends on the insert/erase history.
class FlatSet32 {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t*;
    using reference = uint32_t;

    const_iterator() = default;

    uint32_t operator*() const { return set_->slots_[idx_]; }
    const_iterator& operator++() {
      ++idx_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return idx_ != o.idx_; }

   private:
    friend class FlatSet32;
    const_iterator(const FlatSet32* set, size_t idx) : set_(set), idx_(idx) {
      skip();
    }
    void skip() {
      while (idx_ < set_->used_.size() && set_->used_[idx_] == 0) ++idx_;
    }
    const FlatSet32* set_ = nullptr;
    size_t idx_ = 0;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, used_.size()}; }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool contains(uint32_t key) const {
    return find_slot(key) != kAbsent;
  }

  /// Returns true when a new element was inserted.
  bool insert(uint32_t key) {
    grow_for(size_ + 1);
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0) {
      if (slots_[idx] == key) return false;
      idx = (idx + 1) & mask_;
    }
    used_[idx] = 1;
    slots_[idx] = key;
    ++size_;
    return true;
  }

  /// Backward-shift deletion: no tombstones, so probe chains stay exactly
  /// as a fresh insert-only build would lay them out. Returns true when the
  /// key was present.
  bool erase(uint32_t key) {
    size_t hole = find_slot(key);
    if (hole == kAbsent) return false;
    size_t next = (hole + 1) & mask_;
    while (used_[next] != 0) {
      const size_t home = mix32(slots_[next]) & mask_;
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
      next = (next + 1) & mask_;
    }
    used_[hole] = 0;
    slots_[hole] = 0;
    --size_;
    return true;
  }

  void reserve(size_t n) { grow_for(n); }

  void clear() {
    slots_.clear();
    used_.clear();
    mask_ = 0;
    size_ = 0;
  }

  bool operator==(const FlatSet32& o) const {
    if (size_ != o.size_) return false;
    for (const uint32_t k : *this) {
      if (!o.contains(k)) return false;
    }
    return true;
  }

 private:
  static constexpr size_t kAbsent = ~size_t{0};

  /// The hot-path probe: index of `key`'s slot, or kAbsent.
  [[nodiscard]] size_t find_slot(uint32_t key) const {
    if (size_ == 0) return kAbsent;
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0) {
      if (slots_[idx] == key) return idx;
      idx = (idx + 1) & mask_;
    }
    return kAbsent;
  }

  void grow_for(size_t n) {
    // Rehash at 3/4 occupancy so linear probes stay short.
    if (n * 4 <= slots_.size() * 3) return;
    size_t cap = slots_.size() == 0 ? 16 : slots_.size() * 2;
    while (n * 4 > cap * 3) cap *= 2;
    std::vector<uint32_t> old_slots = std::move(slots_);
    std::vector<uint8_t> old_used = std::move(used_);
    slots_.assign(cap, 0);
    used_.assign(cap, 0);
    mask_ = cap - 1;
    for (size_t i = 0; i < old_used.size(); ++i) {
      if (old_used[i] == 0) continue;
      size_t idx = mix32(old_slots[i]) & mask_;
      while (used_[idx] != 0) idx = (idx + 1) & mask_;
      used_[idx] = 1;
      slots_[idx] = old_slots[i];
    }
  }

  std::vector<uint32_t> slots_;
  std::vector<uint8_t> used_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace vcfr::binary
