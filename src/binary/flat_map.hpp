// Open-addressing hash containers for 32-bit address keys.
//
// The translation tables sit on the emulator's per-instruction hot path
// (RPC<->UPC lookups on every fetch and every control transfer), where
// std::unordered_map's node allocation and pointer chasing dominate.
// FlatMap32/FlatSet32 store entries inline in a power-of-two slot array
// with linear probing: a lookup is one multiply-shift hash, one array
// index, and (almost always) zero or one extra probe.
//
// Both share one slot-array core (detail::FlatTable: probe, growth and
// backward-shift erase with no tombstones): the emulator's §IV-C return
// bitmap clears a slot's mark on every store, pop and return.
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

namespace detail {

/// The uint32 key a slot holds: a map slot's `first`, or a set slot itself.
inline uint32_t slot_key(const std::pair<uint32_t, uint32_t>& slot) {
  return slot.first;
}
inline uint32_t slot_key(uint32_t slot) { return slot; }

/// Linear-probing slot storage shared by FlatMap32 and FlatSet32: the
/// probe, the growth policy and backward-shift erase exist once here.
template <typename Slot>
class FlatTable {
 public:
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Backward-shift deletion: no tombstones, so probe chains stay exactly
  /// as a fresh insert-only build would lay them out. Returns true when the
  /// key was present.
  bool erase(uint32_t key) {
    size_t hole = find_slot(key);
    if (hole == kAbsent) return false;
    size_t next = (hole + 1) & mask_;
    while (used_[next] != 0) {
      const size_t home = mix32(slot_key(slots_[next])) & mask_;
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
      next = (next + 1) & mask_;
    }
    used_[hole] = 0;
    slots_[hole] = {};
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

 protected:
  static constexpr size_t kAbsent = ~size_t{0};

  /// The hot-path probe: index of `key`'s slot, or kAbsent.
  [[nodiscard]] size_t find_slot(uint32_t key) const {
    if (size_ == 0) return kAbsent;
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0) {
      if (slot_key(slots_[idx]) == key) return idx;
      idx = (idx + 1) & mask_;
    }
    return kAbsent;
  }

  /// Index of `key`'s slot, claiming it with `fresh` when absent (never
  /// overwrites). The bool is true when a new slot was claimed.
  std::pair<size_t, bool> claim(uint32_t key, const Slot& fresh) {
    grow_for(size_ + 1);
    size_t idx = mix32(key) & mask_;
    while (used_[idx] != 0) {
      if (slot_key(slots_[idx]) == key) return {idx, false};
      idx = (idx + 1) & mask_;
    }
    used_[idx] = 1;
    slots_[idx] = fresh;
    ++size_;
    return {idx, true};
  }

  void grow_for(size_t n) {
    // Rehash at 3/4 occupancy so linear probes stay short.
    if (n * 4 <= slots_.size() * 3) return;
    size_t cap = slots_.size() == 0 ? 16 : slots_.size() * 2;
    while (n * 4 > cap * 3) cap *= 2;
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<uint8_t> old_used = std::move(used_);
    slots_.assign(cap, {});
    used_.assign(cap, 0);
    mask_ = cap - 1;
    for (size_t i = 0; i < old_used.size(); ++i) {
      if (old_used[i] == 0) continue;
      size_t idx = mix32(slot_key(old_slots[i])) & mask_;
      while (used_[idx] != 0) idx = (idx + 1) & mask_;
      used_[idx] = 1;
      slots_[idx] = old_slots[i];
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> used_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace detail

/// Open-addressing uint32 -> uint32 map with backward-shift erase.
class FlatMap32 : public detail::FlatTable<std::pair<uint32_t, uint32_t>> {
 public:
  using value_type = std::pair<uint32_t, uint32_t>;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatMap32::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;

    const value_type& operator*() const { return map_->slots_[idx_]; }
    const value_type* operator->() const { return &map_->slots_[idx_]; }
    const_iterator& operator++() {
      ++idx_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return idx_ == o.idx_; }
    bool operator!=(const const_iterator& o) const { return idx_ != o.idx_; }

   private:
    friend class FlatMap32;
    const_iterator(const FlatMap32* map, size_t idx) : map_(map), idx_(idx) {
      skip();
    }
    void skip() {
      while (idx_ < map_->used_.size() && map_->used_[idx_] == 0) ++idx_;
    }
    const FlatMap32* map_ = nullptr;
    size_t idx_ = 0;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, used_.size()}; }

  /// The hot-path probe: a pointer to the value, or nullptr when absent.
  [[nodiscard]] const uint32_t* lookup(uint32_t key) const {
    const size_t idx = find_slot(key);
    return idx == kAbsent ? nullptr : &slots_[idx].second;
  }

  [[nodiscard]] bool contains(uint32_t key) const {
    return lookup(key) != nullptr;
  }

  /// Inserts when absent (like unordered_map::emplace — never overwrites).
  /// Returns true when a new entry was created.
  bool emplace(uint32_t key, uint32_t value) {
    return claim(key, {key, value}).second;
  }

  /// Set equality (iteration order does not matter).
  bool operator==(const FlatMap32& o) const {
    if (size_ != o.size_) return false;
    for (const auto& [k, v] : *this) {
      const uint32_t* ov = o.lookup(k);
      if (ov == nullptr || *ov != v) return false;
    }
    return true;
  }
};

/// Open-addressing set of uint32 keys with backward-shift erase.
class FlatSet32 : public detail::FlatTable<uint32_t> {
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

  [[nodiscard]] bool contains(uint32_t key) const {
    return find_slot(key) != kAbsent;
  }

  /// Returns true when a new element was inserted.
  bool insert(uint32_t key) { return claim(key, key).second; }

  bool operator==(const FlatSet32& o) const {
    if (size_ != o.size_) return false;
    for (const uint32_t k : *this) {
      if (!o.contains(k)) return false;
    }
    return true;
  }
};

}  // namespace vcfr::binary
