// The randomization / de-randomization tables of a randomized image
// (§IV-B), stored densely: a lookup is address arithmetic and one array
// index, an insert or an erase is a store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "binary/flat_set.hpp"

namespace vcfr::binary {

/// n / d and n % d for a fixed d >= 1 through a precomputed reciprocal
/// (Barrett reduction with one correction step): the exact quotient and
/// remainder for every 64-bit n, for two multiplies.
class Divisor {
 public:
  Divisor() = default;
  explicit Divisor(uint64_t d) : d_(d), m_(~uint64_t{0} / d) {}

  [[nodiscard]] uint64_t value() const { return d_; }
  [[nodiscard]] uint64_t div(uint64_t n) const {
    const uint64_t q = estimate(n);
    return n - q * d_ >= d_ ? q + 1 : q;
  }
  [[nodiscard]] uint64_t mod(uint64_t n) const {
    const uint64_t r = n - estimate(n) * d_;
    return r >= d_ ? r - d_ : r;
  }

 private:
  /// floor(n * m / 2^64) with m = floor((2^64 - 1) / d): n / d or one less.
  [[nodiscard]] uint64_t estimate(uint64_t n) const {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(n) * m_) >> 64);
  }

  uint64_t d_ = 1;
  uint64_t m_ = ~uint64_t{0};
};

/// randomized address -> original address over the randomized region
/// [base, base + span), one entry per `granule`-byte slot: key k lives in
/// slot (k - base) / granule. A kFullSpread image's granule is its slot
/// size, a kPageConfined image's is 1. A key whose slot holds another key
/// goes to a sorted side list: only a full rebuild makes one, when a
/// forced-quiescence alias shares its slot with a placement at another
/// offset.
class DerandTable {
 public:
  using Entry = std::pair<uint32_t, uint32_t>;  // (randomized, original)

  /// Empties the table over [base, base + span), which must end by
  /// 0xffffffff, in slots of `granule` >= 1 bytes (std::invalid_argument).
  void reset(uint32_t base, uint32_t span, uint32_t granule);

  [[nodiscard]] uint32_t granule() const {
    return static_cast<uint32_t>(granule_.value());
  }
  [[nodiscard]] size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] bool in_region(uint32_t key) const {
    return key - base_ < span_;
  }
  [[nodiscard]] size_t slot_of(uint32_t key) const {
    return granule_.div(key - base_);
  }
  /// True when some key lives in slot `s`.
  [[nodiscard]] bool slot_taken(size_t s) const {
    return slots_[s].first != kFree;
  }
  [[nodiscard]] size_t size() const { return dense_ + shared_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] const uint32_t* lookup(uint32_t key) const {
    if (!in_region(key)) return nullptr;
    const Entry& e = slots_[slot_of(key)];
    if (e.first == key) return &e.second;
    return shared_.empty() ? nullptr : side_lookup(key);
  }
  [[nodiscard]] uint32_t* lookup(uint32_t key) {
    return const_cast<uint32_t*>(std::as_const(*this).lookup(key));
  }
  [[nodiscard]] bool contains(uint32_t key) const {
    return lookup(key) != nullptr;
  }
  /// Inserts when absent (never overwrites); true when it inserted. Throws
  /// std::out_of_range for a key outside the region.
  bool emplace(uint32_t key, uint32_t original);
  /// True when the key was present.
  bool erase(uint32_t key);
  /// Every entry, in ascending key order.
  [[nodiscard]] std::vector<Entry> entries() const;
  bool operator==(const DerandTable& o) const {
    return entries() == o.entries();
  }

 private:
  static constexpr uint32_t kFree = ~uint32_t{0};  // never in the region

  /// The first side entry whose key is not below `key` (binary search).
  [[nodiscard]] std::vector<Entry>::const_iterator side_find(
      uint32_t key) const;
  /// The side entry of `key`, or nullptr.
  [[nodiscard]] const uint32_t* side_lookup(uint32_t key) const;

  uint32_t base_ = 0;
  uint32_t span_ = 0;
  Divisor granule_;
  std::vector<Entry> slots_;
  size_t dense_ = 0;  // live entries in slots_
  std::vector<Entry> shared_;  // ascending key order
};

/// original address -> randomized address, one entry per byte of the
/// original code [base, base + span).
class RandTable {
 public:
  using Entry = std::pair<uint32_t, uint32_t>;  // (original, randomized)

  /// Empties the table over [base, base + span).
  void reset(uint32_t base, uint32_t span);

  [[nodiscard]] size_t span() const { return to_.size(); }
  [[nodiscard]] size_t size() const { return size_; }

  [[nodiscard]] const uint32_t* lookup(uint32_t original) const {
    const uint32_t off = original - base_;
    return off < to_.size() && to_[off] != kNone ? &to_[off] : nullptr;
  }
  [[nodiscard]] bool contains(uint32_t original) const {
    return lookup(original) != nullptr;
  }
  /// Maps `original` (in the span, else std::out_of_range) to `randomized`
  /// (not 0xffffffff, else std::invalid_argument); true when `original`
  /// had no mapping.
  bool set(uint32_t original, uint32_t randomized);
  /// Every entry, in ascending key order.
  [[nodiscard]] std::vector<Entry> entries() const;
  bool operator==(const RandTable& o) const { return entries() == o.entries(); }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  uint32_t base_ = 0;
  std::vector<uint32_t> to_;
  size_t size_ = 0;
};

/// Randomization / de-randomization tables emitted by the rewriter for
/// kVcfr images. The paper stores these in kernel-protected pages; here
/// these tables are the only copy. table_base/table_bytes describe where
/// the region would sit, which gives a DRC miss the line address it reads
/// (table_entry_addr in loader.hpp); the region is never written.
struct TranslationTables {
  /// randomized address -> original address (the paper's "derand" entries).
  DerandTable derand;
  /// original address -> randomized address ("rand" entries; used when a
  /// call must push the randomized return address).
  RandTable rand;
  /// Original addresses left un-randomized as the failover set for
  /// unresolved indirect transfers. Their entries have the randomized tag
  /// cleared; they are the only residual ROP surface (§IV-A, §V-B).
  FlatSet32 unrandomized;
  /// Simulated physical placement of the tables (walked through L2 on DRC
  /// misses).
  uint32_t table_base = 0;
  uint32_t table_bytes = 0;

  /// De-randomizes an address: identity for un-randomized addresses.
  [[nodiscard]] uint32_t to_original(uint32_t addr) const {
    const uint32_t* v = derand.lookup(addr);
    return v == nullptr ? addr : *v;
  }

  /// Randomizes an original address: identity when no mapping exists.
  [[nodiscard]] uint32_t to_randomized(uint32_t addr) const {
    const uint32_t* v = rand.lookup(addr);
    return v == nullptr ? addr : *v;
  }

  [[nodiscard]] bool is_randomized_addr(uint32_t addr) const {
    return derand.contains(addr);
  }
};

}  // namespace vcfr::binary
