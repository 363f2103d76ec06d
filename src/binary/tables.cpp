#include "binary/tables.hpp"

#include <algorithm>
#include <stdexcept>

namespace vcfr::binary {

void DerandTable::reset(uint32_t base, uint32_t span, uint32_t granule) {
  if (granule == 0 || uint64_t{base} + span > 0xffff'ffffu) {
    throw std::invalid_argument(
        "derand region must end by 0xffffffff in slots of at least 1 byte");
  }
  base_ = base;
  span_ = span;
  granule_ = Divisor(granule);
  slots_.assign((uint64_t{span} + granule - 1) / granule, {kFree, 0});
  dense_ = 0;
  shared_.clear();
}

std::vector<DerandTable::Entry>::const_iterator DerandTable::side_find(
    uint32_t key) const {
  return std::lower_bound(shared_.begin(), shared_.end(), Entry{key, 0});
}

const uint32_t* DerandTable::side_lookup(uint32_t key) const {
  const auto it = side_find(key);
  return it != shared_.end() && it->first == key ? &it->second : nullptr;
}

bool DerandTable::emplace(uint32_t key, uint32_t original) {
  if (!in_region(key)) {
    throw std::out_of_range("derand key outside the randomized region");
  }
  Entry& e = slots_[slot_of(key)];
  if (e.first == key) return false;
  if (e.first != kFree) {
    const auto it = side_find(key);
    if (it != shared_.end() && it->first == key) return false;
    shared_.insert(it, {key, original});
    return true;
  }
  e = {key, original};
  ++dense_;
  return true;
}

bool DerandTable::erase(uint32_t key) {
  if (!in_region(key)) return false;
  const size_t s = slot_of(key);
  if (slots_[s].first != key) {
    const auto it = side_find(key);
    if (it == shared_.end() || it->first != key) return false;
    shared_.erase(it);
    return true;
  }
  slots_[s] = {kFree, 0};
  --dense_;
  // A side key of the slot moves in, so a live key's slot stays taken.
  const auto it =
      std::find_if(shared_.begin(), shared_.end(),
                   [&](const Entry& x) { return slot_of(x.first) == s; });
  if (it != shared_.end()) {
    slots_[s] = *it;
    shared_.erase(it);
    ++dense_;
  }
  return true;
}

std::vector<DerandTable::Entry> DerandTable::entries() const {
  std::vector<Entry> out;
  out.reserve(size());
  for (const Entry& e : slots_) {
    if (e.first != kFree) out.push_back(e);
  }
  if (shared_.empty()) return out;
  const auto middle = out.insert(out.end(), shared_.begin(), shared_.end());
  std::inplace_merge(out.begin(), middle, out.end());
  return out;
}

void RandTable::reset(uint32_t base, uint32_t span) {
  base_ = base;
  to_.assign(span, kNone);
  size_ = 0;
}

bool RandTable::set(uint32_t original, uint32_t randomized) {
  const uint32_t off = original - base_;
  if (off >= to_.size()) throw std::out_of_range("rand key outside the code");
  if (randomized == kNone) throw std::invalid_argument("rand value reserved");
  const bool fresh = to_[off] == kNone;
  size_ += fresh ? 1 : 0;
  to_[off] = randomized;
  return fresh;
}

std::vector<RandTable::Entry> RandTable::entries() const {
  std::vector<Entry> out;
  out.reserve(size_);
  for (uint32_t off = 0; off < to_.size(); ++off) {
    if (to_[off] != kNone) out.emplace_back(base_ + off, to_[off]);
  }
  return out;
}

}  // namespace vcfr::binary
