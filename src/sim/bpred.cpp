#include "sim/bpred.hpp"

#include "binary/state_io.hpp"

namespace vcfr::sim {

Gshare::Gshare(const BpredConfig& config)
    : history_mask_((1u << config.gshare_history_bits) - 1),
      table_mask_((1u << config.gshare_table_bits) - 1),
      counters_(1u << config.gshare_table_bits, 2) {}

uint32_t Gshare::index(uint32_t pc) const {
  return ((pc >> 1) ^ history_) & table_mask_;
}

bool Gshare::predict(uint32_t pc) const {
  return counters_[index(pc)] >= 2;
}

void Gshare::update(uint32_t pc, bool taken) {
  uint8_t& counter = counters_[index(pc)];
  if (taken && counter < 3) ++counter;
  if (!taken && counter > 0) --counter;
  history_ = ((history_ << 1) | (taken ? 1u : 0u)) & history_mask_;
}

void Gshare::state(binary::StateIo& io) {
  io.u32(history_);
  io.require((history_ & ~history_mask_) == 0,
             "gshare history wider than its mask");
  io.fixed(counters_.size(), 1u << 24, "checkpoint gshare geometry mismatch");
  for (uint8_t& c : counters_) {
    io.u8(c);
    io.require(c <= 3, "gshare counter above 3");
  }
}

Btb::Btb(const BpredConfig& config)
    : sets_(config.btb_sets), assoc_(config.btb_assoc) {
  entries_.resize(static_cast<size_t>(sets_) * assoc_);
}

std::optional<AddrPair> Btb::lookup(uint32_t pc) {
  const uint32_t set = (pc >> 1) & (sets_ - 1);
  const uint32_t tag = pc;
  for (uint32_t w = 0; w < assoc_; ++w) {
    Entry& e = entries_[set * assoc_ + w];
    if (e.valid && e.tag == tag) {
      e.lru = ++tick_;
      return e.target;
    }
  }
  return std::nullopt;
}

void Btb::update(uint32_t pc, AddrPair target) {
  const uint32_t set = (pc >> 1) & (sets_ - 1);
  const uint32_t tag = pc;
  Entry* victim = nullptr;
  for (uint32_t w = 0; w < assoc_; ++w) {
    Entry& e = entries_[set * assoc_ + w];
    if (e.valid && e.tag == tag) {
      victim = &e;
      break;
    }
    if (!e.valid) {
      if (victim == nullptr || victim->valid) victim = &e;
    } else if (victim == nullptr || (victim->valid && e.lru < victim->lru)) {
      victim = &e;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->target = target;
  victim->lru = ++tick_;
}

void Btb::state(binary::StateIo& io) {
  io.u64(tick_);
  io.fixed(entries_.size(), 1u << 24, "checkpoint BTB geometry mismatch");
  for (Entry& e : entries_) {
    io.b(e.valid);
    io.u32(e.tag);
    io.u32(e.target.rand);
    io.u32(e.target.orig);
    io.u64(e.lru);
  }
}

void Ras::state(binary::StateIo& io) {
  io.vec(stack_, 1u << 16, [&io](AddrPair& p) {
    io.u32(p.rand);
    io.u32(p.orig);
  });
  io.require(stack_.size() <= capacity_,
             "return stack deeper than its capacity");
}

void Ras::push(AddrPair pair) {
  if (stack_.size() >= capacity_) {
    stack_.erase(stack_.begin());  // overflow drops the oldest frame
  }
  stack_.push_back(pair);
}

std::optional<AddrPair> Ras::pop() {
  if (stack_.empty()) return std::nullopt;
  const AddrPair top = stack_.back();
  stack_.pop_back();
  return top;
}

}  // namespace vcfr::sim
