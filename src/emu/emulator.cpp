#include "emu/emulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "binary/state_io.hpp"
#include "isa/encoding.hpp"
#include "profile/profiler.hpp"

namespace vcfr::emu {

using binary::Layout;
using isa::Cond;
using isa::Instr;
using isa::Op;

Emulator::Emulator(const binary::Image& image, binary::Memory& mem,
                   uint32_t decode_cache_entries)
    : image_(image), mem_(mem) {
  if (decode_cache_entries < 2 || !std::has_single_bit(decode_cache_entries)) {
    throw std::invalid_argument("decode cache entries must be a power of two");
  }
  dcache_.resize(decode_cache_entries);
  dcache_shift_ = 32 - std::countr_zero(decode_cache_entries);
  // Entry point expressed in the randomized space when it was randomized.
  state_.pc = image.tables.to_randomized(image.entry);
  state_.regs[isa::kSp] = binary::kDefaultStackTop;
  // Any write into the fetched-from region must invalidate cached decodes.
  // A naive-ILR image fetches its moved instructions from the randomized
  // region and its un-randomized ones from the code section.
  if (image.layout == Layout::kNaiveIlr) {
    mem_.watch_code(image.rand_base, image.rand_size);
  }
  mem_.watch_code(image.code_base, static_cast<uint32_t>(image.code.size()));
}

void Emulator::raise(fault::FaultKind kind, uint32_t detail) {
  trap_.kind = kind;
  trap_.pc = state_.pc;
  trap_.detail = detail;
  trap_.instruction = stats_.instructions;
  error_ = trap_.describe();
}

uint32_t Emulator::to_upc(uint32_t rpc) const {
  if (image_.layout == Layout::kVcfr) return image_.tables.to_original(rpc);
  return rpc;  // original and naive-ILR: bytes live at the architectural pc
}

uint32_t Emulator::sequential_next(uint32_t rpc, uint32_t upc,
                                   uint8_t len) const {
  switch (image_.layout) {
    case Layout::kOriginal:
      return rpc + len;
    case Layout::kNaiveIlr:
      // The straightforward hardware resolves the fall-through at zero
      // cost, from the tables, never from the fetched bytes.
      return image_.naive_successor(rpc);
    case Layout::kVcfr:
      // Architectural successor is the randomized image of upc+len; the
      // hardware streams along UPC and never materializes this unless
      // needed, but the golden model keeps RPC exact.
      return image_.tables.to_randomized(upc + len);
  }
  return rpc + len;
}

void Emulator::set_flags_logic(uint32_t result) {
  state_.zf = result == 0;
  state_.nf = (result >> 31) != 0;
  state_.cf = false;
  state_.vf = false;
}

void Emulator::set_flags_sub(uint32_t a, uint32_t b) {
  const uint32_t r = a - b;
  state_.zf = r == 0;
  state_.nf = (r >> 31) != 0;
  state_.cf = a < b;  // borrow
  state_.vf = (((a ^ b) & (a ^ r)) >> 31) != 0;
}

bool Emulator::eval_cond(Cond cond) const {
  switch (cond) {
    case Cond::kEq: return state_.zf;
    case Cond::kNe: return !state_.zf;
    case Cond::kLt: return state_.nf != state_.vf;
    case Cond::kLe: return state_.zf || state_.nf != state_.vf;
    case Cond::kGt: return !state_.zf && state_.nf == state_.vf;
    case Cond::kGe: return state_.nf == state_.vf;
    case Cond::kB: return state_.cf;
    case Cond::kAe: return !state_.cf;
  }
  return false;
}

void Emulator::push32(uint32_t value) {
  state_.regs[isa::kSp] -= 4;
  const uint32_t sp = state_.regs[isa::kSp];
  mem_.write32(sp, value);
  ret_bitmap_.erase(sp);  // plain store overwrites any stale mark
}

uint32_t Emulator::pop32() {
  const uint32_t sp = state_.regs[isa::kSp];
  state_.regs[isa::kSp] = sp + 4;
  return mem_.read32(sp);
}

void Emulator::taint_sink(LeakSink sink, const TaintTag& tag,
                          uint32_t sink_rpc) {
  if (!tag.tainted) return;
  ++taint_stats_.leaks;
  if (leaks_.size() >= kMaxLeakRecords) return;
  LeakRecord rec;
  rec.origin = tag.origin;
  rec.origin_rpc = tag.origin_rpc;
  rec.epoch = taint_epoch_;
  rec.depth = tag.depth;
  rec.sink = sink;
  rec.sink_rpc = sink_rpc;
  rec.instruction = stats_.instructions;  // 0-based index of the sink
  leaks_.push_back(rec);
}

void Emulator::track_taint(const StepInfo& si, const Instr& in) {
  TaintStats& st = taint_stats_;
  const auto note_depth = [&](const TaintTag& t) {
    if (t.depth > st.max_depth) st.max_depth = t.depth;
  };
  // Every data-flow hop (move, load, store, ALU combine) is one more
  // propagation step away from the source.
  const auto bump = [](TaintTag t) {
    if (t.tainted) ++t.depth;
    return t;
  };
  // Two-source combine keeps the deeper chain (deterministic tiebreak:
  // the destination's own tag wins at equal depth).
  const auto combine = [](const TaintTag& a, const TaintTag& b) {
    if (!a.tainted) return b;
    if (!b.tainted) return a;
    return a.depth >= b.depth ? a : b;
  };
  const auto set_reg = [&](uint8_t rd, const TaintTag& t) {
    if (t.tainted) {
      ++st.propagations;
      note_depth(t);
      reg_taint_[rd] = t;
    } else {
      reg_taint_[rd].tainted = false;
    }
  };
  // Word granularity: a tainted byte taints its whole word.
  const auto mem_at = [&](uint32_t addr) -> TaintTag {
    const auto it = mem_taint_.find(addr & ~3u);
    return it == mem_taint_.end() ? TaintTag{} : it->second;
  };
  const auto set_mem = [&](uint32_t addr, const TaintTag& t) {
    if (t.tainted) {
      ++st.propagations;
      note_depth(t);
      mem_taint_[addr & ~3u] = t;
    } else {
      mem_taint_.erase(addr & ~3u);
    }
  };
  const auto seed_mem = [&](uint32_t addr, TaintOrigin origin,
                            uint32_t value) {
    ++st.sources;
    mem_taint_[addr & ~3u] = TaintTag{true, origin, value, 0};
  };

  switch (in.op) {
    case Op::kOut:
      taint_sink(LeakSink::kOut, reg_taint_[in.rd], si.rpc);
      break;
    case Op::kSys:
      if (in.imm == 1) taint_sink(LeakSink::kSys, reg_taint_[0], si.rpc);
      break;
    case Op::kMovRR:
      set_reg(in.rd, bump(reg_taint_[in.rs]));
      break;
    case Op::kMovRI:
      set_reg(in.rd, TaintTag{});
      break;
    case Op::kLd: {
      // §IV-C auto-de-randomization strips the secret: the loaded value is
      // the original-space address, not randomized-layout information.
      TaintTag t = si.bitmap_load
                       ? TaintTag{}
                       : combine(mem_at(si.mem_addr), mem_at(si.mem_addr + 3));
      set_reg(in.rd, bump(t));
      break;
    }
    case Op::kLdb:
      set_reg(in.rd, bump(mem_at(si.mem_addr)));
      break;
    case Op::kSt: {
      const TaintTag t = bump(reg_taint_[in.rd]);
      if (t.tainted) {
        set_mem(si.mem_addr, t);
        if (((si.mem_addr + 3) & ~3u) != (si.mem_addr & ~3u)) {
          set_mem(si.mem_addr + 3, t);
        }
      } else if ((si.mem_addr & 3u) == 0) {
        set_mem(si.mem_addr, TaintTag{});  // word fully overwritten
      }
      break;
    }
    case Op::kStb:
      // A clean byte store cannot untaint the rest of its word.
      if (reg_taint_[in.rd].tainted) {
        set_mem(si.mem_addr, bump(reg_taint_[in.rd]));
      }
      break;
    case Op::kAddRR:
    case Op::kSubRR:
    case Op::kAndRR:
    case Op::kOrRR:
    case Op::kXorRR:
    case Op::kShlRR:
    case Op::kShrRR:
    case Op::kMulRR:
    case Op::kDivRR:
      set_reg(in.rd, bump(combine(reg_taint_[in.rd], reg_taint_[in.rs])));
      break;
    case Op::kAddRI:
    case Op::kSubRI:
    case Op::kAndRI:
    case Op::kOrRI:
    case Op::kXorRI:
    case Op::kShlRI:
    case Op::kShrRI:
    case Op::kMulRI:
      set_reg(in.rd, bump(reg_taint_[in.rd]));
      break;
    case Op::kPushR:
      set_mem(si.mem_addr, bump(reg_taint_[in.rd]));
      break;
    case Op::kPushI:
      if (image_.layout == Layout::kVcfr &&
          image_.tables.is_randomized_addr(in.imm)) {
        seed_mem(si.mem_addr, TaintOrigin::kSwRandPush, in.imm);
      } else {
        set_mem(si.mem_addr, TaintTag{});
      }
      break;
    case Op::kPopR: {
      // Pop reads but does not clear the word (the bytes survive below sp
      // until overwritten — exactly the survivability a leak hunts for).
      const TaintTag t =
          si.bitmap_load ? TaintTag{} : bump(mem_at(si.mem_addr));
      set_reg(in.rd, t);
      break;
    }
    case Op::kCall:
    case Op::kCallR:
      if (si.needs_rand) {
        // The hardware just pushed a randomized return address — the
        // canonical layout secret (and the leaky-server target).
        seed_mem(si.mem_addr, TaintOrigin::kRetPush, si.call_push_value);
      } else {
        set_mem(si.mem_addr, TaintTag{});
      }
      break;
    default:
      break;  // nop/halt/jmp/jcc/jmpr/ret/cmp/test: no data-flow change
  }
}

bool Emulator::step(StepInfo* info) {
  if (halted_ || !trap_.ok()) return false;

  const uint32_t rpc = state_.pc;

  // Decoded-instruction cache: the fetch/decode/translate front half of a
  // step is a pure function of (rpc, code bytes, tables). Every change to
  // either (self-modifying code, a re-randomization firing) bumps the
  // memory's code generation, so a cached entry is valid exactly while the
  // generation it was filled at is current. A hit binds the entry in
  // place: no copy of the decoded instruction, no translation probe on the
  // sequential path.
  DecodedEntry* entry = &uncached_;
  bool hit = false;
  const uint64_t gen = mem_.code_version();
  if (dcache_on_) {
    entry = &dcache_[(rpc * 0x9e3779b9u) >> dcache_shift_];
    hit = entry->rpc == rpc && entry->gen == gen && rpc != 0xffffffffu;
    if (hit) {
      ++dcache_stats_.hits;
    } else {
      if (entry->rpc != 0xffffffffu && entry->gen != gen) {
        ++dcache_stats_.invalidations;
      }
      ++dcache_stats_.misses;
      entry->rpc = 0xffffffffu;  // re-tagged below on a clean decode
    }
  }

  if (!hit) {
    // Fill in place: the cache slot, or uncached_ with the cache off.
    const uint32_t upc = to_upc(rpc);
    uint8_t buf[isa::kMaxInstrLength];
    mem_.read_block(upc, buf, sizeof buf);
    const auto decoded =
        isa::decode(std::span<const uint8_t>(buf, sizeof buf));
    if (!decoded) {
      raise(fault::FaultKind::kBadOpcode, buf[0]);
      return false;
    }
    entry->upc = upc;
    entry->seq_next = sequential_next(rpc, upc, decoded->length);
    entry->gen = gen;
    entry->instr = *decoded;
    if (dcache_on_) {
      entry->seq_upc = to_upc(entry->seq_next);
      if (rpc != 0xffffffffu) entry->rpc = rpc;
    }
  }

  const Instr& in = entry->instr;
  const uint32_t upc = entry->upc;
  uint32_t next = entry->seq_next;

  StepInfo local;
  StepInfo& si = info ? *info : local;
  si.rpc = rpc;
  si.upc = upc;
  si.instr = in;
  si.is_taken_transfer = false;
  si.has_mem = false;
  si.mem_addr = 0;
  si.mem_is_store = false;
  si.call_push_value = 0;
  si.needs_derand = false;
  si.derand_key = 0;
  si.needs_rand = false;
  si.rand_key = 0;
  si.bitmap_load = false;

  const bool vcfr = image_.layout == Layout::kVcfr;
  auto& tables = image_.tables;
  auto& regs = state_.regs;

  if (image_.layout == Layout::kNaiveIlr && next == 0 && in.has_fallthrough()) {
    raise(fault::FaultKind::kUnmappedFetch, rpc);
    return false;
  }

  // Records a de-randomizing transfer: architectural target `target_rand`
  // (randomized space), execution continues at its original-space image.
  bool tag_fault = false;
  auto transfer_to = [&](uint32_t target_rand) {
    si.is_taken_transfer = true;
    if (vcfr) {
      si.needs_derand = true;
      si.derand_key = target_rand;
      ++stats_.derand_events;
      if (!tables.is_randomized_addr(target_rand)) {
        // Target expressed in original space. Legal only for the failover
        // (un-randomized) set; anything else would trip the randomized tag.
        if (tables.to_randomized(target_rand) != target_rand &&
            !tables.unrandomized.contains(target_rand)) {
          ++stats_.tag_violations;
        }
        if (enforce_tags_ && image_.in_code(target_rand) &&
            !tables.unrandomized.contains(target_rand)) {
          tag_fault = true;  // §IV-A: jumps to tagged locations prohibited
        }
      }
    }
    next = target_rand;
  };

  switch (in.op) {
    case Op::kNop:
      break;
    case Op::kHalt:
      halted_ = true;
      break;
    case Op::kSys:
      if (in.imm == 0) {
        halted_ = true;
      } else if (in.imm == 1) {
        if (output_.size() < max_output_) output_.push_back(regs[0]);
      } else {
        raise(fault::FaultKind::kBadSyscall, in.imm);
        return false;
      }
      break;
    case Op::kOut:
      if (output_.size() < max_output_) output_.push_back(regs[in.rd]);
      break;
    case Op::kMovRR:
      regs[in.rd] = regs[in.rs];
      break;
    case Op::kMovRI:
      regs[in.rd] = in.imm;
      break;
    case Op::kLd:
    case Op::kLdb: {
      const uint32_t addr = regs[in.rs] + static_cast<uint32_t>(in.disp);
      si.has_mem = true;
      si.mem_addr = addr;
      uint32_t value = in.op == Op::kLd ? mem_.read32(addr) : mem_.read8(addr);
      if (vcfr && in.op == Op::kLd && ret_bitmap_.contains(addr)) {
        // §IV-C: direct fetch of a randomized return address is
        // automatically de-randomized by the hardware.
        value = tables.to_original(value);
        si.bitmap_load = true;
        ++stats_.bitmap_autoderand_loads;
      }
      regs[in.rd] = value;
      break;
    }
    case Op::kSt:
    case Op::kStb: {
      const uint32_t addr = regs[in.rs] + static_cast<uint32_t>(in.disp);
      si.has_mem = true;
      si.mem_addr = addr;
      si.mem_is_store = true;
      if (in.op == Op::kSt) {
        mem_.write32(addr, regs[in.rd]);
      } else {
        mem_.write8(addr, static_cast<uint8_t>(regs[in.rd]));
      }
      ret_bitmap_.erase(addr);
      break;
    }
    case Op::kAddRR:
    case Op::kAddRI: {
      const uint32_t b = in.op == Op::kAddRR ? regs[in.rs] : in.imm;
      const uint32_t a = regs[in.rd];
      const uint32_t r = a + b;
      state_.zf = r == 0;
      state_.nf = (r >> 31) != 0;
      state_.cf = r < a;
      state_.vf = ((~(a ^ b) & (a ^ r)) >> 31) != 0;
      regs[in.rd] = r;
      break;
    }
    case Op::kSubRR:
    case Op::kSubRI: {
      const uint32_t b = in.op == Op::kSubRR ? regs[in.rs] : in.imm;
      const uint32_t a = regs[in.rd];
      set_flags_sub(a, b);
      regs[in.rd] = a - b;
      break;
    }
    case Op::kAndRR:
    case Op::kAndRI:
      regs[in.rd] &= (in.op == Op::kAndRR ? regs[in.rs] : in.imm);
      set_flags_logic(regs[in.rd]);
      break;
    case Op::kOrRR:
    case Op::kOrRI:
      regs[in.rd] |= (in.op == Op::kOrRR ? regs[in.rs] : in.imm);
      set_flags_logic(regs[in.rd]);
      break;
    case Op::kXorRR:
    case Op::kXorRI:
      regs[in.rd] ^= (in.op == Op::kXorRR ? regs[in.rs] : in.imm);
      set_flags_logic(regs[in.rd]);
      break;
    case Op::kShlRR:
    case Op::kShlRI:
      regs[in.rd] <<= ((in.op == Op::kShlRR ? regs[in.rs] : in.imm) & 31);
      set_flags_logic(regs[in.rd]);
      break;
    case Op::kShrRR:
    case Op::kShrRI:
      regs[in.rd] >>= ((in.op == Op::kShrRR ? regs[in.rs] : in.imm) & 31);
      set_flags_logic(regs[in.rd]);
      break;
    case Op::kMulRR:
    case Op::kMulRI:
      regs[in.rd] *= (in.op == Op::kMulRR ? regs[in.rs] : in.imm);
      set_flags_logic(regs[in.rd]);
      break;
    case Op::kDivRR:
      if (regs[in.rs] == 0) {
        raise(fault::FaultKind::kDivideByZero, 0);
        return false;
      }
      regs[in.rd] /= regs[in.rs];
      set_flags_logic(regs[in.rd]);
      break;
    case Op::kCmpRR:
      set_flags_sub(regs[in.rd], regs[in.rs]);
      break;
    case Op::kCmpRI:
      set_flags_sub(regs[in.rd], in.imm);
      break;
    case Op::kTestRR:
      set_flags_logic(regs[in.rd] & regs[in.rs]);
      break;
    case Op::kPushR:
      push32(regs[in.rd]);
      si.has_mem = true;
      si.mem_addr = regs[isa::kSp];
      si.mem_is_store = true;
      break;
    case Op::kPushI:
      // Software return-address randomization pushes the randomized return
      // here; the bitmap is not involved (that is the architectural
      // option's advantage, §IV-C).
      push32(in.imm);
      si.has_mem = true;
      si.mem_addr = regs[isa::kSp];
      si.mem_is_store = true;
      break;
    case Op::kPopR: {
      const uint32_t sp = regs[isa::kSp];
      si.has_mem = true;
      si.mem_addr = sp;
      uint32_t value = pop32();
      if (vcfr && ret_bitmap_.contains(sp)) {
        value = tables.to_original(value);
        si.bitmap_load = true;
        ++stats_.bitmap_autoderand_loads;
        ret_bitmap_.erase(sp);
      }
      regs[in.rd] = value;
      break;
    }
    case Op::kJmp:
      transfer_to(in.imm);
      break;
    case Op::kJcc:
      if (eval_cond(in.cond)) transfer_to(in.imm);
      break;
    case Op::kJmpR:
      ++stats_.indirect_transfers;
      transfer_to(regs[in.rd]);
      break;
    case Op::kCall:
    case Op::kCallR: {
      ++stats_.calls;
      if (in.op == Op::kCallR) ++stats_.indirect_transfers;
      uint32_t ret_value = next;  // architectural successor address
      if (vcfr) {
        const uint32_t ret_orig = upc + in.length;
        if (tables.is_randomized_addr(next)) {
          // Randomized return site: the hardware looks up the rand entry
          // for ret_orig and pushes the randomized address (§IV-A option 2).
          si.needs_rand = true;
          si.rand_key = ret_orig;
          ++stats_.rand_events;
        } else {
          ret_value = ret_orig;  // failover: push the original address
        }
      }
      si.call_push_value = ret_value;
      push32(ret_value);
      si.has_mem = true;
      si.mem_addr = regs[isa::kSp];
      si.mem_is_store = true;
      if (vcfr && si.needs_rand) ret_bitmap_.insert(regs[isa::kSp]);
      transfer_to(in.op == Op::kCall ? in.imm : regs[in.rd]);
      break;
    }
    case Op::kRet: {
      ++stats_.returns;
      const uint32_t sp = regs[isa::kSp];
      si.has_mem = true;
      si.mem_addr = sp;
      const uint32_t value = pop32();
      ret_bitmap_.erase(sp);  // consumed by the return
      transfer_to(value);
      break;
    }
  }

  // Shadow-only taint bookkeeping; lives in the execute half so the
  // decode-cache fast path is identical with tracking on or off.
  if (taint_on_) track_taint(si, in);

  ++stats_.instructions;
  if (tag_fault) {
    raise(fault::FaultKind::kTranslationMismatch, next);
    si.next_rpc = next;
    si.next_upc = next;
    if (prof_ != nullptr) {
      profile::RetireCosts costs;
      costs.delta = 1;
      prof_->on_retire(si, costs);
    }
    return true;  // the faulting instruction itself did execute
  }
  if (!halted_ && trap_.ok()) {
    state_.pc = next;
  }
  si.next_rpc = next;
  // Off a transfer the successor's UPC is cached; with the cache off it
  // is probed every step, which keeps the uncached path the reference.
  si.next_upc = dcache_on_ && next == entry->seq_next ? entry->seq_upc
                                                      : to_upc(next);
  if (prof_ != nullptr) {
    profile::RetireCosts costs;
    costs.delta = 1;
    prof_->on_retire(si, costs);
  }
  return true;
}

void Emulator::state(binary::StateIo& io) {
  for (uint32_t& reg : state_.regs) io.u32(reg);
  io.b(state_.zf);
  io.b(state_.nf);
  io.b(state_.cf);
  io.b(state_.vf);
  io.u32(state_.pc);
  io.u64(stats_.instructions);
  io.u64(stats_.calls);
  io.u64(stats_.returns);
  io.u64(stats_.indirect_transfers);
  io.u64(stats_.derand_events);
  io.u64(stats_.rand_events);
  io.u64(stats_.bitmap_autoderand_loads);
  io.u64(stats_.tag_violations);
  io.u32s(output_, 1u << 24);
  std::vector<uint32_t> marks(ret_bitmap_.begin(), ret_bitmap_.end());
  std::sort(marks.begin(), marks.end());
  io.u32s(marks, 1u << 24);
  if (io.loading()) {
    ret_bitmap_.clear();
    for (const uint32_t addr : marks) ret_bitmap_.insert(addr);
  }
  io.b(halted_);
  io.enum8(trap_.kind);
  io.u32(trap_.pc);
  io.u32(trap_.detail);
  io.u64(trap_.instruction);
  io.str(error_);
  io.u64(max_output_);
  // Taint shadow state (appended so pre-taint readers never existed for
  // this format version; the kernel's config digest guards compatibility).
  const auto tag = [&io](TaintTag& t) {
    io.b(t.tainted);
    io.enum8(t.origin);
    io.u32(t.origin_rpc);
    io.u32(t.depth);
  };
  io.b(taint_on_);
  io.u64(taint_epoch_);
  io.u64(taint_stats_.sources);
  io.u64(taint_stats_.propagations);
  io.u64(taint_stats_.leaks);
  io.u64(taint_stats_.max_depth);
  for (TaintTag& t : reg_taint_) tag(t);
  std::vector<std::pair<uint32_t, TaintTag>> words(mem_taint_.begin(),
                                                   mem_taint_.end());
  std::sort(words.begin(), words.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  io.vec(words, 1u << 24, [&](std::pair<uint32_t, TaintTag>& word) {
    io.u32(word.first);
    tag(word.second);
  });
  io.vec(leaks_, 1u << 24, [&io](LeakRecord& rec) {
    io.enum8(rec.origin);
    io.u32(rec.origin_rpc);
    io.u64(rec.epoch);
    io.u32(rec.depth);
    io.enum8(rec.sink);
    io.u32(rec.sink_rpc);
    io.u64(rec.instruction);
  });
  if (!io.loading()) return;
  mem_taint_.clear();
  for (const auto& [addr, t] : words) mem_taint_[addr] = t;
  // Host-only decode cache: drop every fill so nothing predating the
  // restored architectural state survives.
  std::fill(dcache_.begin(), dcache_.end(), DecodedEntry{});
}

RunResult Emulator::run(const RunLimits& limits) {
  max_output_ = limits.max_output;
  if (limits.enforce_tags) enforce_tags_ = true;
  while (stats_.instructions < limits.max_instructions) {
    if (!step()) break;
    if (halted_) break;
  }
  RunResult result;
  result.halted = halted_;
  result.trap = trap_;
  result.error = error_;
  result.stats = stats_;
  result.output = output_;
  result.mem_checksum = mem_.checksum();
  result.final_state = state_;
  return result;
}

RunResult run_image(const binary::Image& image, const RunLimits& limits) {
  binary::Memory mem;
  binary::load(image, mem);
  Emulator emulator(image, mem);
  return emulator.run(limits);
}

}  // namespace vcfr::emu
