#include "fault/injector.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "binary/state_io.hpp"
#include "gadget/payload.hpp"
#include "gadget/scanner.hpp"
#include "isa/isa.hpp"

namespace vcfr::fault {

namespace {

std::string hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

/// splitmix64 — the deterministic selection stream.
struct Rng {
  uint64_t state;
  uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return n == 0 ? 0 : next() % n; }
};

/// The emulator's bitmap is a FlatSet32 whose iteration order is slot
/// order, which depends on its insert/erase history; seeded selection runs
/// over a sorted copy so it depends only on the marked slots.
std::vector<uint32_t> sorted_bitmap_slots(const emu::Emulator& emu) {
  std::vector<uint32_t> slots(emu.ret_bitmap().begin(),
                              emu.ret_bitmap().end());
  std::sort(slots.begin(), slots.end());
  return slots;
}

}  // namespace

std::string_view site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kCodeByte: return "code_byte";
    case FaultSite::kTranslationEntry: return "translation_entry";
    case FaultSite::kRetSlot: return "ret_slot";
    case FaultSite::kRetBitmap: return "ret_bitmap";
    case FaultSite::kPayload: return "payload";
  }
  return "unknown";
}

std::optional<FaultSite> parse_site(std::string_view name) {
  for (const FaultSite site :
       {FaultSite::kCodeByte, FaultSite::kTranslationEntry,
        FaultSite::kRetSlot, FaultSite::kRetBitmap, FaultSite::kPayload}) {
    if (name == site_name(site)) return site;
  }
  return std::nullopt;
}

bool FaultInjector::apply(binary::Image& image, binary::Memory& mem,
                          emu::Emulator& emu,
                          const binary::Image* original) {
  if (attempted_) return record_.applied;
  attempted_ = true;
  record_.site = plan_.site;
  record_.at_instruction = emu.stats().instructions;
  Rng rng{plan_.seed ^ (plan_.at_instruction * 0x9e3779b97f4a7c15ull)};

  switch (plan_.site) {
    case FaultSite::kCodeByte: {
      // Flip one bit of one instruction byte in the loaded memory.
      if (image.code.empty()) {
        record_.note = "no code bytes to corrupt";
        return false;
      }
      uint32_t addr = 0;
      if (image.layout == binary::Layout::kNaiveIlr) {
        // Instructions run at their randomized addresses: pick one in
        // ascending address order, then one of its bytes.
        const auto placed = image.placed_instrs();
        const binary::PlacedInstr& p = placed[rng.below(placed.size())];
        addr = p.at + static_cast<uint32_t>(rng.below(p.length));
      } else {
        addr = image.code_base +
               static_cast<uint32_t>(rng.below(image.code.size()));
      }
      const uint32_t bit = static_cast<uint32_t>(rng.below(8));
      // Writes overlapping the loader's watched code range bump the
      // memory's code generation, so stale decode-cache lines die here.
      mem.write8(addr, static_cast<uint8_t>(mem.read8(addr) ^ (1u << bit)));
      record_.applied = true;
      record_.address = addr;
      record_.bit = bit;
      record_.note = "code byte " + hex(addr) + " bit " + std::to_string(bit);
      return true;
    }

    case FaultSite::kTranslationEntry: {
      if (image.layout != binary::Layout::kVcfr ||
          image.tables.derand.empty()) {
        record_.note = "no translation tables (layout " +
                       std::string(image.layout == binary::Layout::kVcfr
                                       ? "vcfr, empty"
                                       : "not vcfr") +
                       ")";
        return false;
      }
      // entries() lists the keys in ascending order.
      const auto entries = image.tables.derand.entries();
      const uint32_t key = entries[rng.below(entries.size())].first;
      const uint32_t bit = static_cast<uint32_t>(rng.below(32));
      *image.tables.derand.lookup(key) ^= (1u << bit);
      // The tables are the only copy; bump the code
      // generation, since cached decodes of the old mapping are stale.
      mem.bump_code_version();
      record_.applied = true;
      record_.address = key;
      record_.bit = bit;
      record_.note =
          "derand[" + hex(key) + "] bit " + std::to_string(bit);
      return true;
    }

    case FaultSite::kRetSlot: {
      // Prefer a bitmap-marked slot (it is guaranteed to hold a return
      // address); fall back to the top-of-stack word for layouts without a
      // bitmap. Low-order bits only: a high-bit flip lands far outside the
      // code space and faults trivially on any layout — the adversarially
      // interesting corruption stays nearby.
      uint32_t addr = 0;
      const std::vector<uint32_t> slots = sorted_bitmap_slots(emu);
      if (!slots.empty()) {
        addr = slots[rng.below(slots.size())];
      } else {
        const uint32_t sp = emu.state().regs[isa::kSp];
        if (sp >= binary::kDefaultStackTop) {
          record_.note = "empty stack, no return slot";
          return false;
        }
        addr = sp;
      }
      const uint32_t bit = static_cast<uint32_t>(rng.below(12));
      mem.write32(addr, mem.read32(addr) ^ (1u << bit));
      record_.applied = true;
      record_.address = addr;
      record_.bit = bit;
      record_.note =
          "ret slot " + hex(addr) + " bit " + std::to_string(bit);
      return true;
    }

    case FaultSite::kRetBitmap: {
      const std::vector<uint32_t> slots = sorted_bitmap_slots(emu);
      if (slots.empty()) {
        record_.note = "ret bitmap empty";
        return false;
      }
      // Prefer marks covering the live stack (slot >= sp): a mark below
      // the stack pointer guards a frame that was already torn down, so
      // dropping it can never be consumed.
      const uint32_t sp = emu.state().regs[isa::kSp];
      std::vector<uint32_t> live;
      for (const uint32_t s : slots) {
        if (s >= sp) live.push_back(s);
      }
      const std::vector<uint32_t>& pool = live.empty() ? slots : live;
      const uint32_t slot = pool[rng.below(pool.size())];
      emu.corrupt_ret_bitmap(slot);
      record_.applied = true;
      record_.address = slot;
      record_.note = "ret-bitmap mark dropped for " + hex(slot);
      return true;
    }

    case FaultSite::kPayload: {
      // The attacker scans the *original* binary — they know original-
      // space gadget addresses, not the per-process placement secret.
      const binary::Image& scanned = original != nullptr ? *original : image;
      const gadget::ScanResult pool = gadget::scan(scanned);
      const std::vector<gadget::PayloadResult> payloads =
          gadget::compile_payloads(pool.gadgets);
      const gadget::PayloadResult* chosen = nullptr;
      for (const auto& p : payloads) {
        if (p.assembled) {
          chosen = &p;
          break;
        }
      }
      if (chosen == nullptr || chosen->chain.empty()) {
        record_.note = "no payload assembled";
        return false;
      }
      const std::vector<uint32_t>& chain = chosen->chain;
      const uint32_t entry = chain.front();
      record_.applied = true;
      record_.address = entry;
      record_.note = "payload '" + chosen->name + "' entry " + hex(entry);
      // Lay the chain out as a hijacked stack (cf. gadget::execute_chain):
      // the first word is what the victim's `ret` popped, the rest sit
      // above the stack pointer for the gadgets to consume.
      const uint32_t sp = binary::kDefaultStackTop -
                          static_cast<uint32_t>(chain.size()) * 4;
      for (size_t i = 1; i < chain.size(); ++i) {
        mem.write32(sp + static_cast<uint32_t>(i - 1) * 4, chain[i]);
      }
      emu.state().regs[isa::kSp] = sp;
      // The hijacked ret's transfer: under VCFR the attacker-supplied
      // value is an original-space address whose randomized tag blocks it
      // unless the location is in the failover set (§IV-A).
      if (image.layout == binary::Layout::kVcfr && image.in_code(entry) &&
          !image.tables.unrandomized.contains(entry) &&
          !image.tables.is_randomized_addr(entry)) {
        emu.raise_external(FaultKind::kTranslationMismatch, entry);
        record_.note += " (blocked at entry)";
        return true;
      }
      emu.state().pc = entry;
      return true;
    }
  }
  record_.note = "unknown site";
  return false;
}

void FaultInjector::state(binary::StateIo& io) {
  io.b(attempted_);
  io.b(record_.applied);
  io.enum8(record_.site);
  io.u64(record_.at_instruction);
  io.u32(record_.address);
  io.u32(record_.bit);
  io.str(record_.note);
}

}  // namespace vcfr::fault
