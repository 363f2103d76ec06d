#include "emu/rerandomize.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "rewriter/rng.hpp"

namespace vcfr::emu {

namespace {

/// Pinned keys left behind as aliases: their instruction lives elsewhere now.
std::vector<uint32_t> surviving_aliases(const binary::TranslationTables& tables,
                                        const std::vector<uint32_t>& pinned) {
  std::vector<uint32_t> aliases;
  for (const uint32_t v : pinned) {
    const uint32_t* orig = tables.derand.lookup(v);
    if (orig == nullptr) continue;
    const uint32_t* ra = tables.rand.lookup(*orig);
    if (ra != nullptr && *ra != v) aliases.push_back(v);
  }
  return aliases;
}

/// One moved instruction of an incremental firing.
struct Assign {
  uint32_t idx = 0;  // cfg.instrs index
  uint32_t old_ra = 0;
  uint32_t new_ra = 0;
};

/// An incremental firing's buffers, kept per thread so that a warm firing
/// allocates nothing: the selected pages, slot occupancy (one byte per
/// slot), the old slot -> move map, the moves and one site's encoding.
struct FiringScratch {
  std::vector<uint32_t> selected;
  std::vector<uint8_t> taken;
  std::vector<uint32_t> moved_from;
  std::vector<Assign> assign;
  std::vector<uint8_t> bytes;
};

}  // namespace

bool rerandomize_full(const rewriter::Program& program, binary::Image& img,
                      binary::Memory& mem, Emulator& running,
                      const RerandOptions& options, RerandStats* stats) {
  if (img.layout != binary::Layout::kVcfr) {
    throw std::invalid_argument("rerandomize_full: requires a VCFR image");
  }
  if (img.code.size() != program.image.code.size() ||
      img.code_base != program.image.code_base) {
    throw std::invalid_argument(
        "rerandomize_full: image must share the program's original layout");
  }
  RerandStats local;
  RerandStats& st = stats ? *stats : local;
  st = RerandStats{};

  binary::Image next = rewriter::place(program, options.placement);
  // Forced quiescence: every pinned address keeps a derand alias to its
  // instruction's original address in the fresh tables.
  for (const uint32_t v : options.pinned) {
    const uint32_t orig = img.tables.to_original(v);
    const uint32_t* existing = next.tables.derand.lookup(v);
    // The fresh placement put a different instruction exactly at the
    // pinned address: aliasing would be ambiguous.
    if (existing != nullptr && *existing != orig) return false;
    if (existing == nullptr) next.tables.derand.emplace(v, orig);
  }

  auto retranslate = [&](uint32_t old_value) {
    return next.tables.to_randomized(img.tables.to_original(old_value));
  };

  // 1. Stack: re-translate every bitmap-marked randomized return address.
  for (const uint32_t slot : running.ret_bitmap()) {
    mem.write32(slot, retranslate(mem.read32(slot)));
    ++st.stack_slots_translated;
  }

  // 2. Architectural PC.
  uint32_t& pc = running.state().pc;
  const uint32_t new_pc = retranslate(pc);
  st.pc_translated = new_pc != pc;
  pc = new_pc;

  // 3. Code bytes (same layout, new encoded targets) and jump-table
  //    slots. The code is rewritten whole in one block (one generation
  //    bump), which also repairs any flipped code byte.
  mem.write_block(next.code_base, next.code.data(),
                  static_cast<uint32_t>(next.code.size()));
  for (const auto& r : next.relocs) {
    mem.write32(r.data_addr, retranslate(mem.read32(r.data_addr)));
    ++st.reloc_slots_patched;
  }

  // Every table entry rewritten plus the patched data/stack/PC slots;
  // regions = all code pages.
  st.regions = static_cast<uint32_t>((next.code.size() + 4095) / 4096);
  st.entries = next.tables.derand.size() + next.tables.rand.size() +
               st.reloc_slots_patched + st.stack_slots_translated +
               (st.pc_translated ? 1 : 0);
  st.alias_keys = surviving_aliases(next.tables, options.pinned);

  // 4. The same emulator resumes over the new image, in place.
  img = std::move(next);
  return true;
}

bool rerandomize_incremental(const rewriter::Program& program,
                             binary::Image& img, binary::Memory& mem,
                             Emulator& running,
                             const RerandOptions& options,
                             RerandStats* stats) {
  if (img.layout != binary::Layout::kVcfr) {
    throw std::invalid_argument(
        "rerandomize_incremental: requires a VCFR image");
  }
  binary::TranslationTables& tables = img.tables;
  binary::DerandTable& derand = tables.derand;
  const uint32_t slot_bytes = options.placement.slot_bytes;
  const uint32_t rand_base = options.placement.rand_base;
  if (slot_bytes == 0 || img.rand_size == 0 ||
      img.rand_size % slot_bytes != 0 || img.rand_base != rand_base ||
      derand.granule() != slot_bytes) {
    throw std::invalid_argument(
        "rerandomize_incremental: requires kFullSpread slot geometry");
  }
  if (!std::is_sorted(options.pinned.begin(), options.pinned.end())) {
    throw std::invalid_argument("rerandomize_incremental: pins not sorted");
  }
  auto pinned = [&](uint32_t ra) {
    return std::binary_search(options.pinned.begin(), options.pinned.end(), ra);
  };
  const rewriter::Cfg& cfg = program.cfg;
  const rewriter::RerandIndex& ix = program.rerand;
  const auto slot_count = static_cast<uint32_t>(derand.slot_count());

  RerandStats local;
  RerandStats& st = stats ? *stats : local;
  st = RerandStats{};
  if (ix.movable.empty()) return true;  // nothing randomized: trivial success

  thread_local FiringScratch scratch;
  std::vector<uint32_t>& selected = scratch.selected;
  std::vector<uint8_t>& taken = scratch.taken;
  std::vector<uint32_t>& moved_from = scratch.moved_from;
  std::vector<Assign>& assign = scratch.assign;
  std::vector<uint8_t>& bytes = scratch.bytes;

  // --- page selection: original 4 KiB pages holding movable instrs --------
  // Shuffling page indices permutes exactly as shuffling the (ascending)
  // page numbers would, so the draw sequence is the page-number one.
  rewriter::Mt19937_64 rng(options.placement.seed);
  const size_t pages = ix.page_begin.size() - 1;
  selected.resize(pages);
  std::iota(selected.begin(), selected.end(), 0u);
  if (!options.all_regions && options.region_percent < 100) {
    std::shuffle(selected.begin(), selected.end(), rng);
    const size_t count =
        std::max<size_t>(1, (pages * options.region_percent + 99) / 100);
    selected.resize(std::min(count, selected.size()));
    std::sort(selected.begin(), selected.end());
  }
  st.regions = static_cast<uint32_t>(selected.size());

  // --- phase 1: draw fresh slots (any failure leaves img untouched) -------
  assign.clear();
  for (const uint32_t k : selected) {
    for (uint32_t j = ix.page_begin[k]; j < ix.page_begin[k + 1]; ++j) {
      const uint32_t idx = ix.movable[j];
      const uint32_t* old_ra = tables.rand.lookup(cfg.instrs[idx].addr);
      if (old_ra == nullptr) {
        throw std::logic_error(
            "rerandomize_incremental: movable instruction has no placement");
      }
      if (!derand.in_region(*old_ra)) {
        throw std::invalid_argument(
            "rerandomize_incremental: placement outside the slot pool");
      }
      assign.push_back({idx, *old_ra, 0});
    }
  }

  // Slot occupancy, one byte per slot: every live derand key (placements
  // and aliases). A moved instruction frees its old slot unless an alias
  // pins it. No two placements share a slot, so clearing a moved
  // instruction's slot frees no one else's.
  taken.resize(slot_count);
  for (uint32_t s = 0; s < slot_count; ++s) taken[s] = derand.slot_taken(s);
  for (const Assign& a : assign) {
    if (!pinned(a.old_ra)) taken[derand.slot_of(a.old_ra)] = 0;
  }
  for (const uint32_t v : options.pinned) {
    if (derand.contains(v)) taken[derand.slot_of(v)] = 1;
  }

  const binary::Divisor slots(slot_count);
  const auto jitter_span = rewriter::jitter_divisors(slot_bytes);
  for (Assign& a : assign) {
    uint32_t slot = 0;
    bool found = false;
    for (int attempt = 0; attempt < 64 && !found; ++attempt) {
      const auto s = static_cast<uint32_t>(slots.mod(rng()));
      if (taken[s] == 0) {
        slot = s;
        found = true;
      }
    }
    if (!found) {
      // Dense pool: fall back to a deterministic linear probe.
      const auto s0 = static_cast<uint32_t>(slots.mod(rng()));
      for (uint32_t d = 0; d < slot_count; ++d) {
        const uint32_t s = (s0 + d) % slot_count;
        if (taken[s] == 0) {
          slot = s;
          found = true;
          break;
        }
      }
    }
    if (!found) return false;  // pool exhausted: the caller defers
    taken[slot] = 1;
    const auto jitter = static_cast<uint32_t>(
        jitter_span[cfg.instrs[a.idx].instr.length].mod(rng()));
    a.new_ra = rand_base + slot * slot_bytes + jitter;
  }

  // --- phase 2: apply in place --------------------------------------------
  // Bump before the first table/code write so no decode-cache entry from
  // the old generation can be mistaken for current state.
  mem.bump_code_version();
  // Old placement -> new, through the old slot: moved_from[slot] is one
  // past the index in `assign` of the instruction that left it.
  moved_from.assign(slot_count, 0);
  for (size_t k = 0; k < assign.size(); ++k) {
    moved_from[derand.slot_of(assign[k].old_ra)] = static_cast<uint32_t>(k + 1);
  }
  auto moved_to = [&](uint32_t ra) -> const uint32_t* {
    if (!derand.in_region(ra)) return nullptr;
    const uint32_t k = moved_from[derand.slot_of(ra)];
    if (k == 0) return nullptr;
    const Assign& a = assign[k - 1];
    return a.old_ra == ra ? &a.new_ra : nullptr;
  };

  // Erase every retiring derand key first: a fresh draw may land exactly
  // on another moved instruction's freed slot (and jitter may reproduce
  // its old address), so inserts must only see surviving keys.
  for (const Assign& a : assign) {
    if (!pinned(a.old_ra)) derand.erase(a.old_ra);
  }
  for (const Assign& a : assign) {
    const uint32_t orig = cfg.instrs[a.idx].addr;
    tables.rand.set(orig, a.new_ra);
    derand.emplace(a.new_ra, orig);
    ++st.instrs_moved;
  }

  // Referring sites of the moved instructions: direct transfers,
  // software-rewrite return pushes, and proven code-pointer movs.
  for (const Assign& a : assign) {
    for (uint32_t r = ix.ref_begin[a.idx]; r < ix.ref_begin[a.idx + 1]; ++r) {
      const isa::DisasmEntry& e = cfg.instrs[ix.referrers[r]];
      rewriter::patch_site(img, e, a.new_ra, bytes);
      for (size_t i = 0; i < bytes.size(); ++i) {
        mem.write8(e.addr + static_cast<uint32_t>(i), bytes[i]);
      }
      ++st.sites_patched;
    }
  }

  // Jump-table / stored-code-pointer slots: live memory and the image
  // copy (rearm() re-images data from the latter).
  for (const auto& r : img.relocs) {
    const uint32_t* nv = moved_to(mem.read32(r.data_addr));
    if (nv != nullptr) {
      mem.write32(r.data_addr, *nv);
      ++st.reloc_slots_patched;
    }
    const uint32_t* iv = moved_to(img.read_data32(r.data_addr));
    if (iv != nullptr) img.write_data32(r.data_addr, *iv);
  }

  // Bitmap-marked stack slots holding a moved return address.
  for (const uint32_t slot : running.ret_bitmap()) {
    const uint32_t* nv = moved_to(mem.read32(slot));
    if (nv != nullptr) {
      mem.write32(slot, *nv);
      ++st.stack_slots_translated;
    }
  }

  // Architectural PC.
  if (const uint32_t* nv = moved_to(running.state().pc)) {
    running.state().pc = *nv;
    st.pc_translated = true;
  }

  st.entries = uint64_t{2} * st.instrs_moved + st.sites_patched +
               st.reloc_slots_patched + st.stack_slots_translated +
               (st.pc_translated ? 1 : 0);
  st.alias_keys = surviving_aliases(tables, options.pinned);
  return true;
}

}  // namespace vcfr::emu
