// Live re-randomization of a running VCFR process (§V-C: "a common
// practice to prevent leaking randomization/de-randomization tables to
// the attackers is to apply regular re-randomization of the binary images
// that will create a new sets of address translation tables and new
// randomized images. Even an attacker managed to obtain the old ... the
// information would be outdated for mounting new attacks").
//
// This goes one step beyond restart-time re-randomization: the swap
// happens *mid-run*, at a quiescent point, without losing program state.
// Both firings below patch what moved in place — the image object, its
// tables, memory and the running emulator keep their identity, so every
// pointer into them (the table walker, the kernel's context record, DRC
// revalidation) stays valid:
//
//   1. every randomized return address on the stack — located exactly by
//      the §IV-C bitmap — is translated old-randomized -> original ->
//      new-randomized;
//   2. the architectural PC is translated the same way;
//   3. code bytes (same original layout, new encoded targets), jump-table
//      relocation slots, and the image's rand/derand tables are refreshed;
//      program *data* is untouched;
//   4. the same emulator resumes over the patched image and memory, its
//      register file, bitmap, output, and statistics carried as they are.
//      Every firing advances the memory's code generation, so the
//      emulator's decode cache refills from the patched state: an entry is
//      valid exactly while the generation it was filled at is current.
//
// Quiescence condition: no general-purpose register may hold a code
// pointer at the swap point (call sites pick e.g. the top of a request
// loop). Return addresses are fully covered by the bitmap; un-randomized
// failover addresses are identity in every epoch because the failover set
// is analysis-determined and seed-independent.
//
// Forced quiescence: addresses listed in `pinned` (register-held
// randomized values) keep a derand entry to the instruction's original
// address even after the instruction moves, so a later indirect transfer
// through the stale register still de-randomizes correctly. These aliases
// stay in the tables until the caller drops them.
//
// The full firing draws a whole new placement (rewriter::place); the
// incremental one (continuous re-rand, MARDU-style) re-places only a
// deterministic selection of original 4 KiB code pages against the
// previous placement and re-encodes only the sites that refer to them.
// Both require kFullSpread geometry (the Process layer's only policy).
#pragma once

#include <cstdint>
#include <vector>

#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "rewriter/randomizer.hpp"

namespace vcfr::emu {

struct RerandOptions {
  /// The next epoch's placement options: its seed drives the draw (the
  /// full placement, or the incremental page selection, slot draws and
  /// jitter) and its slot geometry is the pool both firings draw from.
  rewriter::RandomizeOptions placement;
  /// Incremental only: percent of candidate code pages re-placed per
  /// firing (>= 100 = all).
  uint32_t region_percent = 25;
  /// Incremental only: re-place every movable page (fresh placement after
  /// a trap).
  bool all_regions = false;
  /// Randomized addresses whose derand entries must survive as aliases
  /// (register-held values under forced quiescence). Sorted + deduped.
  std::vector<uint32_t> pinned;
};

struct RerandStats {
  /// Code pages re-placed (full: every code page of the image).
  uint32_t regions = 0;
  /// Table/image entries touched — the unit the kernel charges re-rand
  /// latency in. Full: every derand and rand entry plus every relocation
  /// slot, stack slot and the PC; incremental: two table entries per
  /// moved instruction plus every patched site and slot.
  uint64_t entries = 0;
  uint32_t instrs_moved = 0;   // incremental only
  uint32_t sites_patched = 0;  // incremental only
  uint32_t reloc_slots_patched = 0;
  uint32_t stack_slots_translated = 0;
  bool pc_translated = false;
  /// Pinned keys left behind as stale aliases (rand[orig] moved away).
  std::vector<uint32_t> alias_keys;
};

/// Re-places the VCFR image `img` (placed from `program`, executed by
/// `running` over `mem`) whole under `options.placement`, patching `img`,
/// `mem`, and the PC of `running` in place; `running` keeps executing.
/// Returns false — with everything untouched — when the fresh placement
/// puts a different instruction exactly at a pinned address (an alias
/// would be ambiguous; the caller defers and the next seed draws another
/// layout). Throws std::invalid_argument unless `img` is a VCFR image of
/// `program`'s layout.
[[nodiscard]] bool rerandomize_full(const rewriter::Program& program,
                                    binary::Image& img, binary::Memory& mem,
                                    Emulator& running,
                                    const RerandOptions& options,
                                    RerandStats* stats = nullptr);

/// Re-places a deterministic subset of the VCFR image `img`'s movable code
/// pages in place, patching its tables (tables.rand is the placement),
/// code bytes, data slots, marked stack slots, and the PC of `running`.
/// `program` must be the prepared original binary `img` was placed from:
/// its RerandIndex says which instructions move, page by page, and which
/// sites refer to them. Placements must occupy distinct slots of the pool
/// (rewriter::check_placement holds). Returns false — with `img`, `mem`,
/// and `running` untouched — when the slot pool cannot host the
/// re-placement (caller defers); true on success. Throws
/// std::invalid_argument unless `img` is a VCFR image with the slot
/// geometry of options.placement and options.pinned is sorted.
[[nodiscard]] bool rerandomize_incremental(const rewriter::Program& program,
                                           binary::Image& img,
                                           binary::Memory& mem,
                                           Emulator& running,
                                           const RerandOptions& options,
                                           RerandStats* stats = nullptr);

}  // namespace vcfr::emu
