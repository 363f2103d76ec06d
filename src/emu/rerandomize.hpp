// Live re-randomization of a running VCFR process (§V-C: "a common
// practice to prevent leaking randomization/de-randomization tables to
// the attackers is to apply regular re-randomization of the binary images
// that will create a new sets of address translation tables and new
// randomized images. Even an attacker managed to obtain the old ... the
// information would be outdated for mounting new attacks").
//
// This goes one step beyond restart-time re-randomization: the swap
// happens *mid-run*, at a quiescent point, without losing program state:
//
//   1. every randomized return address on the stack — located exactly by
//      the §IV-C bitmap — is translated old-randomized -> original ->
//      new-randomized;
//   2. the architectural PC is translated the same way;
//   3. code bytes (same original layout, new encoded targets), jump-table
//      relocation slots, and the serialized kernel tables are refreshed;
//      program *data* is untouched;
//   4. a new emulator resumes over the same memory with the carried-over
//      register file, bitmap, and output stream.
//
// Quiescence condition: no general-purpose register may hold a code
// pointer at the swap point (call sites pick e.g. the top of a request
// loop). Return addresses are fully covered by the bitmap; un-randomized
// failover addresses are identity in every epoch because the failover set
// is analysis-determined and seed-independent.
#pragma once

#include <memory>
#include <vector>

#include "binary/flat_map.hpp"
#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "rewriter/randomizer.hpp"

namespace vcfr::emu {

struct LiveRerandomizeStats {
  uint32_t stack_slots_translated = 0;
  bool pc_translated = false;
  uint32_t reloc_slots_patched = 0;
};

/// Swaps `running` (executing the VCFR image `old_img` over `mem`) onto
/// `new_img`. Both images must be placed from the same original binary;
/// the returned emulator resumes where `running` stopped. `new_img` must
/// outlive the returned emulator.
[[nodiscard]] std::unique_ptr<Emulator> rerandomize_live(
    const Emulator& running, binary::Memory& mem,
    const binary::Image& old_img, const binary::Image& new_img,
    LiveRerandomizeStats* stats = nullptr);

// ---- incremental re-randomization (continuous re-rand, MARDU-style) ----
//
// Instead of rebuilding the whole placement and flushing every cache, the
// incremental path re-places only a deterministic selection of original
// 4 KiB code pages and patches the live placement *in place*: the
// TranslationTables object keeps its identity (walkers stay bound), only
// the moved instructions' derand/rand entries change, and only the code
// bytes of referring sites are re-encoded. The caller keeps the same
// Emulator — no state transplant.
//
// Forced quiescence: addresses listed in `pinned` (register-held
// randomized values) keep their derand entry alive as an *alias* of the
// instruction's original address even after the instruction moves, so a
// later indirect transfer through the stale register still de-randomizes
// correctly. Alias slots stay occupied until the caller drops them.
//
// Requires kFullSpread geometry (the Process layer's only policy): the
// image's rand_size / slot_bytes gives the slot pool the original
// randomize() drew from.

struct IncrementalRerandOptions {
  /// Epoch seed: drives page selection, slot draws, and jitter.
  uint64_t seed = 1;
  /// Percent of candidate code pages re-placed per firing (>= 100 = all).
  uint32_t region_percent = 25;
  /// Re-place every movable page (fresh placement after a trap).
  bool all_regions = false;
  uint32_t slot_bytes = 64;
  uint32_t rand_base = binary::kDefaultRandBase;
  /// Randomized addresses whose derand entries must survive as aliases
  /// (register-held values under forced quiescence). Sorted + deduped.
  std::vector<uint32_t> pinned;
};

struct IncrementalRerandStats {
  uint32_t regions_selected = 0;
  uint32_t instrs_moved = 0;
  uint32_t sites_patched = 0;
  uint32_t reloc_slots_patched = 0;
  uint32_t stack_slots_translated = 0;
  bool pc_translated = false;
  /// Pinned keys left behind as stale aliases (rand[orig] moved away).
  std::vector<uint32_t> alias_keys;
  /// RPCs whose previous-generation decode-cache entries are stale: old
  /// and new randomized addresses of moved instructions, their linear
  /// predecessors (cached seq_next), and re-encoded referring sites.
  binary::FlatSet32 decode_dirty;

  /// Table/image entries touched — the unit the kernel charges re-rand
  /// latency in (and the full path reports the same way).
  [[nodiscard]] uint64_t entries() const {
    return uint64_t{2} * instrs_moved + sites_patched + reloc_slots_patched +
           stack_slots_translated + (pc_translated ? 1 : 0);
  }
};

/// Re-places a deterministic subset of the VCFR image `img`'s movable code
/// pages in place, patching its tables (tables.rand is the placement),
/// code bytes, data slots, marked stack slots, and the PC of `running`.
/// `program` must be the prepared original binary `img` was placed from:
/// its RerandIndex says which instructions move, page by page, and which
/// sites refer to them. Placements must occupy distinct slots of the pool
/// (rewriter::check_placement holds). Returns false — with `img`, `mem`, and `running` untouched —
/// when the slot pool cannot host the re-placement (caller defers); true
/// on success.
[[nodiscard]] bool rerandomize_incremental(const rewriter::Program& program,
                                           binary::Image& img,
                                           binary::Memory& mem,
                                           Emulator& running,
                                           const IncrementalRerandOptions& options,
                                           IncrementalRerandStats* stats = nullptr);

}  // namespace vcfr::emu
