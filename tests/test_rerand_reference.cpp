// Reference differential for the incremental re-randomization firing.
//
// rerandomize_incremental walks per-program indices (rewriter::RerandIndex)
// and a slot-occupancy array instead of rescanning the whole program and
// hashing every placement on each firing. Its output is a byte contract:
// table contents in key order (the VXE and checkpoint bytes), code and
// data bytes, memory, the code generation and every stat. The reference
// below is the firing as it was before that rewrite, kept verbatim except
// for its final store of the serialized tables, which the emulator no
// longer materializes in memory, and the dense tables' iteration and
// store calls. Every test here runs both on identical state,
// firing after firing, and compares everything either produces. Every
// firing must also leave a placement rewriter::check_placement accepts and
// code whose referring sites rewriter::check_referring_sites accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "emu/rerandomize.hpp"
#include "fuzz_program.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::emu {
namespace {

// ---- the firing's options and stats as the reference knew them ---------

struct IncrementalRerandOptions {
  uint64_t seed = 1;
  uint32_t region_percent = 25;
  bool all_regions = false;
  uint32_t slot_bytes = 64;
  uint32_t rand_base = binary::kDefaultRandBase;
  std::vector<uint32_t> pinned;
};

struct IncrementalRerandStats {
  uint32_t regions_selected = 0;
  uint32_t instrs_moved = 0;
  uint32_t sites_patched = 0;
  uint32_t reloc_slots_patched = 0;
  uint32_t stack_slots_translated = 0;
  bool pc_translated = false;
  std::vector<uint32_t> alias_keys;

  [[nodiscard]] uint64_t entries() const {
    return uint64_t{2} * instrs_moved + sites_patched + reloc_slots_patched +
           stack_slots_translated + (pc_translated ? 1 : 0);
  }
};

/// The reference's options for the firing `options` drives: the seed and
/// slot geometry come from the next placement's options.
IncrementalRerandOptions reference_options(const RerandOptions& options) {
  IncrementalRerandOptions ref;
  ref.seed = options.placement.seed;
  ref.region_percent = options.region_percent;
  ref.all_regions = options.all_regions;
  ref.slot_bytes = options.placement.slot_bytes;
  ref.rand_base = options.placement.rand_base;
  ref.pinned = options.pinned;
  return ref;
}

// ---- the reference firing (verbatim; only its name differs) -------------

bool reference_rerandomize_incremental(
    const rewriter::Program& program, binary::Image& img, binary::Memory& mem,
    Emulator& running, const IncrementalRerandOptions& options,
    IncrementalRerandStats* stats) {
  if (img.layout != binary::Layout::kVcfr) {
    throw std::invalid_argument(
        "rerandomize_incremental: requires a VCFR image");
  }
  if (options.slot_bytes == 0 || img.rand_size == 0 ||
      img.rand_size % options.slot_bytes != 0) {
    throw std::invalid_argument(
        "rerandomize_incremental: requires kFullSpread slot geometry");
  }
  const uint32_t slot_count = img.rand_size / options.slot_bytes;
  auto slot_of = [&](uint32_t ra) {
    if (ra < options.rand_base ||
        (ra - options.rand_base) / options.slot_bytes >= slot_count) {
      throw std::invalid_argument(
          "rerandomize_incremental: placement outside the slot pool "
          "(kPageConfined image?)");
    }
    return (ra - options.rand_base) / options.slot_bytes;
  };

  IncrementalRerandStats local;
  IncrementalRerandStats& st = stats ? *stats : local;
  st = IncrementalRerandStats{};
  const rewriter::Cfg& cfg = program.cfg;

  // --- candidate pages: original 4 KiB pages holding movable instrs -------
  constexpr uint32_t kPage = 4096;
  const auto& unrandomized = program.analysis.unrandomized;
  std::vector<size_t> movable;
  movable.reserve(cfg.instrs.size());
  std::vector<uint32_t> pages;
  for (size_t i = 0; i < cfg.instrs.size(); ++i) {
    const uint32_t addr = cfg.instrs[i].addr;
    if (unrandomized.contains(addr)) continue;
    movable.push_back(i);
    const uint32_t page = (addr - img.code_base) / kPage;
    if (pages.empty() || pages.back() != page) pages.push_back(page);
  }
  if (movable.empty()) return true;  // nothing randomized: trivial success

  std::mt19937_64 rng(options.seed);
  std::vector<uint32_t> selected = pages;
  if (!options.all_regions && options.region_percent < 100) {
    std::shuffle(selected.begin(), selected.end(), rng);
    const size_t count = std::max<size_t>(
        1, (pages.size() * options.region_percent + 99) / 100);
    selected.resize(std::min(count, selected.size()));
    std::sort(selected.begin(), selected.end());
  }
  binary::FlatSet32 selected_pages;
  selected_pages.reserve(selected.size());
  for (const uint32_t p : selected) selected_pages.insert(p);
  st.regions_selected = static_cast<uint32_t>(selected.size());

  binary::FlatSet32 pinned;
  pinned.reserve(options.pinned.size());
  for (const uint32_t v : options.pinned) pinned.insert(v);

  // --- phase 1: draw fresh slots (any failure leaves img untouched) -------
  std::vector<size_t> moved;
  binary::FlatSet32 moved_orig;
  for (const size_t idx : movable) {
    const uint32_t addr = cfg.instrs[idx].addr;
    if (!selected_pages.contains((addr - img.code_base) / kPage)) continue;
    moved.push_back(idx);
    moved_orig.insert(addr);
  }

  // Slot occupancy: placements staying put, plus pinned (alias) keys. A
  // moved instruction frees its old slot unless an alias pins it.
  binary::FlatSet32 occupied;
  occupied.reserve(img.tables.rand.size() + options.pinned.size());
  for (const auto& [orig, ra] : img.tables.rand.entries()) {
    if (moved_orig.contains(orig) && !pinned.contains(ra)) continue;
    occupied.insert(slot_of(ra));
  }
  for (const uint32_t v : options.pinned) {
    if (img.tables.derand.contains(v)) occupied.insert(slot_of(v));
  }

  struct Assign {
    size_t idx = 0;       // cfg.instrs index
    uint32_t old_ra = 0;
    uint32_t new_ra = 0;
  };
  std::vector<Assign> assign;
  assign.reserve(moved.size());
  for (const size_t idx : moved) {
    const auto& e = cfg.instrs[idx];
    uint32_t slot = 0;
    bool found = false;
    for (int attempt = 0; attempt < 64 && !found; ++attempt) {
      const auto s = static_cast<uint32_t>(rng() % slot_count);
      if (!occupied.contains(s)) {
        slot = s;
        found = true;
      }
    }
    if (!found) {
      // Dense pool: fall back to a deterministic linear probe.
      const auto s0 = static_cast<uint32_t>(rng() % slot_count);
      for (uint32_t d = 0; d < slot_count; ++d) {
        const uint32_t s = (s0 + d) % slot_count;
        if (!occupied.contains(s)) {
          slot = s;
          found = true;
          break;
        }
      }
    }
    if (!found) return false;  // pool exhausted: the caller defers
    occupied.insert(slot);
    const auto jitter = static_cast<uint32_t>(
        rng() % (options.slot_bytes - e.instr.length + 1));
    const uint32_t* old_ra = img.tables.rand.lookup(e.addr);
    if (old_ra == nullptr) {
      throw std::logic_error(
          "rerandomize_incremental: movable instruction has no placement");
    }
    assign.push_back(
        {idx, *old_ra,
         options.rand_base + slot * options.slot_bytes + jitter});
  }

  // --- phase 2: apply in place --------------------------------------------
  // Bump before the first table/code write so no decode-cache entry from
  // the old generation can be mistaken for current state.
  mem.bump_code_version();
  binary::TranslationTables& tables = img.tables;
  std::unordered_map<uint32_t, uint32_t> old2new;
  old2new.reserve(assign.size());
  const auto moved_to = [&](uint32_t old_ra) -> const uint32_t* {
    const auto it = old2new.find(old_ra);
    return it == old2new.end() ? nullptr : &it->second;
  };

  // Erase every retiring derand key first: a fresh draw may land exactly
  // on another moved instruction's freed slot (and jitter may reproduce
  // its old address), so inserts must only see surviving keys.
  for (const Assign& a : assign) {
    old2new.emplace(a.old_ra, a.new_ra);
    if (!pinned.contains(a.old_ra)) tables.derand.erase(a.old_ra);
  }
  for (const Assign& a : assign) {
    const uint32_t orig = cfg.instrs[a.idx].addr;
    tables.rand.set(orig, a.new_ra);
    tables.derand.emplace(a.new_ra, orig);
    ++st.instrs_moved;
  }

  // Referring sites: direct transfers, software-rewrite return pushes,
  // and proven code-pointer movs whose (original-space) target moved.
  const auto& code_imm_sites = program.analysis.code_imm_sites;
  for (const auto& e : cfg.instrs) {
    const bool qualifies =
        e.instr.is_direct_transfer() || e.instr.op == isa::Op::kPushI ||
        (e.instr.op == isa::Op::kMovRI && code_imm_sites.contains(e.addr));
    if (!qualifies || !moved_orig.contains(e.instr.imm)) continue;
    isa::Instr patched = e.instr;
    patched.imm = tables.to_randomized(e.instr.imm);
    const std::vector<uint8_t> bytes = isa::encode(patched);
    if (bytes.size() != e.instr.length) {
      throw std::logic_error(
          "rerandomize_incremental: re-encoded length changed");
    }
    const size_t off = e.addr - img.code_base;
    for (size_t i = 0; i < bytes.size(); ++i) {
      img.code[off + i] = bytes[i];
      mem.write8(e.addr + static_cast<uint32_t>(i), bytes[i]);
    }
    ++st.sites_patched;
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

  // Surviving aliases: pinned keys whose instruction now lives elsewhere.
  for (const uint32_t v : options.pinned) {
    const uint32_t* orig = tables.derand.lookup(v);
    if (orig == nullptr) continue;
    const uint32_t* ra = tables.rand.lookup(*orig);
    if (ra != nullptr && *ra != v) st.alias_keys.push_back(v);
  }
  return true;
}

// ---- the differential ---------------------------------------------------

/// Table contents in key order, the order VXE and checkpoint bytes
/// serialize them in.
template <typename Table>
std::vector<std::pair<uint32_t, uint32_t>> key_order(const Table& table) {
  return table.entries();
}

/// One VCFR process: a placement of `program`, its memory and emulator.
struct LiveImage {
  LiveImage(const rewriter::Program& program,
            const rewriter::RandomizeOptions& options)
      : img(rewriter::place(program, options)) {
    binary::load(img, mem);
    emu = std::make_unique<Emulator>(img, mem);
  }

  void advance(uint64_t instructions) {
    for (uint64_t i = 0; i < instructions && emu->step(); ++i) {
    }
  }

  binary::Image img;
  binary::Memory mem;
  std::unique_ptr<Emulator> emu;
};

void expect_same_state(const LiveImage& a, const LiveImage& b,
                       const std::string& what) {
  EXPECT_EQ(key_order(a.img.tables.derand), key_order(b.img.tables.derand))
      << what;
  EXPECT_EQ(key_order(a.img.tables.rand), key_order(b.img.tables.rand))
      << what;
  EXPECT_EQ(a.img.code, b.img.code) << what;
  EXPECT_EQ(a.img.data, b.img.data) << what;
  EXPECT_EQ(a.mem.checksum(), b.mem.checksum()) << what;
  EXPECT_EQ(a.mem.code_version(), b.mem.code_version()) << what;
  EXPECT_EQ(a.emu->state().pc, b.emu->state().pc) << what;
}

void expect_same_stats(const RerandStats& a, const IncrementalRerandStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.regions, b.regions_selected) << what;
  EXPECT_EQ(a.entries, b.entries()) << what;
  EXPECT_EQ(a.instrs_moved, b.instrs_moved) << what;
  EXPECT_EQ(a.sites_patched, b.sites_patched) << what;
  EXPECT_EQ(a.reloc_slots_patched, b.reloc_slots_patched) << what;
  EXPECT_EQ(a.stack_slots_translated, b.stack_slots_translated) << what;
  EXPECT_EQ(a.pc_translated, b.pc_translated) << what;
  EXPECT_EQ(a.alias_keys, b.alias_keys) << what;
}

/// How a run of firings is driven.
struct Drive {
  rewriter::RandomizeOptions place;
  uint32_t region_percent = 25;
  bool all_regions = false;
  int firings = 6;
  /// Instructions executed before the first firing and between firings.
  uint64_t gap = 3'000;
  /// Pin the register-held randomized addresses, as os::Process does.
  bool pin_registers = true;
  /// Also pin every n-th placement, so the alias paths run (0: none).
  uint32_t pin_every = 0;
};

/// The addresses a forced-quiescence firing pins under `drive`, sorted
/// and deduplicated.
std::vector<uint32_t> pins(const LiveImage& s, const Drive& drive) {
  std::vector<uint32_t> pinned;
  for (const uint32_t reg : s.emu->state().regs) {
    if (drive.pin_registers && s.img.tables.is_randomized_addr(reg)) {
      pinned.push_back(reg);
    }
  }
  if (drive.pin_every != 0) {
    uint32_t k = 0;
    for (const auto& [orig, ra] : s.img.tables.rand.entries()) {
      if (k++ % drive.pin_every == 0) pinned.push_back(ra);
    }
  }
  std::sort(pinned.begin(), pinned.end());
  pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
  return pinned;
}

/// What a run of firings exercised.
struct Coverage {
  int ok = 0;
  int deferred = 0;
  uint64_t aliases = 0;
  uint64_t relocs = 0;
  uint64_t stack_slots = 0;
  uint64_t pcs = 0;

  void operator+=(const Coverage& o) {
    ok += o.ok;
    deferred += o.deferred;
    aliases += o.aliases;
    relocs += o.relocs;
    stack_slots += o.stack_slots;
    pcs += o.pcs;
  }
};

/// Fires new and reference side by side `drive.firings` times on identical
/// state and compares everything either produces.
Coverage differential(const rewriter::Program& program, const Drive& drive,
                      const std::string& name) {
  LiveImage fresh(program, drive.place);
  LiveImage ref(program, drive.place);
  fresh.advance(drive.gap);
  ref.advance(drive.gap);
  Coverage cov;
  std::vector<uint32_t> aliases;
  for (int f = 0; f < drive.firings; ++f) {
    const std::string what = name + " firing " + std::to_string(f);
    // Last firing's aliases: on odd firings still held (pinned again, so
    // their slots must stay taken), on even ones retired from derand the
    // way os::Process drops them.
    if (f % 2 == 0) {
      for (const uint32_t a : aliases) {
        fresh.img.tables.derand.erase(a);
        ref.img.tables.derand.erase(a);
      }
      aliases.clear();
    }
    RerandOptions opt;
    opt.placement = drive.place;
    opt.placement.seed = drive.place.seed * 131 + static_cast<uint64_t>(f);
    opt.region_percent = drive.region_percent;
    opt.all_regions = drive.all_regions;
    opt.pinned = pins(fresh, drive);
    EXPECT_EQ(opt.pinned, pins(ref, drive)) << what;
    opt.pinned.insert(opt.pinned.end(), aliases.begin(), aliases.end());
    std::sort(opt.pinned.begin(), opt.pinned.end());
    opt.pinned.erase(std::unique(opt.pinned.begin(), opt.pinned.end()),
                     opt.pinned.end());

    const std::vector<uint8_t> code_before = fresh.img.code;
    const uint64_t mem_before = fresh.mem.checksum();
    RerandStats st_fresh;
    IncrementalRerandStats st_ref;
    const bool r_fresh = rerandomize_incremental(
        program, fresh.img, fresh.mem, *fresh.emu, opt, &st_fresh);
    const bool r_ref = reference_rerandomize_incremental(
        program, ref.img, ref.mem, *ref.emu, reference_options(opt), &st_ref);
    EXPECT_EQ(r_fresh, r_ref) << what;
    expect_same_stats(st_fresh, st_ref, what);
    expect_same_state(fresh, ref, what);
    EXPECT_EQ(rewriter::check_placement(program, fresh.img, opt.placement),
              "")
        << what;
    EXPECT_EQ(rewriter::check_referring_sites(program, fresh.img, fresh.mem),
              "")
        << what;
    cov.aliases += st_fresh.alias_keys.size();
    if (r_fresh) aliases = st_fresh.alias_keys;
    cov.relocs += st_fresh.reloc_slots_patched;
    cov.stack_slots += st_fresh.stack_slots_translated;
    cov.pcs += st_fresh.pc_translated ? 1 : 0;
    if (r_fresh) {
      ++cov.ok;
    } else {
      ++cov.deferred;
      EXPECT_EQ(fresh.img.code, code_before) << what << ": deferral wrote";
      EXPECT_EQ(fresh.mem.checksum(), mem_before) << what << ": deferral wrote";
    }
    if (::testing::Test::HasFailure()) break;
    fresh.advance(drive.gap);
    ref.advance(drive.gap);
  }
  return cov;
}

std::string program_name(const std::string& name, int scale) {
  return name + "@" + std::to_string(scale);
}

// Every suite program at scale 0, at both page fractions, with pins. The
// run must reach every patch path: stack slots, relocation slots, the PC
// and surviving aliases.
TEST(RerandDifferentialTest, FiringMatchesReferenceOnSuiteScale0) {
  Coverage total;
  for (const std::string& name : workloads::spec_names()) {
    const rewriter::Program program =
        rewriter::prepare(workloads::make(name, 0));
    for (const uint32_t percent : {25u, 100u}) {
      Drive drive;
      drive.place.seed = 0x5eed + percent;
      drive.region_percent = percent;
      drive.pin_every = percent == 25 ? 0 : 9;
      const Coverage cov = differential(
          program, drive,
          program_name(name, 0) + " " + std::to_string(percent) + "%");
      EXPECT_GT(cov.ok, 0) << name;
      total += cov;
    }
  }
  EXPECT_GT(total.aliases, 0u);
  EXPECT_GT(total.relocs, 0u);
  EXPECT_GT(total.stack_slots, 0u);
  EXPECT_GT(total.pcs, 0u);
}

// Scale 1: several code pages per program, so 25 % selects a real subset.
TEST(RerandDifferentialTest, FiringMatchesReferenceOnSuiteScale1) {
  for (const std::string& name : workloads::spec_names()) {
    const rewriter::Program program =
        rewriter::prepare(workloads::make(name, 1));
    Drive drive;
    drive.place.seed = 0xab1e;
    drive.firings = 3;
    drive.gap = 20'000;
    drive.pin_every = 17;
    EXPECT_GT(differential(program, drive, program_name(name, 1)).ok, 0)
        << name;
  }
}

// Generated programs: indirect-call tables (relocation slots), deep call
// chains (return addresses on the stack), trap-scheduled fresh placements.
TEST(RerandDifferentialTest, FiringMatchesReferenceOnFuzzPrograms) {
  Coverage total;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    ProgramFuzzer fuzzer(seed * 7919);
    const rewriter::Program program =
        rewriter::prepare(isa::assemble(fuzzer.generate()));
    Drive drive;
    drive.place.seed = seed;
    drive.all_regions = seed % 3 == 0;
    drive.region_percent = seed % 2 == 0 ? 25 : 100;
    drive.pin_every = seed % 4;
    drive.gap = 7 + seed * 5;
    drive.firings = 8;
    total += differential(program, drive, "fuzz " + std::to_string(seed));
  }
  EXPECT_GT(total.ok, 0);
  EXPECT_GT(total.relocs, 0u);
  EXPECT_GT(total.stack_slots, 0u);
}

// A pool with no spare slot (spread 1.0), every page re-placed, nothing
// pinned: each firing frees every slot and redraws them all, so the last
// draws miss 64 times and fall back to the linear probe.
TEST(RerandDifferentialTest, DensePoolFallsBackToLinearProbeLikeReference) {
  const rewriter::Program program =
      rewriter::prepare(workloads::make("gcc", 0));
  Drive drive;
  drive.place.seed = 3;
  drive.place.spread = 1.0;
  drive.region_percent = 100;
  drive.pin_registers = false;
  const Coverage cov = differential(program, drive, "dense pool");
  EXPECT_EQ(cov.ok, drive.firings);
  EXPECT_EQ(cov.deferred, 0);
}

// The same dense pool with half the placements pinned: their slots stay
// taken while their instructions move, so every firing exhausts the pool
// and must defer with nothing written — identically in both.
TEST(RerandDifferentialTest, ExhaustedPoolDefersUntouchedLikeReference) {
  const rewriter::Program program =
      rewriter::prepare(workloads::make("gcc", 0));
  Drive drive;
  drive.place.seed = 3;
  drive.place.spread = 1.0;
  drive.region_percent = 100;
  drive.pin_every = 2;
  const Coverage cov = differential(program, drive, "exhausted pool");
  EXPECT_EQ(cov.ok, 0);
  EXPECT_EQ(cov.deferred, drive.firings);
}

}  // namespace
}  // namespace vcfr::emu
