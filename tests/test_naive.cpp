// The naive-ILR image (§III baseline) is its VCFR placement under another
// layout tag: the loader and the emulator derive where each instruction
// runs and what follows it from the image's code and tables. These tests
// check both against an independent computation from the prepared
// program's instruction list, for every sim-suite app under both
// placement policies.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "binary/loader.hpp"
#include "binary/serialize.hpp"
#include "emu/emulator.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr {
namespace {

using binary::Image;
using rewriter::PlacementPolicy;

/// One placement of one app, with its naive image.
struct Placed {
  std::string what;
  rewriter::RandomizeResult rr;
  Image naive;

  /// Where the naive image runs the instruction at original `addr`.
  [[nodiscard]] uint32_t at(uint32_t addr) const {
    const uint32_t* ra = rr.vcfr.tables.rand.lookup(addr);
    return ra == nullptr ? addr : *ra;
  }
};

/// The 11 sim-suite apps at scale 1, seeds 1 and 1337, both policies.
std::vector<Placed> suite_placements() {
  std::vector<Placed> out;
  for (const std::string& app : workloads::spec_names()) {
    const Image original = workloads::make(app, 1);
    for (const uint64_t seed : {1ull, 1337ull}) {
      for (const auto policy :
           {PlacementPolicy::kFullSpread, PlacementPolicy::kPageConfined}) {
        rewriter::RandomizeOptions opts;
        opts.seed = seed;
        opts.placement = policy;
        Placed p;
        p.what = app + " seed " + std::to_string(seed) +
                 (policy == PlacementPolicy::kFullSpread ? " full" : " page");
        p.rr = rewriter::randomize(original, opts);
        p.naive = rewriter::naive_ilr(p.rr.vcfr);
        out.push_back(std::move(p));
      }
    }
  }
  return out;
}

const std::vector<Placed>& placements() {
  static const std::vector<Placed> all = suite_placements();
  return all;
}

// Each instruction's bytes sit at its randomized address (its original
// one when un-randomized), the data section at its base, and nothing else:
// the original address of a moved instruction stays unwritten.
TEST(NaiveImageTest, LoadedMemoryIsEachInstructionAtItsPlace) {
  ASSERT_EQ(placements().size(), 44u);
  for (const Placed& p : placements()) {
    const Image& vcfr = p.rr.vcfr;
    const auto& instrs = p.rr.program.cfg.instrs;
    binary::Memory expected;
    size_t covered = 0;
    for (const auto& e : instrs) {
      expected.write_block(p.at(e.addr), &vcfr.code[e.addr - vcfr.code_base],
                           e.instr.length);
      covered += e.instr.length;
    }
    expected.write_block(vcfr.data_base, vcfr.data.data(),
                         static_cast<uint32_t>(vcfr.data.size()));
    ASSERT_EQ(covered, vcfr.code.size()) << p.what;

    binary::Memory loaded;
    binary::load(p.naive, loaded);
    EXPECT_EQ(loaded.pages_allocated(), expected.pages_allocated()) << p.what;
    EXPECT_EQ(loaded.checksum(), expected.checksum()) << p.what;

    size_t moved = 0;
    size_t written_at_original = 0;
    for (const auto& e : instrs) {
      if (p.at(e.addr) == e.addr) continue;
      ++moved;
      for (uint32_t b = 0; b < e.instr.length; ++b) {
        if (loaded.read8(e.addr + b) != 0) ++written_at_original;
      }
    }
    EXPECT_GT(moved, instrs.size() / 2) << p.what;
    EXPECT_EQ(written_at_original, 0u) << p.what;
  }
}

// The emulator starts at the entry's place and follows each instruction
// to the next original instruction's place, whatever bytes it fetches: a
// one-byte nop written over each instruction in turn still steps to the
// same successor. Past the last instruction, and off any instruction
// start, there is none: the fetch faults as unmapped.
TEST(NaiveImageTest, SuccessorIsTheNextInstructionsPlaceWhateverTheBytes) {
  const uint8_t nop = static_cast<uint8_t>(isa::Op::kNop);
  for (const Placed& p : placements()) {
    const auto& instrs = p.rr.program.cfg.instrs;
    binary::Memory mem;
    binary::load(p.naive, mem);
    emu::Emulator emu(p.naive, mem, /*decode_cache_entries=*/2);
    EXPECT_EQ(emu.state().pc, p.at(p.rr.program.image.entry)) << p.what;

    size_t wrong = 0;
    for (size_t i = 0; i + 1 < instrs.size(); ++i) {
      const uint32_t rpc = p.at(instrs[i].addr);
      mem.write8(rpc, nop);
      emu.state().pc = rpc;
      emu::StepInfo si;
      ASSERT_TRUE(emu.step(&si)) << p.what << " instr " << i;
      if (si.next_rpc != p.at(instrs[i + 1].addr)) ++wrong;
    }
    EXPECT_EQ(wrong, 0u) << p.what;

    const auto faults_unmapped = [&](uint32_t rpc) {
      binary::Memory fresh;
      binary::load(p.naive, fresh);
      fresh.write8(rpc, nop);
      emu::Emulator last(p.naive, fresh, 2);
      last.state().pc = rpc;
      EXPECT_FALSE(last.step()) << p.what << " rpc " << rpc;
      EXPECT_EQ(last.trap().kind, fault::FaultKind::kUnmappedFetch) << p.what;
    };
    faults_unmapped(p.at(instrs.back().addr));
    for (const auto& e : instrs) {
      if (e.instr.length > 1 && p.at(e.addr) != e.addr) {
        faults_unmapped(p.at(e.addr) + 1);
        break;
      }
    }
  }
}

// An un-randomized instruction runs at its original address, in the code
// section. Overwriting one the emulator has already decoded must move
// code_version, so the next step decodes the new bytes exactly as an
// emulator without a decode cache does.
TEST(NaiveImageTest, WriteToUnrandomizedInstructionInvalidatesDecodeCache) {
  using isa::Op;
  const auto plain = [](Op op) {
    return op == Op::kMovRR || op == Op::kMovRI || op == Op::kAddRR ||
           op == Op::kAddRI || op == Op::kSubRI || op == Op::kXorRR ||
           op == Op::kCmpRR || op == Op::kCmpRI;
  };
  const Placed* placed = nullptr;
  uint32_t addr = 0;
  for (const Placed& p : placements()) {
    for (const auto& e : p.rr.program.cfg.instrs) {
      if (p.at(e.addr) == e.addr && plain(e.instr.op)) {
        placed = &p;
        addr = e.addr;
        break;
      }
    }
    if (placed != nullptr) break;
  }
  ASSERT_NE(placed, nullptr) << "no app keeps a plain instruction in place";
  const Image& naive = placed->naive;

  binary::Memory mem;
  binary::load(naive, mem);
  emu::Emulator emu(naive, mem);
  emu.state().pc = addr;
  ASSERT_TRUE(emu.step()) << placed->what;
  ASSERT_EQ(emu.decode_cache_stats().misses, 1u);

  const uint8_t nop = static_cast<uint8_t>(Op::kNop);
  const uint64_t version = mem.code_version();
  mem.write8(addr, nop);
  EXPECT_GT(mem.code_version(), version) << placed->what;

  binary::Memory ref_mem;
  binary::load(naive, ref_mem);
  ref_mem.write8(addr, nop);
  emu::Emulator ref(naive, ref_mem);
  ref.set_decode_cache(false);
  emu.state().pc = addr;
  ref.state() = emu.state();
  emu::StepInfo got;
  emu::StepInfo want;
  ASSERT_TRUE(emu.step(&got));
  ASSERT_TRUE(ref.step(&want));
  EXPECT_EQ(want.instr.op, Op::kNop);
  EXPECT_EQ(got.instr.op, want.instr.op) << placed->what;
  EXPECT_EQ(got.next_rpc, want.next_rpc);
  EXPECT_EQ(emu.state().regs, ref.state().regs);
  EXPECT_EQ(emu.state().pc, ref.state().pc);
}

// Every rand value lies in the randomized region; loading refuses one
// outside it, on either side.
TEST(NaiveImageTest, RandValueOutsideTheRegionFailsToLoad) {
  const Placed& p = placements().front();
  const auto reload = [](const Image& image) {
    std::stringstream ss;
    binary::save(image, ss);
    return binary::load_file(ss);
  };
  const Image back = reload(p.naive);
  EXPECT_EQ(back.layout, binary::Layout::kNaiveIlr);
  EXPECT_EQ(back.tables.rand, p.naive.tables.rand);

  const uint32_t addr = p.rr.vcfr.tables.rand.entries().front().first;
  for (const uint32_t bad :
       {p.naive.rand_base + p.naive.rand_size, p.naive.rand_base - 1}) {
    Image image = p.naive;
    image.tables.rand.set(addr, bad);
    try {
      (void)reload(image);
      ADD_FAILURE() << "loaded a rand value of " << bad;
    } catch (const binary::FormatError& e) {
      EXPECT_EQ(e.fault(), binary::FormatFault::kImplausible) << e.what();
      EXPECT_NE(std::string(e.what()).find(
                    "rand value outside the randomized region"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace vcfr
