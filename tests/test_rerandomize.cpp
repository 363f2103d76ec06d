// Live re-randomization tests (§V-C): re-place a running VCFR process's
// whole image mid-run, in place, preserving semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "binary/loader.hpp"
#include "emu/rerandomize.hpp"
#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"

namespace vcfr::emu {
namespace {

// Deep recursion: at mid-run the stack carries several randomized return
// addresses, all of which must survive the epoch change.
constexpr const char* kProgram = R"(
  .name victim
  .entry main
  .func main
  main:
    mov r1, 8
    call fact
    out r2
    mov r1, 6
    call fact
    out r2
    halt
  .func fact
  fact:
    cmp r1, 1
    jgt rec
    mov r2, 1
    ret
  rec:
    push r1
    sub r1, 1
    call fact
    pop r1
    mul r2, r1
    ret
)";

/// One VCFR process of the victim, re-randomized the way os::Process does
/// it: the image, memory and emulator are patched in place.
struct Session {
  explicit Session(uint64_t seed)
      : program(rewriter::prepare(isa::assemble(kProgram))),
        img(rewriter::place(program, {.seed = seed})) {
    binary::load(img, mem);
    emu = std::make_unique<Emulator>(img, mem);
  }

  /// Fires a full re-randomization under `seed`; the result must be a
  /// placement the next firing can patch.
  RerandStats fire(uint64_t seed) {
    RerandOptions opt;
    opt.placement.seed = seed;
    RerandStats st;
    EXPECT_TRUE(rerandomize_full(program, img, mem, *emu, opt, &st));
    EXPECT_EQ(rewriter::check_placement(program, img, opt.placement), "");
    EXPECT_EQ(rewriter::check_referring_sites(program, img, mem), "");
    return st;
  }

  rewriter::Program program;
  binary::Image img;
  binary::Memory mem;
  std::unique_ptr<Emulator> emu;
};

TEST(LiveRerandomizeTest, MidRecursionSwapPreservesSemantics) {
  // Reference run.
  const auto img = isa::assemble(kProgram);
  const auto golden = run_image(img);
  ASSERT_TRUE(golden.halted);
  ASSERT_EQ(golden.output.size(), 2u);
  EXPECT_EQ(golden.output[0], 40320u);  // 8!
  EXPECT_EQ(golden.output[1], 720u);    // 6!

  for (uint64_t swap_at : {5ull, 17ull, 33ull, 50ull}) {
    Session s(/*seed=*/11);
    for (uint64_t i = 0; i < swap_at; ++i) ASSERT_TRUE(s.emu->step());
    const size_t marked_before = s.emu->ret_bitmap().size();

    const RerandStats stats = s.fire(0xfeed0000 + swap_at);
    EXPECT_EQ(stats.stack_slots_translated, marked_before);
    // The same emulator keeps running: its clock counts from the start.
    EXPECT_EQ(s.emu->stats().instructions, swap_at);

    s.emu->set_enforce_tags(true);
    RunLimits limits;
    limits.max_instructions = 100000;
    const auto r = s.emu->run(limits);
    EXPECT_TRUE(r.halted) << "swap at " << swap_at << ": " << r.error;
    EXPECT_EQ(r.output, golden.output) << "swap at " << swap_at;
    EXPECT_EQ(r.stats.tag_violations, 0u);
  }
}

TEST(LiveRerandomizeTest, OldAddressesAreDeadAfterSwap) {
  Session s(7);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(s.emu->step());

  // The attacker leaks one old randomized address before the swap.
  const uint32_t leaked = s.emu->state().pc;
  ASSERT_TRUE(s.img.tables.is_randomized_addr(leaked));

  (void)s.fire(999);

  // In the new epoch the leaked address maps to nothing.
  EXPECT_FALSE(s.img.tables.is_randomized_addr(leaked))
      << "a leaked epoch-0 address must be meaningless in epoch 1 "
         "(astronomically unlikely collision aside)";
}

TEST(LiveRerandomizeTest, RepeatedSwapsKeepWorking) {
  const auto golden = run_image(isa::assemble(kProgram));
  Session s(1);
  // Re-randomize every 9 instructions, six times, then run to completion.
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 9; ++i) ASSERT_TRUE(s.emu->step());
    (void)s.fire(1000 + epoch);
  }
  RunLimits limits;
  limits.max_instructions = 100000;
  const auto r = s.emu->run(limits);
  EXPECT_TRUE(r.halted) << r.error;
  EXPECT_EQ(r.output, golden.output);
}

// A pinned address the fresh placement gives to a different instruction
// would make its alias ambiguous: the firing defers with nothing written.
TEST(LiveRerandomizeTest, PinnedCollisionDefersUntouched) {
  Session s(3);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(s.emu->step());
  RerandOptions opt;
  opt.placement.seed = 4;
  const binary::Image next = rewriter::place(s.program, opt.placement);
  for (const auto& [orig, ra] : next.tables.rand.entries()) {
    if (s.img.tables.to_original(ra) != orig) {
      opt.pinned = {ra};
      break;
    }
  }
  ASSERT_EQ(opt.pinned.size(), 1u);
  const binary::Image before = s.img;
  const uint64_t mem_before = s.mem.checksum();
  const uint32_t pc_before = s.emu->state().pc;
  EXPECT_FALSE(rerandomize_full(s.program, s.img, s.mem, *s.emu, opt));
  EXPECT_EQ(s.img.code, before.code);
  EXPECT_TRUE(s.img.tables.rand == before.tables.rand);
  EXPECT_TRUE(s.img.tables.derand == before.tables.derand);
  EXPECT_EQ(s.mem.checksum(), mem_before);
  EXPECT_EQ(s.emu->state().pc, pc_before);
}

// After a full rebuild a pinned key may share its slot with a fresh
// placement at another offset (only an alias at the placement's exact
// address is refused): the alias and the placement must both stay mapped.
TEST(LiveRerandomizeTest, AliasSharesSlotWithFreshPlacement) {
  Session s(3);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(s.emu->step());
  const uint32_t slot_bytes = rewriter::RandomizeOptions{}.slot_bytes;
  const auto slot_of = [&](uint32_t ra) {
    return (ra - s.img.rand_base) / slot_bytes;
  };
  RerandOptions opt;
  uint32_t alias = 0, alias_orig = 0, placed = 0, placed_orig = 0;
  for (uint64_t seed = 4; seed < 64 && placed == 0; ++seed) {
    opt.placement.seed = seed;
    const binary::Image next = rewriter::place(s.program, opt.placement);
    for (const auto& [orig, ra] : s.img.tables.rand.entries()) {
      for (const auto& [o2, r2] : next.tables.rand.entries()) {
        if (o2 != orig && r2 != ra && slot_of(r2) == slot_of(ra)) {
          alias = ra;
          alias_orig = orig;
          placed = r2;
          placed_orig = o2;
        }
      }
      if (placed != 0) break;
    }
  }
  ASSERT_NE(placed, 0u) << "no seed shared a slot";
  opt.pinned = {alias};
  RerandStats st;
  ASSERT_TRUE(rerandomize_full(s.program, s.img, s.mem, *s.emu, opt, &st));
  EXPECT_EQ(st.alias_keys, std::vector<uint32_t>{alias});
  EXPECT_TRUE(s.img.tables.is_randomized_addr(alias));
  EXPECT_EQ(s.img.tables.to_original(alias), alias_orig);
  EXPECT_TRUE(s.img.tables.is_randomized_addr(placed));
  EXPECT_EQ(s.img.tables.to_original(placed), placed_orig);
  EXPECT_EQ(s.img.tables.to_randomized(placed_orig), placed);
  EXPECT_EQ(rewriter::check_placement(s.program, s.img, opt.placement), "");
}

// The referring-site verifier reads the bytes the guest executes. A
// firing that left one site's immediate at the old placement is named;
// an injected flip on that site's bytes exempts it.
TEST(LiveRerandomizeTest, StaleReferringSiteIsNamed) {
  Session s(3);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(s.emu->step());
  const std::vector<uint8_t> old_code = s.img.code;
  (void)s.fire(301);
  const isa::DisasmEntry* stale = nullptr;
  for (const uint32_t r : s.program.rerand.referrers) {
    const isa::DisasmEntry& site = s.program.cfg.instrs[r];
    const size_t off = site.addr - s.img.code_base;
    if (!std::equal(old_code.begin() + off,
                    old_code.begin() + off + site.instr.length,
                    s.img.code.begin() + off)) {
      stale = &site;
      break;
    }
  }
  ASSERT_NE(stale, nullptr) << "the firing moved no referenced instruction";
  // The mutant: this site keeps the bytes it had before the firing.
  s.mem.write_block(stale->addr,
                    old_code.data() + (stale->addr - s.img.code_base),
                    stale->instr.length);
  const std::string violation =
      rewriter::check_referring_sites(s.program, s.img, s.mem);
  char prefix[40];
  std::snprintf(prefix, sizeof prefix, "referring site 0x%08x ", stale->addr);
  EXPECT_EQ(violation.rfind(prefix, 0), 0u) << violation;
  EXPECT_EQ(rewriter::check_referring_sites(s.program, s.img, s.mem,
                                            stale->addr + 1),
            "");
}

TEST(LiveRerandomizeTest, RejectsNonVcfrImages) {
  Session s(1);
  binary::Image bogus = s.img;
  bogus.layout = binary::Layout::kOriginal;
  EXPECT_THROW(
      (void)rerandomize_full(s.program, bogus, s.mem, *s.emu, {}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)rerandomize_incremental(s.program, bogus, s.mem, *s.emu, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace vcfr::emu
