// Live re-randomization tests (§V-C): swap a running VCFR process onto a
// freshly randomized image mid-run, preserving semantics.
#include <gtest/gtest.h>

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

struct Session {
  binary::Memory mem;
  rewriter::RandomizeResult rr;
  std::unique_ptr<Emulator> emu;
};

Session start(uint64_t seed) {
  Session s;
  const auto img = isa::assemble(kProgram);
  rewriter::RandomizeOptions opts;
  opts.seed = seed;
  s.rr = rewriter::randomize(img, opts);
  binary::load(s.rr.vcfr, s.mem);
  s.emu = std::make_unique<Emulator>(s.rr.vcfr, s.mem);
  return s;
}

TEST(LiveRerandomizeTest, MidRecursionSwapPreservesSemantics) {
  // Reference run.
  const auto img = isa::assemble(kProgram);
  const auto golden = run_image(img);
  ASSERT_TRUE(golden.halted);
  ASSERT_EQ(golden.output.size(), 2u);
  EXPECT_EQ(golden.output[0], 40320u);  // 8!
  EXPECT_EQ(golden.output[1], 720u);    // 6!

  for (uint64_t swap_at : {5ull, 17ull, 33ull, 50ull}) {
    Session s = start(/*seed=*/11);
    for (uint64_t i = 0; i < swap_at; ++i) ASSERT_TRUE(s.emu->step());
    const size_t marked_before = s.emu->ret_bitmap().size();

    rewriter::RandomizeOptions fresh;
    fresh.seed = 0xfeed0000 + swap_at;
    const auto new_rr = rewriter::randomize(isa::assemble(kProgram), fresh);

    LiveRerandomizeStats stats;
    auto fresh_emu =
        rerandomize_live(*s.emu, s.mem, s.rr.vcfr, new_rr.vcfr, &stats);
    EXPECT_EQ(stats.stack_slots_translated, marked_before);

    fresh_emu->set_enforce_tags(true);
    RunLimits limits;
    limits.max_instructions = 100000;
    const auto r = fresh_emu->run(limits);
    EXPECT_TRUE(r.halted) << "swap at " << swap_at << ": " << r.error;
    EXPECT_EQ(r.output, golden.output) << "swap at " << swap_at;
    EXPECT_EQ(r.stats.tag_violations, 0u);
  }
}

TEST(LiveRerandomizeTest, OldAddressesAreDeadAfterSwap) {
  Session s = start(7);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(s.emu->step());

  // The attacker leaks one old randomized address before the swap.
  const uint32_t leaked = s.emu->state().pc;
  ASSERT_TRUE(s.rr.vcfr.tables.is_randomized_addr(leaked));

  rewriter::RandomizeOptions fresh;
  fresh.seed = 999;
  const auto new_rr = rewriter::randomize(isa::assemble(kProgram), fresh);
  auto fresh_emu =
      rerandomize_live(*s.emu, s.mem, s.rr.vcfr, new_rr.vcfr, nullptr);

  // In the new epoch the leaked address maps to nothing.
  EXPECT_FALSE(new_rr.vcfr.tables.is_randomized_addr(leaked))
      << "a leaked epoch-0 address must be meaningless in epoch 1 "
         "(astronomically unlikely collision aside)";
}

TEST(LiveRerandomizeTest, RepeatedSwapsKeepWorking) {
  const auto golden = run_image(isa::assemble(kProgram));
  Session s = start(1);
  auto cur_rr = s.rr;
  auto cur = std::move(s.emu);
  std::vector<rewriter::RandomizeResult> epochs;
  epochs.reserve(6);
  uint64_t steps = 0;
  RunLimits one;
  one.max_instructions = 1;
  // Re-randomize every 9 instructions, six times, then run to completion.
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE(cur->step());
      ++steps;
    }
    rewriter::RandomizeOptions fresh;
    fresh.seed = 1000 + epoch;
    epochs.push_back(rewriter::randomize(isa::assemble(kProgram), fresh));
    cur = rerandomize_live(*cur, s.mem, cur_rr.vcfr, epochs.back().vcfr,
                           nullptr);
    cur_rr = epochs.back();
  }
  RunLimits limits;
  limits.max_instructions = 100000;
  const auto r = cur->run(limits);
  EXPECT_TRUE(r.halted) << r.error;
  EXPECT_EQ(r.output, golden.output);
}

TEST(LiveRerandomizeTest, RejectsNonVcfrImages) {
  Session s = start(1);
  binary::Image bogus = s.rr.vcfr;
  bogus.layout = binary::Layout::kOriginal;
  EXPECT_THROW(
      (void)rerandomize_live(*s.emu, s.mem, s.rr.vcfr, bogus, nullptr),
      std::invalid_argument);
}

}  // namespace
}  // namespace vcfr::emu
